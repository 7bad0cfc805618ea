"""Generate random JSON values that conform to a DataSchema.

The contract is soundness: for any satisfiable schema, validate(schema,
generate(schema, rng)) holds. Keyword precedence when several are present is
const > enum > oneOf > type. Generation is fully deterministic for a given
(schema, seed) pair. Each schema is prepared once into a Plan, kept on the
schema, whose draw writes a value's JSON text directly; generate and
minimal_value decode that text.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import string
import sys

from .errors import Unsatisfiable
from .model import DataSchema, Json, is_present
from .validator import validate

logger = logging.getLogger(__name__)

# Containers nested deeper than this degrade to their minimal conforming
# shape, guaranteeing termination on deeply nested schemas.
DEPTH_CAP = 8

_U64 = (1 << 64) - 1
_DOUBLE_MAX = sys.float_info.max


class RandomSource:
    """Seeded pseudo-random source behind all generated data.

    Wraps ``random.Random`` (CPython's Mersenne Twister), so an identical
    64-bit seed reproduces the identical draw sequence across runs. A source
    must not be shared between threads; derive independent child sources with
    :meth:`derive` instead.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = random.SystemRandom().getrandbits(64)
        self.seed = seed & _U64
        self._random = random.Random(self.seed)

    def derive(self, label: str) -> "RandomSource":
        """Child source with a seed determined by this seed and the label."""
        material = self.seed.to_bytes(8, "big") + label.encode("utf-8")
        child_seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return RandomSource(child_seed)

    def randint(self, a: int, b: int) -> int:
        return self._random.randint(a, b)

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def json_text(value: Json) -> str:
    """The JSON text of a value, as every served body writes it."""
    return _ENCODER.encode(value)


def generate(schema: DataSchema, rng: RandomSource, depth: int = 0) -> Json:
    """Produce a random value conforming to the schema.

    Raises Unsatisfiable when no conforming value exists (e.g. const/enum
    conflicting with the declared type, or an empty integer range).
    """
    return json.loads(prepare(schema).draw(rng._random, depth))


def generate_json(schema: DataSchema, rng: RandomSource) -> str:
    """generate's value as the JSON text json_text would write for it, drawn
    without building the value."""
    return prepare(schema).draw(rng._random, 0)


def minimal_value(schema: DataSchema) -> Json:
    """Shallowest conforming value, used when the depth cap is reached."""
    return json.loads(_minimal(prepare(schema)))


def prepare(schema: DataSchema) -> Plan:
    """The schema's plan, built on first use and kept on the schema.

    Two threads that race here build equal plans, and either may be kept."""
    plan = schema.plan
    if plan is None:
        plan = Plan(schema)
        object.__setattr__(schema, "plan", plan)
    return plan


_ONE_OF_FAILURE = "every oneOf branch conflicts with the enclosing keywords"
_BOOLEANS = ("false", "true")


def _minimal(plan: Plan) -> str:
    """The plan's minimal text; raises Unsatisfiable when it has none."""
    if plan.minimal is None:
        raise Unsatisfiable(plan.minimal_failure)
    return plan.minimal


def _draw_one_of(branches: list):
    """Draw from one of the (nesting depth, draw) branches: a random one, or
    the shallowest at the depth cap; a branch whose draw raises Unsatisfiable
    is dropped and another tried."""
    def draw_one_of(r, depth):
        candidates = list(branches)
        while candidates:
            if depth >= DEPTH_CAP:
                index = min(range(len(candidates)), key=lambda i: candidates[i][0])
            else:
                index = r.randrange(len(candidates))
            try:
                return candidates[index][1](r, depth)
            except Unsatisfiable:
                candidates.pop(index)
        raise Unsatisfiable(_ONE_OF_FAILURE)
    return draw_one_of


def _draw_number(lo, hi):
    """The draw of a number in [lo, hi]: uniform, rounded to 6 decimals unless
    rounding would leave the range, written as json_text writes the float."""
    span = hi - lo  # random.uniform's own arithmetic, bit for bit

    def rounded_text(drawn: float) -> str:
        rounded = round(drawn, 6)
        # Rounding must not escape a very narrow range.
        return repr(rounded if lo <= rounded <= hi else drawn)

    if span == math.inf:  # wider than a double: lo < 0 < hi, and the sum cannot overflow
        def draw_wide(r, depth):
            u = r.random()
            return rounded_text(lo * (1.0 - u) + hi * u)
        return draw_wide
    if round(lo, 6) != lo or round(hi, 6) != hi:
        return lambda r, depth: rounded_text(lo + span * r.random())

    def draw_number(r, depth):
        drawn = lo + span * r.random()
        if 1e-4 <= drawn < 1e9 or -1e9 < drawn <= -1e-4:
            # One correctly rounded conversion, as round(drawn, 6) makes: at
            # most 15 significant digits, so it is also that float's repr. The
            # bounds are 6-decimal values, so the rounding stays inside them.
            text = ("%.6f" % drawn).rstrip("0")
            return text + "0" if text[-1] == "." else text
        return rounded_text(drawn)  # repr would use an exponent
    return draw_number


class Plan:
    """A schema compiled once, with its kind decided once, into a closure
    ``draw(r, depth)`` over a ``random.Random`` that returns the JSON text of
    a conforming value, written as json_text writes that value.

    ``minimal`` is the JSON text of the shallowest conforming value, which a
    container draws at the depth cap, built once; when no such value exists
    it is None and ``minimal_failure`` holds the Unsatisfiable message.
    ``failure`` is the Unsatisfiable message that every draw raises before
    using the random source, or None; ``certain_failure`` also finds the
    draws that all fail only after using it, from ``kind`` and the member
    plans (``branches``, ``items``, ``properties``) and ``lo``.
    """

    def __init__(self, schema: DataSchema):
        self.failure: str | None = None
        self.draw, build_minimal = self._compile(schema)
        self.minimal: str | None = None
        self.minimal_failure: str | None = None
        try:
            self.minimal = build_minimal()
        except Unsatisfiable as exc:
            self.minimal_failure = str(exc)

    def _fail(self, message: str):
        """The draw and the minimal builder of a plan nothing conforms to."""
        self.failure = message

        def fail(*args):
            raise Unsatisfiable(message)
        return fail, fail

    def _compile(self, schema: DataSchema):
        """The draw closure of the schema's kind and the builder of its minimal
        text, run once. Members, bounds and fixed texts are resolved and member
        draws bound here, so the draw dispatches on nothing."""
        if is_present(schema.const_value):
            self.kind = "const"
            if not validate(schema, schema.const_value).valid:
                return self._fail("const value conflicts with the other keywords")
            text = json_text(schema.const_value)
            return (lambda r, depth: text), lambda: text
        if schema.enum_values is not None:
            self.kind = "enum"
            members = [json_text(v) for v in schema.enum_values if validate(schema, v).valid]
            if not members:
                return self._fail("no enum member conforms to the other keywords")
            return (lambda r, depth: r.choice(members)), lambda: members[0]
        if schema.one_of is not None:
            self.kind = "oneOf"
            merged = [m for b in schema.one_of if (m := merge_branch(schema, b)) is not None]
            self.branches = [(nesting_depth(m), prepare(m)) for m in merged]
            if not self.branches:
                return self._fail(_ONE_OF_FAILURE)

            def minimal_one_of():
                for _, plan in sorted(self.branches, key=lambda branch: branch[0]):
                    if plan.minimal is not None:
                        return plan.minimal
                raise Unsatisfiable(_ONE_OF_FAILURE)
            draws = [(nesting, plan.draw) for nesting, plan in self.branches]
            return _draw_one_of(draws), minimal_one_of

        kind = schema.type
        if kind is None and (schema.minimum is not None or schema.maximum is not None):
            kind = "number"
        if kind is None:
            logger.warning("schema has no type, enum, const or oneOf; generating null")
            kind = "null"
        self.kind = kind
        if kind == "null":
            return (lambda r, depth: "null"), lambda: "null"
        if kind == "boolean":
            return (lambda r, depth: r.choice(_BOOLEANS)), lambda: "false"
        if kind == "integer":
            lo, hi = _resolve_bounds(schema.minimum, schema.maximum, -128, 127)
            lo, hi = int(math.ceil(lo)), int(math.floor(hi))
            if lo > hi:
                return self._fail(f"no integer exists in [{schema.minimum}, {schema.maximum}]")
            return (lambda r, depth: repr(r.randint(lo, hi))), lambda: repr(lo)
        if kind == "number":
            # Draws are doubles: a bound past the largest one is clamped to it,
            # and a range left empty by that holds no double.
            minimum, maximum = schema.minimum, schema.maximum
            lo, hi = _resolve_bounds(None if minimum is None else max(minimum, -_DOUBLE_MAX),
                                     None if maximum is None else min(maximum, _DOUBLE_MAX),
                                     -100.0, 100.0)
            lo, hi = max(lo, -_DOUBLE_MAX), min(hi, _DOUBLE_MAX)
            if lo > hi:
                return self._fail("no double lies within the number's bounds")
            return _draw_number(lo, hi), lambda: json_text(float(lo))
        if kind == "string":
            def draw_string(r, depth):
                choice = r.choice
                return '"' + "".join([choice(string.ascii_lowercase)
                                      for _ in range(r.randint(4, 16))]) + '"'
            return draw_string, lambda: '""'
        if kind == "array":
            self.items = items = prepare(schema.items or DataSchema())
            self.lo = lo = schema.min_items if schema.min_items is not None else 0
            hi = schema.max_items if schema.max_items is not None else lo + 5
            draw_item = items.draw

            def draw_array(r, depth):
                if depth >= DEPTH_CAP:
                    return _minimal(self)
                depth += 1
                return "[" + ", ".join([draw_item(r, depth)
                                        for _ in range(r.randint(lo, hi))]) + "]"
            return draw_array, lambda: "[" + ", ".join([_minimal(items) for _ in range(lo)]) + "]"
        self.properties = {n: prepare(s) for n, s in (schema.properties or {}).items()}
        keys = {name: json_text(name) + ": " for name in self.properties}
        members = [(keys[name], plan.draw) for name, plan in self.properties.items()]
        required = dict.fromkeys(schema.required or ())
        # Required but never described: always null.
        undescribed = [json_text(name) + ": null" for name in required
                       if name not in self.properties]

        def minimal_object():
            return "{" + ", ".join([keys[name] + _minimal(self.properties[name])
                                    if name in self.properties else json_text(name) + ": null"
                                    for name in required]) + "}"

        def draw_object(r, depth):
            if depth >= DEPTH_CAP:
                return _minimal(self)
            depth += 1
            # Every described property is included, not only the required ones.
            parts = [key + draw(r, depth) for key, draw in members]
            return "{" + ", ".join(parts + undescribed) + "}"
        return draw_object, minimal_object

    def certain_failure(self, depth: int = 0) -> str | None:
        """The Unsatisfiable message when every draw at this depth raises, else
        None. It follows the draw without drawing: an object fails with any
        member, an array with items it cannot leave out, a oneOf with all
        branches, and a container at the depth cap with its minimal value."""
        if self.failure is not None:
            return self.failure
        if self.kind == "oneOf":
            failed = all(plan.certain_failure(depth) for _, plan in self.branches)
            return _ONE_OF_FAILURE if failed else None
        if self.kind not in ("array", "object"):
            return None
        if depth >= DEPTH_CAP:
            return self.minimal_failure
        if self.kind == "array":
            return self.items.certain_failure(depth + 1) if self.lo >= 1 else None
        failures = (plan.certain_failure(depth + 1) for plan in self.properties.values())
        return next((failure for failure in failures if failure), None)


def _resolve_bounds(minimum, maximum, default_lo, default_hi):
    """Concrete [lo, hi] range, filling absent sides with small defaults.

    A single given bound anchors a 256-wide window kept inside [-128, 127]
    where possible; when the given bound itself lies outside that window the
    window follows the bound so the range never comes out empty.
    """
    if minimum is None and maximum is None:
        return default_lo, default_hi
    if minimum is None:
        lo = max(-128, maximum - 256)
        if lo > maximum:
            lo = maximum - 256
        return lo, maximum
    if maximum is None:
        hi = min(127, minimum + 256)
        if hi < minimum:
            hi = minimum + 256
        return minimum, hi
    return minimum, maximum


def nesting_depth(schema: DataSchema) -> int:
    """Static container-nesting depth of a schema (oneOf adds no data depth)."""
    depths = [0]
    if schema.items is not None:
        depths.append(1 + nesting_depth(schema.items))
    if schema.properties:
        depths.append(1 + max(nesting_depth(s) for s in schema.properties.values()))
    if schema.one_of:
        depths.append(max(nesting_depth(b) for b in schema.one_of))
    return max(depths)


def merge_branch(parent: DataSchema, branch: DataSchema) -> DataSchema | None:
    """Conjunction of a oneOf branch with its enclosing schema's constraints.

    A value generated from the merge satisfies both the branch and the
    enclosing type/bounds/shape keywords; returns None for a branch whose
    constraints cannot intersect the parent's. The parent's const/enum/oneOf
    are not folded in (they take precedence before branch selection).
    """
    type_name = branch.type
    if parent.type is not None:
        if type_name is None or type_name == parent.type:
            type_name = parent.type
        elif {type_name, parent.type} == {"integer", "number"}:
            type_name = "integer"
        else:
            return None

    minimum = _pick(max, parent.minimum, branch.minimum)
    maximum = _pick(min, parent.maximum, branch.maximum)
    if minimum is not None and maximum is not None and minimum > maximum:
        return None

    min_items = _pick(max, parent.min_items, branch.min_items)
    max_items = _pick(min, parent.max_items, branch.max_items)
    if min_items is not None and max_items is not None and min_items > max_items:
        return None

    required: tuple[str, ...] | None = None
    if parent.required or branch.required:
        seen = dict.fromkeys((parent.required or ()) + (branch.required or ()))
        required = tuple(seen)

    items = branch.items if parent.items is None else parent.items
    if parent.items is not None and branch.items is not None:
        items = merge_branch(parent.items, branch.items)
        if items is None:
            # Elements are impossible; survivable only if the array may be empty.
            if (min_items or 0) > 0:
                return None
            items = None
            max_items = 0

    properties: dict[str, DataSchema] | None = None
    if parent.properties or branch.properties:
        properties = {}
        names = dict.fromkeys(
            list(parent.properties or {}) + list(branch.properties or {})
        )
        for name in names:
            in_parent = (parent.properties or {}).get(name)
            in_branch = (branch.properties or {}).get(name)
            if in_parent is not None and in_branch is not None:
                sub = merge_branch(in_parent, in_branch)
                if sub is None:
                    if required and name in required:
                        return None
                    continue  # unsatisfiable optional member: never generate it
            else:
                sub = in_parent if in_parent is not None else in_branch
            properties[name] = sub

    return DataSchema(
        type=type_name,
        enum_values=branch.enum_values,
        const_value=branch.const_value,
        one_of=branch.one_of,
        minimum=minimum,
        maximum=maximum,
        items=items,
        min_items=min_items,
        max_items=max_items,
        properties=properties,
        required=required,
    )


def _pick(fn, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return fn(a, b)
