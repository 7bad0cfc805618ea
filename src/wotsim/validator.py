"""Validate JSON values against a DataSchema.

Validation never raises: a non-conforming value yields a ValidationResult
that names every violated keyword with a JSON-pointer path. Only the recognized
keyword subset is checked; an empty schema accepts everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import MISSING, DataSchema, Json


def json_equal(a: Json, b: Json) -> bool:
    """Deep equality on JSON values: booleans are never equal to numbers,
    but 1 and 1.0 are the same JSON number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(v, b[k]) for k, v in a.items())
    if a is None or b is None:
        return a is None and b is None
    return type(a) is type(b) and a == b


def json_type_name(value: Json) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    return "object"


def _is_number(value: Json) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPE_TESTS = {
    "null": lambda value: value is None,
    "boolean": lambda value: isinstance(value, bool),
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
    "number": _is_number,
    "string": lambda value: isinstance(value, str),
    "array": lambda value: isinstance(value, list),
    "object": lambda value: isinstance(value, dict),
}


@dataclass(frozen=True)
class Violation:
    path: str  # JSON pointer into the checked value ("" = the value itself)
    rule: str  # name of the violated keyword
    detail: str

    def as_dict(self) -> dict:
        return {"path": self.path, "rule": self.rule, "detail": self.detail}


@dataclass
class ValidationResult:
    violations: list[Violation]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(schema: DataSchema, value: Json) -> ValidationResult:
    check = compile_checker(schema)
    return ValidationResult([] if check.conforms(value) else _violations(check, value))


def compile_checker(schema: DataSchema):
    """The schema's checker, compiled on first use and kept on the schema.
    Its ``conforms(value)`` answers only whether the value has no violations.
    Threads that race here compile equal checkers, and either may be kept."""
    check = schema.checker
    if check is None:
        check = _compile(schema)
        object.__setattr__(schema, "checker", check)
    return check


def _compile(schema: DataSchema):
    """A closure that appends a value's violations at a position (see _add) to
    a list, with a ``conforms`` attribute. It tests only the keywords the
    schema has, in the order coded below."""
    minimum, maximum = schema.minimum, schema.maximum
    bounded = minimum is not None or maximum is not None
    expected = schema.type
    if expected is None and bounded:
        expected = "number"  # numeric bounds without a type imply a number
    is_expected = _TYPE_TESTS.get(expected)
    enum, const = schema.enum_values, schema.const_value
    branches = None if schema.one_of is None else [compile_checker(b) for b in schema.one_of]
    min_items, max_items = schema.min_items, schema.max_items
    items = None if schema.items is None else compile_checker(schema.items)
    required = schema.required or ()
    members = [(name, name.replace("~", "~0").replace("/", "~1"), compile_checker(sub))
               for name, sub in (schema.properties or {}).items()]

    def check(value: Json, where, out: list[Violation]) -> None:
        if is_expected is not None and not is_expected(value):
            _add(out, where, "type", f"expected {expected}, got {json_type_name(value)}")
        if enum is not None and not any(json_equal(value, member) for member in enum):
            _add(out, where, "enum", "value is not one of the enumerated values")
        if const is not MISSING and not json_equal(value, const):
            _add(out, where, "const", "value differs from the const value")
        if branches is not None and not any(branch.conforms(value) for branch in branches):
            _add(out, where, "oneOf", "value matches none of the oneOf branches")
        if isinstance(value, list):
            count = len(value)
            if min_items is not None and count < min_items:
                _add(out, where, "minItems", f"{count} item(s), need at least {min_items}")
            if max_items is not None and count > max_items:
                _add(out, where, "maxItems", f"{count} item(s), allow at most {max_items}")
            if items is not None:
                for index, element in enumerate(value):
                    items(element, (where, index), out)
        elif isinstance(value, dict):
            for name in required:
                if name not in value:
                    _add(out, where, "required", f"missing required member {name!r}")
            for name, segment, member in members:
                if name in value:
                    member(value[name], (where, segment), out)
        elif bounded and _is_number(value):
            if minimum is not None and value < minimum:
                _add(out, where, "minimum", f"{value} is below the minimum {minimum}")
            if maximum is not None and value > maximum:
                _add(out, where, "maximum", f"{value} is above the maximum {maximum}")

    # The pass/fail form: the same keywords, stopping at the first failure.
    # Number, integer and string-enum leaves get one exact type test and
    # their bounds or members; a leaf value of any other type is left to the
    # collector. The collector never asks a member's pass/fail form before
    # descending into it, so a failing value costs two walks, not 2**depth.
    plain = enum is None and const is MISSING and branches is None
    if plain and expected in ("number", "integer"):
        lo = -math.inf if minimum is None else minimum
        hi = math.inf if maximum is None else maximum
        exact = {int} if expected == "integer" else {int, float}

        def conforms(value: Json) -> bool:
            if type(value) in exact:
                return not (value < lo or value > hi)  # NaN conforms to any bounds
            return not _violations(check, value)
    elif (const is MISSING and branches is None and expected in (None, "string")
          and enum is not None and all(type(member) is str for member in enum)):
        words = frozenset(enum)

        def conforms(value: Json) -> bool:
            return type(value) is str and value in words
    else:
        items_conform = None if items is None else items.conforms
        member_tests = [(name, member.conforms) for name, _, member in members]

        def conforms(value: Json) -> bool:
            if is_expected is not None and not is_expected(value):
                return False
            if enum is not None and not any(json_equal(value, member) for member in enum):
                return False
            if const is not MISSING and not json_equal(value, const):
                return False
            if branches is not None and not any(branch.conforms(value) for branch in branches):
                return False
            if isinstance(value, list):
                count = len(value)
                if min_items is not None and count < min_items:
                    return False
                if max_items is not None and count > max_items:
                    return False
                return items_conform is None or all(map(items_conform, value))
            if isinstance(value, dict):
                for name in required:
                    if name not in value:
                        return False
                for name, test in member_tests:
                    if name in value and not test(value[name]):
                        return False
                return True
            if bounded and _is_number(value):
                return not ((minimum is not None and value < minimum)
                            or (maximum is not None and value > maximum))
            return True

    check.conforms = conforms
    return check


def _violations(check, value: Json) -> list[Violation]:
    found: list[Violation] = []
    check(value, None, found)
    return found


def _add(out: list[Violation], where, rule: str, detail: str) -> None:
    """Append a violation at a checker position: None for the checked value,
    else a (parent position, segment) pair. The position is rendered as a JSON
    pointer only here, never for each element the checker visits."""
    segments = []
    while where is not None:
        where, segment = where
        segments.append(f"/{segment}")
    out.append(Violation("".join(reversed(segments)), rule, detail))
