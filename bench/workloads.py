"""Workload inputs: the TD corpus, the generated deep TD and the seeded
operation sequences the load client replays.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical TDs, value pools and operation sequences. Values are
drawn by the benchmark's own small generator, never by ``wotsim.generate``,
so the program under test does not choose its own inputs.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "tests" / "fixtures"
FIXTURES = (
    "bare-thing.td.json",
    "coffee-machine.td.json",
    "dice-box.td.json",
    "sensor-hub.td.json",
    "thermostat.td.json",
)

# Operations generated per client connection; the closed loop cycles them.
OPS_PER_CONNECTION = 4096
POOL_SIZE = 24

# Share of each operation kind in a request mix (weights, not percent).
FLEET_MIX = {"read": 65, "read_all": 5, "write": 12, "action": 10, "td": 5, "error": 3}
DEEP_MIX = {"read": 53, "write": 20, "action": 20, "td": 5, "error": 2}


# Every workload's events phase streams one event at this fixed interval.
EVENT_INTERVAL = 0.005


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    mix: dict
    event: tuple  # (thing title, event name) streamed in the events phase


WORKLOADS = {w.name: w for w in (
    Workload("fleet-mix", FLEET_MIX, ("Thermostat-42", "alarm")),
    Workload("deep-schema", DEEP_MIX, ("Deep-Thing", "digest")),
)}


def fixture_docs() -> list[dict]:
    return [json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8")) for name in FIXTURES]


def workload_tds(name: str, seed: int) -> list[dict]:
    """The TD documents a workload's servients load, in order."""
    return [deep_td(seed)] if name == "deep-schema" else fixture_docs()


# --- the generated deep TD ----------------------------------------------

_WORDS = [
    "amber", "basalt", "cobalt", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "jasper", "kelvin", "lumen", "magma", "nickel", "onyx", "prism",
    "quartz", "ridge", "sierra", "tundra", "umber", "vertex", "willow", "zenith",
]


def _leaf(rng: random.Random, kind: str) -> dict:
    if kind == "enum":
        return {"type": "string", "enum": rng.sample(_WORDS, 12)}
    if kind == "oneof":
        return {"oneOf": [
            {"type": "string", "enum": rng.sample(_WORDS, 12)},
            {"type": "integer", "minimum": 0, "maximum": 99},
        ]}
    if kind == "number":
        low = rng.randint(-500, 0)
        return {"type": "number", "minimum": low, "maximum": low + rng.randint(10, 900)}
    if kind == "integer":
        return {"type": "integer", "minimum": 0, "maximum": rng.randint(10, 10000)}
    return {"type": "array", "items": {"type": "number", "minimum": -1000, "maximum": 1000},
            "minItems": 8, "maxItems": 32}


def _node(rng: random.Random, depth: int) -> dict:
    """An object schema nesting arrays of objects ``depth`` levels deep.

    The shape is fixed and only names, enum members and bounds follow the
    seed, so the cost of a request does not depend on the workload seed.
    """
    kinds = ("enum", "series", "number") if depth else ("enum", "oneof", "series", "number", "integer")
    props = {f"{rng.choice(_WORDS)}{i}": _leaf(rng, kind) for i, kind in enumerate(kinds)}
    if depth:
        props[f"{rng.choice(_WORDS)}{len(kinds)}"] = {
            "type": "array", "items": _node(rng, depth - 1), "minItems": 2, "maxItems": 3}
    return {"type": "object", "properties": props, "required": sorted(props)[:2]}


def deep_td(seed: int) -> dict:
    """A Thing whose property bodies nest objects and arrays about 4 deep."""
    rng = random.Random(f"deep-td:{seed}")
    snapshot = _node(rng, 4)
    trend = _node(rng, 4)
    return {
        "@context": "https://www.w3.org/2019/wot/td/v1",
        "id": f"urn:dev:bench:deep-{seed}",
        "title": "Deep-Thing",
        "security": ["no"],
        "securityDefinitions": {"no": {"scheme": "nosec"}},
        "properties": {
            "snapshot": dict(snapshot, readOnly=True, forms=[{"href": "/p/snapshot"}]),
            "trend": dict(trend, readOnly=True, forms=[{"href": "/p/trend"}]),
            "layout": dict(_node(rng, 3), readOnly=True, forms=[{"href": "/p/layout"}]),
            "target": dict(snapshot, forms=[{"href": "/p/target"}]),
            "baseline": dict(trend, forms=[{"href": "/p/baseline"}]),
        },
        "actions": {
            "process": {"input": _node(rng, 2), "output": _node(rng, 3),
                        "forms": [{"href": "/a/process"}]},
        },
        "events": {
            "digest": {"data": _node(rng, 2), "forms": [{"href": "/e/digest"}]},
        },
    }


# --- the benchmark's own value generator --------------------------------


def draw(schema: dict, rng: random.Random):
    """A value conforming to a self-contained schema of the wotsim subset
    (a oneOf branch carries all its own constraints)."""
    if "const" in schema:
        return schema["const"]
    if "enum" in schema:
        return rng.choice(schema["enum"])
    if "oneOf" in schema:
        return draw(rng.choice(schema["oneOf"]), rng)
    kind = schema.get("type")
    if kind is None and ("minimum" in schema or "maximum" in schema):
        kind = "number"
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "integer":
        return rng.randint(int(schema.get("minimum", -100)), int(schema.get("maximum", 100)))
    if kind == "number":
        return round(rng.uniform(schema.get("minimum", -100.0), schema.get("maximum", 100.0)), 3)
    if kind == "string":
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 12)))
    if kind == "array":
        low = schema.get("minItems", 0)
        count = rng.randint(low, schema.get("maxItems", low + 3))
        return [draw(schema.get("items", {}), rng) for _ in range(count)]
    if kind == "object":
        return {k: draw(s, rng) for k, s in schema.get("properties", {}).items()}
    return None


# --- operation sequences --------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request with everything needed to check its answer.

    ``schema`` is the raw JSON schema a 2xx body must conform to: a dict of
    schemas for ``read_all``, the whole source TD for ``td``, None when the
    answer must be empty. ``owned`` marks a writable property only this
    connection writes, so a read of it must return the last value written.
    """

    kind: str
    method: str
    path: str
    body: bytes | None
    status: int
    schema: object = None
    prop: str | None = None
    value: object = None
    owned: bool = False


@dataclass
class _Targets:
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    things: list = field(default_factory=list)
    read_only: list = field(default_factory=list)


def _schema_of(affordance: dict) -> dict:
    return {k: v for k, v in affordance.items() if k != "forms"}


def _targets(docs: list[dict]) -> _Targets:
    t = _Targets()
    for doc in docs:
        seg = quote(doc["title"], safe="")
        t.things.append((seg, doc))
        props = doc.get("properties", {})
        if props:
            t.reads.append((f"/{seg}/properties", {n: _schema_of(p) for n, p in props.items()}, None))
        for name, prop in props.items():
            path = f"/{seg}/properties/{quote(name, safe='')}"
            t.reads.append((path, _schema_of(prop), f"{seg}/{name}"))
            if prop.get("readOnly"):
                t.read_only.append((path, _schema_of(prop)))
            elif "const" not in prop:
                t.writes.append((path, _schema_of(prop), f"{seg}/{name}"))
        for name, action in doc.get("actions", {}).items():
            t.actions.append((f"/{seg}/actions/{quote(name, safe='')}", action))
    return t


def _invalid_value(schema: dict):
    """A value every schema with a declared type or enum rejects."""
    if schema.get("type") == "object":
        return 12345
    return {"not": "conforming"}


def _encode(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def operations(docs: list[dict], mix: dict, seed: int, conn: int, conns: int) -> list[Op]:
    """The seeded operation sequence of one client connection.

    Writable properties are split between connections round-robin; each
    connection writes only its own, so read-after-write can be checked
    exactly without coordinating the two connections.
    """
    rng = random.Random(f"ops:{seed}:{conn}")
    t = _targets(docs)
    owned = {key for i, (_, _, key) in enumerate(t.writes) if i % conns == conn}
    pools = {}

    def pool(key, schema):
        if key not in pools:
            pool_rng = random.Random(f"pool:{seed}:{key}")
            pools[key] = [_encode(draw(schema, pool_rng)) for _ in range(POOL_SIZE)]
        return pools[key]

    kinds = list(mix)
    weights = [mix[k] for k in kinds]
    my_writes = [w for w in t.writes if w[2] in owned]
    single_reads = [r for r in t.reads if r[2] is not None]
    all_reads = [r for r in t.reads if r[2] is None]
    ops: list[Op] = []
    for kind in rng.choices(kinds, weights, k=OPS_PER_CONNECTION):
        if kind == "read":
            path, schema, key = rng.choice(single_reads)
            ops.append(Op("read", "GET", path, None, 200, schema, key, owned=key in owned))
        elif kind == "read_all":
            path, schemas, _ = rng.choice(all_reads)
            ops.append(Op("read_all", "GET", path, None, 200, schemas))
        elif kind == "write":
            path, schema, key = rng.choice(my_writes)
            body = rng.choice(pool(key, schema))
            ops.append(Op("write", "PUT", path, body, 204, None, key, json.loads(body), owned=True))
        elif kind == "action":
            path, action = rng.choice(t.actions)
            body = None
            if "input" in action:
                body = rng.choice(pool(path, action["input"]))
            status = 200 if "output" in action else 204
            ops.append(Op("action", "POST", path, body, status, action.get("output")))
        elif kind == "td":
            seg, doc = rng.choice(t.things)
            ops.append(Op("td", "GET", f"/{seg}", None, 200, doc))
        else:
            ops.append(_error_op(rng, t))
    return ops


def _error_op(rng: random.Random, t: _Targets) -> Op:
    choice = rng.randrange(3)
    if choice == 0 or not (t.read_only or t.writes):
        seg, _ = rng.choice(t.things)
        return Op("error", "GET", f"/{seg}/properties/no-such-property", None, 404)
    if choice == 1 and t.read_only:
        path, schema = rng.choice(t.read_only)
        return Op("error", "PUT", path, _encode(draw(schema, rng)), 405)
    path, schema, _ = rng.choice(t.writes)
    return Op("error", "PUT", path, _encode(_invalid_value(schema)), 400)
