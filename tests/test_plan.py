"""Schemas are prepared once: seeded output is pinned, draws do no schema work,
and a schema that can never be satisfied is refused when its Thing loads."""

import copy
import hashlib
import json
import logging
import random

import pytest

import wotsim.generator
from wotsim import (
    DataSchema,
    EventMode,
    RandomSource,
    ServientConfig,
    Unsatisfiable,
    VirtualThing,
    extract_schema,
    generate,
    minimal_value,
    parse_td,
)
from wotsim import cli
from wotsim.cli import main
from wotsim.generator import DEPTH_CAP

from conftest import corpus_paths, free_port
from tdgen import random_schema

# sha256 of every outcome below, recorded with the generator that re-derived
# each schema on every draw. Any change to a draw sequence changes it.
OUTPUT_DIGEST = "c3a7eedec51f7b4fe23caa838c9f45e5a866b902245e6b5ad0379fdbc24dc423"

SEEDS = (0, 7, 2**63 + 11)
DRAWS = 6


def _nested(levels: int, leaf: dict) -> dict:
    """Arrays of objects nesting `levels` containers around a leaf schema."""
    doc = leaf
    for level in range(levels):
        if level % 2:
            doc = {"type": "array", "items": doc, "minItems": 1, "maxItems": 2}
        else:
            doc = {"type": "object", "properties": {"v": doc, "n": {"type": "integer"}},
                   "required": ["v"]}
    return doc


UNSATISFIABLE_INTEGER = {"type": "integer", "minimum": 0.2, "maximum": 0.8}

HAND_WRITTEN = [
    # oneOf branches that raise part-way through a draw, after using the source
    {"oneOf": [
        {"type": "object", "properties": {
            "a": {"type": "integer"}, "b": UNSATISFIABLE_INTEGER}},
        {"type": "string"},
    ]},
    {"oneOf": [
        {"type": "array", "minItems": 1, "items": {"type": "integer", "enum": ["x"]}},
        {"type": "array", "items": {"oneOf": [{"type": "string", "const": 1},
                                              {"type": "boolean"}]}},
        {"type": "null"},
    ]},
    {"type": "object", "oneOf": [
        {"properties": {"k": {"type": "string", "enum": [1, 2]}}, "required": ["k"]},
        {"properties": {"k": {"type": "integer", "maximum": 3}}},
    ]},
    {"type": "integer", "oneOf": [{"type": "number", "minimum": 0.2, "maximum": 0.9},
                                  {"minimum": 4, "maximum": 6}]},
    # nothing can be drawn
    {"type": "string", "const": 3},
    {"type": "integer", "enum": ["a", "b"]},
    UNSATISFIABLE_INTEGER,
    {"type": "integer", "oneOf": [{"type": "string"}]},
    {"type": "array", "minItems": 2, "items": UNSATISFIABLE_INTEGER},
    # deeper than the depth cap
    _nested(2 * DEPTH_CAP + 3, {"type": "integer", "minimum": 0, "maximum": 3}),
    _nested(DEPTH_CAP + 1, {"oneOf": [_nested(3, {"type": "boolean"}),
                                      {"enum": ["shallow", 5]}]}),
    {"type": "array", "minItems": 1, "maxItems": 1, "items": {"oneOf": [
        _nested(DEPTH_CAP + 2, {"type": "string"}), {"type": "number"}]}},
    {},
    {"type": "array"},
    {"minimum": 1, "maximum": 2},
    {"const": {"a": [1, {"b": None}]}},
]


def _fixture_schemas() -> list[DataSchema]:
    schemas = []
    for path in corpus_paths():
        td = parse_td(path.read_text(encoding="utf-8"))
        schemas += [p.data_schema for p in td.properties.values()]
        for action in td.actions.values():
            schemas += [s for s in (action.input, action.output) if s is not None]
        schemas += [e.data for e in td.events.values() if e.data is not None]
    return schemas


def corpus() -> list[DataSchema]:
    docs = [random_schema(random.Random(seed), depth=4) for seed in range(300)]
    docs += [_nested(5, random_schema(random.Random(seed), depth=2)) for seed in range(2)]
    docs += HAND_WRITTEN
    return [extract_schema(doc) for doc in docs] + _fixture_schemas()


def _outcome(fn) -> str:
    try:
        return json.dumps(fn())
    except Unsatisfiable as exc:
        return f"Unsatisfiable: {exc}"


def test_seeded_output_digest():
    digest = hashlib.sha256()
    for schema in corpus():
        for seed in SEEDS:
            rng = RandomSource(seed)
            for _ in range(DRAWS):
                digest.update(_outcome(lambda: generate(schema, rng)).encode())
            digest.update(_outcome(lambda: generate(schema, rng, DEPTH_CAP)).encode())
        digest.update(_outcome(lambda: minimal_value(schema)).encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


# --- no schema work per draw ---------------------------------------------------

NESTED_TD = json.dumps({
    "title": "Nested",
    "properties": {
        "pick": {"type": "object", "properties": {
            "mode": {"type": "string", "enum": ["a", "b", 3]},
            "fixed": {"const": [1, 2]},
            "either": {"type": "integer", "oneOf": [{"minimum": 0, "maximum": 5},
                                                    {"type": "string"}]},
        }, "forms": [{"href": "/p"}]},
        "deep": dict(_nested(DEPTH_CAP + 4, {"oneOf": [{"enum": [1, 2]}, {"type": "null"}]}),
                     forms=[{"href": "/d"}]),
    },
    "actions": {"choose": {"input": {"type": "string", "enum": ["x", "y"]},
                           "output": {"oneOf": [{"const": "ok"}, {"enum": [1, 2]}]},
                           "forms": [{"href": "/a"}]}},
    "events": {"tick": {"data": {"type": "string", "enum": ["t", "u"]},
                        "forms": [{"href": "/e"}]}},
})


def _config() -> ServientConfig:
    return ServientConfig(port=9099, seed=5, event_mode=EventMode.none())


def test_draws_from_a_loaded_thing_run_no_schema_work(monkeypatch):
    texts = [path.read_text(encoding="utf-8") for path in corpus_paths()] + [NESTED_TD]
    things = [VirtualThing(parse_td(text), _config()) for text in texts]
    inputs = {(thing.title, name): generate(action.input, RandomSource(1))
              for thing in things for name, action in thing.original_td.actions.items()
              if action.input is not None}
    calls = {"validate": 0, "merge_branch": 0}

    def counted(name):
        original = getattr(wotsim.generator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(wotsim.generator, name, wrapper)

    counted("validate")
    counted("merge_branch")
    for _ in range(5):
        for thing in things:
            thing.read_all_properties()
            for name in thing.original_td.actions:
                key = (thing.title, name)
                if key in inputs:
                    thing.invoke_action(name, inputs[key])
                else:
                    thing.invoke_action(name)
            for name in thing.original_td.events:
                thing.emit_event(name)
    assert calls == {"validate": 0, "merge_branch": 0}


def test_untyped_schema_warns_once_at_load(caplog):
    text = json.dumps({"title": "Vague", "properties": {
        "anything": {"forms": [{"href": "/p"}]}}})
    with caplog.at_level(logging.WARNING, logger="wotsim.generator"):
        thing = VirtualThing(parse_td(text), _config())
        for _ in range(3):
            assert thing.read_property("anything") is None
    assert sum("generating null" in r.getMessage() for r in caplog.records) == 1


# --- unsatisfiable schemas are refused at load ---------------------------------

def _td(**sections) -> str:
    return json.dumps({"title": "Broken", **sections})


# Every draw from these fails part-way, after using the random source.
ALWAYS_FAILING = {
    "member": {"type": "object", "properties": {"a": UNSATISFIABLE_INTEGER}},
    "items": {"type": "array", "minItems": 2, "items": UNSATISFIABLE_INTEGER},
}

SOMETIMES_FAILING = {
    "array of any length": {"type": "array", "items": UNSATISFIABLE_INTEGER},
    "oneOf failing part-way": HAND_WRITTEN[0],
}

UNSATISFIABLE_TDS = {
    "property 'level'": _td(properties={
        "level": dict(UNSATISFIABLE_INTEGER, forms=[{"href": "/p"}])}),
    **{f"property {name!r}": _td(properties={name: dict(doc, forms=[{"href": "/p"}])})
       for name, doc in ALWAYS_FAILING.items()},
    "action 'go'": _td(actions={
        "go": {"output": {"type": "string", "const": 3}, "forms": [{"href": "/a"}]}}),
    "event 'alarm'": _td(events={
        "alarm": {"data": {"type": "integer", "enum": ["a"]}, "forms": [{"href": "/e"}]}}),
}


@pytest.mark.parametrize("affordance", sorted(UNSATISFIABLE_TDS))
def test_thing_with_unsatisfiable_schema_is_refused(affordance):
    with pytest.raises(Unsatisfiable, match=affordance):
        VirtualThing(parse_td(UNSATISFIABLE_TDS[affordance]), _config())


@pytest.mark.parametrize("case", sorted(SOMETIMES_FAILING))
def test_schema_whose_draws_can_succeed_loads(case):
    text = _td(properties={"maybe": dict(SOMETIMES_FAILING[case], forms=[{"href": "/p"}])})
    assert "maybe" in VirtualThing(parse_td(text), _config()).original_td.properties


@pytest.mark.parametrize("depth", [0, DEPTH_CAP])
def test_certain_failure_agrees_with_seeded_draws(depth):
    extra = list(ALWAYS_FAILING.values()) + list(SOMETIMES_FAILING.values())
    for schema in corpus() + [extract_schema(doc) for doc in extra]:
        failure = wotsim.generator.prepare(schema).certain_failure(depth)
        succeeded = 0
        for seed in range(50):
            try:
                generate(schema, RandomSource(seed), depth)
                succeeded += 1
            except Unsatisfiable:
                pass
        assert (succeeded == 0) == (failure is not None), (schema, failure, succeeded)


def test_sometimes_failing_schema_still_loads():
    text = _td(properties={"maybe": {"type": "array", "minItems": 0, "maxItems": 2,
                                     "items": UNSATISFIABLE_INTEGER,
                                     "forms": [{"href": "/p"}]}})
    thing = VirtualThing(parse_td(text), _config())
    outcomes = set()
    for _ in range(30):
        try:
            outcomes.add(json.dumps(thing.read_property("maybe")))
        except Unsatisfiable:
            outcomes.add("unsatisfiable")
    assert outcomes == {"[]", "unsatisfiable"}


def test_run_refuses_unsatisfiable_td_before_binding(tmp_path, monkeypatch, capsys):
    def bind(things, config):
        raise AssertionError("the servient was bound")

    monkeypatch.setattr(cli, "serve", bind)
    path = tmp_path / "broken.td.json"
    path.write_text(UNSATISFIABLE_TDS["property 'level'"])
    code = main(["run", str(path), "--port", str(free_port()), "--event-mode", "none"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and "property 'level'" in err


# --- fixed members are drawn fresh, and nothing is copied ----------------------

def test_container_members_are_fresh_and_scalars_are_not_copied(monkeypatch):
    copies = []
    original = copy.deepcopy

    def counted(value, *args):
        copies.append(value)
        return original(value, *args)

    monkeypatch.setattr(copy, "deepcopy", counted)
    for doc in ({"enum": ["a", 2, None, True]}, {"const": "x"}, {"const": 1.5}):
        rng = RandomSource(3)
        [generate(extract_schema(doc), rng) for _ in range(20)]
    assert copies == []

    for doc in ({"enum": [[1], {"a": [2]}, "s", 3]}, {"const": {"a": [1]}}):
        schema, rng = extract_schema(doc), RandomSource(3)
        draws = [generate(schema, rng) for _ in range(30)]
        texts = [json.dumps(value) for value in draws]
        containers = [value for value in draws if isinstance(value, (list, dict))]
        assert containers and len({id(value) for value in containers}) == len(containers)
        for value in containers:
            value.clear()  # emptying a drawn value must not empty the member
        rng = RandomSource(3)
        assert [json.dumps(generate(schema, rng)) for _ in range(30)] == texts
    assert copies == []


# --- minimal values are built fresh, not copied --------------------------------

MINIMAL_CASES = {
    "object": {"type": "object", "required": ["a", "b"], "properties": {
        "a": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
        "b": {"type": "string"}}},
    "array": {"type": "array", "minItems": 2, "items": {
        "type": "object", "properties": {"x": {"type": "boolean"}}, "required": ["x"]}},
    "oneOf": {"oneOf": [
        {"type": "object", "required": ["deep"], "properties": {"deep": {
            "type": "object", "properties": {"n": {"type": "null"}}, "required": ["n"]}}},
        {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 0}},
    ]},
}


def _empty(value):
    """Empty a container and every container inside it."""
    for member in list(value.values() if isinstance(value, dict) else value):
        if isinstance(member, (list, dict)):
            _empty(member)
    value.clear()


@pytest.mark.parametrize("case", sorted(MINIMAL_CASES))
def test_minimal_values_are_built_fresh_without_copying(case, monkeypatch):
    copies = []
    original = copy.deepcopy

    def counted(value, *args):
        copies.append(value)
        return original(value, *args)

    monkeypatch.setattr(copy, "deepcopy", counted)
    schema = extract_schema(MINIMAL_CASES[case])
    for build in (lambda: minimal_value(schema),
                  lambda: generate(schema, RandomSource(3), DEPTH_CAP)):
        first, second = build(), build()
        assert first == second and first is not second
        text = json.dumps(second)
        _empty(first)
        assert json.dumps(build()) == text and json.dumps(second) == text
    assert copies == []
