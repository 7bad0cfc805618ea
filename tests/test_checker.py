"""Each schema's checker is compiled once: violations are pinned, a loaded
Thing compiles nothing per request, and checking never touches the generator."""

import hashlib
import json
import logging
import random

import wotsim.validator
from wotsim import (
    DataSchema,
    EventMode,
    RandomSource,
    ServientConfig,
    Unsatisfiable,
    ValidationFailed,
    VirtualThing,
    extract_schema,
    generate,
    parse_td,
    validate,
)

from conftest import corpus_paths
from oracles import _JUNK, _mutate_once
from test_plan import NESTED_TD, SEEDS, corpus

# sha256 of the violations below, recorded with the validator that walked every
# keyword of the raw schema on each value. Any change to a violation's order,
# path, rule or detail changes it.
VIOLATION_DIGEST = "4011a458f24a1cb89f65b7c03fc9d606a14b6dab20055fea581a4d5f9be0a9e7"

DRAWS = 3
MUTANTS = 4


def _mutate_deep(value, rng: random.Random):
    """A copy of the value mutated at a randomly chosen depth."""
    if isinstance(value, dict) and value and rng.random() < 0.7:
        key = rng.choice(sorted(value))
        return {**value, key: _mutate_deep(value[key], rng)}
    if isinstance(value, list) and value and rng.random() < 0.7:
        index = rng.randrange(len(value))
        return value[:index] + [_mutate_deep(value[index], rng)] + value[index + 1:]
    return _mutate_once(value, rng)


def _values(schema: DataSchema) -> list:
    """Seeded conforming draws, mutants of each and plain junk."""
    values = list(_JUNK)
    for seed in SEEDS:
        rng, mutator = RandomSource(seed), random.Random(seed)
        for _ in range(DRAWS):
            try:
                drawn = generate(schema, rng)
            except Unsatisfiable:
                continue
            values.append(drawn)
            values += [_mutate_deep(drawn, mutator) for _ in range(MUTANTS)]
    return values


def test_violation_digest():
    digest = hashlib.sha256()
    for schema in corpus():
        for value in _values(schema):
            found = [v.as_dict() for v in validate(schema, value).violations]
            digest.update(json.dumps(found).encode())
    assert digest.hexdigest() == VIOLATION_DIGEST


# --- no compiling per request ----------------------------------------------------

def test_writes_and_inputs_of_a_loaded_thing_compile_no_checker(monkeypatch):
    compiled = []
    original = wotsim.validator._compile

    def counted(schema):
        compiled.append(schema)
        return original(schema)

    monkeypatch.setattr(wotsim.validator, "_compile", counted)
    config = ServientConfig(port=9099, seed=5, event_mode=EventMode.none())
    texts = [path.read_text(encoding="utf-8") for path in corpus_paths()] + [NESTED_TD]
    things = [VirtualThing(parse_td(text), config) for text in texts]
    assert compiled, "loading compiles the checkers"
    writes = [(thing, name, value) for thing in things
              for name, prop in thing.original_td.properties.items() if not prop.read_only
              for value in (thing.read_property(name), {"__junk__": [1]}, None)]
    inputs = [(thing, name, value) for thing in things
              for name, action in thing.original_td.actions.items() if action.input is not None
              for value in (generate(action.input, RandomSource(3)), "junk", [])]
    compiled.clear()
    for thing, name, value in writes:
        try:
            thing.write_property(name, value)
        except ValidationFailed:
            pass
    for thing, name, value in inputs:
        try:
            thing.invoke_action(name, value)
        except ValidationFailed:
            pass
    assert compiled == []


def test_checking_prepares_no_plan(caplog):
    """Raw oneOf branches and schemas that only describe inputs are checked,
    never drawn from, so checking them builds no plan and logs no warning."""
    untyped_branch = extract_schema({"oneOf": [{"minimum": 1}, {"required": ["a"]}]}).one_of[1]
    with caplog.at_level(logging.WARNING, logger="wotsim.generator"):
        assert not validate(untyped_branch, {}).valid
        assert validate(DataSchema(), None).valid
    assert not [r for r in caplog.records if r.name == "wotsim.generator"]
    assert untyped_branch.plan is None and untyped_branch.checker is not None


# --- the pass/fail form agrees with the collecting checker -------------------------

class _Int(int):
    pass


class _Str(str):
    pass


# Values that only an exact type test or an inline bound test could get wrong.
EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), True, False, _Int(3), _Int(-999),
               _Str("heat"), _Str("north"), 2.0, -0.0, 10**30, "Ready"]


def _planted(value, edge, rng: random.Random):
    """A copy of the value with one randomly chosen leaf replaced by `edge`."""
    if isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        return {**value, key: _planted(value[key], edge, rng)}
    if isinstance(value, list) and value:
        index = rng.randrange(len(value))
        return value[:index] + [_planted(value[index], edge, rng)] + value[index + 1:]
    return edge


def test_conforms_agrees_with_the_violations_found():
    checked = {True: 0, False: 0}
    for schema in corpus():
        check = wotsim.validator.compile_checker(schema)
        rng = random.Random(1)
        values = _values(schema)
        values += EDGE_VALUES + [_planted(v, edge, rng) for v in values for edge in EDGE_VALUES]
        for value in values:
            conforms = check.conforms(value)
            assert conforms == (not wotsim.validator._violations(check, value)), (schema, value)
            checked[conforms] += 1
    assert min(checked.values()) > 1000, checked


def test_nan_conforms_to_bounds_as_the_collector_says():
    schema = extract_schema({"type": "number", "minimum": 10, "maximum": 25})
    assert wotsim.validator.compile_checker(schema).conforms(float("nan"))
    assert validate(schema, float("nan")).valid
    assert not wotsim.validator.compile_checker(schema).conforms(float("inf"))
