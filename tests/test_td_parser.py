import json
import logging
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wotsim import (
    DataSchema,
    InvalidSchemaBounds,
    MISSING,
    MalformedJson,
    MissingTitle,
    NotAnObject,
    RandomSource,
    TypeMismatch,
    extract_schema,
    generate,
    is_present,
    parse_td,
    serialize_td,
)
from wotsim.td import MAX_JSON_DEPTH

from oracles import json_diff
from tdgen import random_td


class TestParseTd:
    def test_coffee_machine_fixture(self, coffee_td):
        td = coffee_td
        assert td.title == "Coffee-Machine"
        assert td.id == "urn:dev:org:esitum-CoffeeMachine-001"
        assert td.description == "A WoT enabled coffee machine"
        assert td.base == "http://10.0.0.1/coffee-machine"
        assert td.context == "https://www.w3.org/2019/wot/td/v1"
        assert list(td.properties) == ["state"]
        assert list(td.actions) == ["brew"]
        assert list(td.events) == ["error"]

        state = td.properties["state"]
        assert state.data_schema.type == "string"
        assert state.data_schema.enum_values == ("Ready", "Brewing", "Error")
        assert not state.read_only
        assert state.forms[0].href == "/properties/state"

        brew = td.actions["brew"]
        assert brew.input is not None
        assert brew.input.enum_values == ("espresso", "cappuccino")
        assert brew.output is None

        assert td.events["error"].data == DataSchema(type="string")

    def test_minimal_td(self):
        td = parse_td('{"title": "T"}')
        assert td.title == "T"
        assert td.properties == {} and td.actions == {} and td.events == {}
        assert not is_present(td.base)
        assert not is_present(td.id)

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_td('{"title": "T",}')

    def test_nan_rejected(self):
        with pytest.raises(MalformedJson):
            parse_td('{"title": "T", "x": NaN}')
        with pytest.raises(MalformedJson):
            parse_td('{"title": "T", "x": Infinity}')

    @pytest.mark.parametrize("text", [
        '{"title": "T", "x": "\\ud800"}',
        '{"title": "T", "x": ["a\\uDC00b"]}',
        '{"title": "T", "\\udbff": 1}',
        '{"title": "T", "x": "\ud800"}',
    ])
    def test_lone_surrogate_rejected(self, text):
        with pytest.raises(MalformedJson, match="lone surrogate"):
            parse_td(text)

    def test_surrogate_pair_and_escaped_backslash_accepted(self):
        td = parse_td('{"title": "T \\ud83d\\ude00", "x": "\\\\ud800"}')
        assert td.title == "T \U0001f600" and td.extra["x"] == "\\ud800"

    @pytest.mark.parametrize("bound", ["1e999", "-1e999"])
    def test_overflowing_number_rejected(self, bound):
        text = '{"title": "T", "properties": {"p": {"type": "number", "maximum": %s}}}'
        with pytest.raises(MalformedJson):
            parse_td(text % bound)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="integer string conversion is unlimited")
    def test_integer_beyond_conversion_limit_is_malformed(self):
        with pytest.raises(MalformedJson):
            parse_td('{"title": "T", "x": %s}' % ("9" * 5000))

    def test_nesting_beyond_the_cap_is_malformed(self):
        schema = {"type": "integer"}
        for _ in range(MAX_JSON_DEPTH):
            schema = {"type": "array", "items": schema}
        with pytest.raises(MalformedJson, match="nested deeper"):
            parse_td(json.dumps({"title": "T", "properties": {"p": schema}}))

    def test_top_level_not_object(self):
        with pytest.raises(NotAnObject):
            parse_td('["title"]')

    @pytest.mark.parametrize("text", [
        '{"@context": "c", "properties": {}}',
        '{"title": ""}',
        '{"title": 7}',
    ])
    def test_missing_title(self, text):
        with pytest.raises(MissingTitle):
            parse_td(text)

    def test_duplicate_member_last_wins(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wotsim.td"):
            td = parse_td('{"title": "A", "title": "B"}')
        assert td.title == "B"
        assert any("duplicate" in r.message for r in caplog.records)

    def test_section_must_be_object(self):
        with pytest.raises(TypeMismatch):
            parse_td('{"title": "T", "properties": [1, 2]}')

    def test_bytes_input(self, coffee_text):
        assert parse_td(coffee_text.encode("utf-8")).title == "Coffee-Machine"

    def test_wrong_typed_base_kept_verbatim(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wotsim.td"):
            td = parse_td('{"title": "T", "base": 7}')
        assert not is_present(td.base)
        assert json.loads(serialize_td(td))["base"] == 7

    def test_missing_context_and_security_warn_only(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wotsim.td"):
            td = parse_td('{"title": "T"}')
        assert td.title == "T"
        joined = " ".join(r.getMessage() for r in caplog.records)
        assert "@context" in joined and "security" in joined


class TestExtractSchema:
    def test_table_keys_only(self):
        schema = extract_schema({
            "type": "string",
            "enum": ["Ready", "Brewing", "Error"],
            "forms": [{"href": "/properties/state"}],
            "readOnly": True,
            "format": "who-knows",
        })
        assert schema == DataSchema(
            type="string", enum_values=("Ready", "Brewing", "Error")
        )

    def test_empty_object_gives_empty_schema(self):
        assert extract_schema({}) == DataSchema()

    def test_nested_array(self):
        schema = extract_schema({
            "type": "array",
            "items": {"type": "integer", "minimum": 1, "maximum": 3},
            "minItems": 2,
            "maxItems": 2,
        })
        assert schema.items.type == "integer"
        assert schema.min_items == schema.max_items == 2
        # Every generated value must be a 2-element array of integers in [1, 3].
        rng = RandomSource(99)
        for _ in range(100):
            value = generate(schema, rng)
            assert isinstance(value, list) and len(value) == 2
            assert all(isinstance(v, int) and 1 <= v <= 3 for v in value)

    def test_one_of_recursion(self):
        schema = extract_schema({
            "oneOf": [{"type": "string"}, {"type": "integer", "minimum": 0}]
        })
        assert len(schema.one_of) == 2
        assert schema.one_of[1].minimum == 0

    @pytest.mark.parametrize("doc", [
        {"enum": "Ready"},
        {"enum": []},
        {"oneOf": []},
        {"oneOf": {"type": "string"}},
        {"type": "tuple"},
        {"type": 3},
        {"minimum": "low"},
        {"items": [1]},
        {"properties": ["a"]},
        {"required": "a"},
        {"minItems": 1.5},
    ])
    def test_type_mismatch(self, doc):
        with pytest.raises(TypeMismatch):
            extract_schema(doc)

    @pytest.mark.parametrize("doc", [
        {"minimum": 5, "maximum": 4},
        {"type": "array", "minItems": 3, "maxItems": 1},
        {"type": "array", "minItems": -1},
    ])
    def test_bounds_rejected(self, doc):
        with pytest.raises(InvalidSchemaBounds):
            extract_schema(doc)

    def test_required_not_in_properties_warns_and_keeps_name(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wotsim.td"):
            schema = extract_schema({
                "type": "object",
                "properties": {"a": {"type": "boolean"}},
                "required": ["a", "ghost"],
            })
        assert "ghost" in schema.required
        assert any("generated as null" in r.getMessage() for r in caplog.records)
        value = generate(schema, RandomSource(3))
        assert value["ghost"] is None
        assert isinstance(value["a"], bool)


class TestSerializeTd:
    def test_round_trip_coffee_machine(self, coffee_text):
        first = parse_td(coffee_text)
        second = parse_td(serialize_td(first))
        assert first == second

    def test_serialization_preserves_document(self, coffee_text):
        assert json_diff(json.loads(coffee_text),
                         json.loads(serialize_td(parse_td(coffee_text)))) == []

    def test_minimal_output(self):
        assert json.loads(serialize_td(parse_td('{"title": "T"}'))) == {"title": "T"}

    def test_member_order(self, coffee_text):
        keys = list(json.loads(serialize_td(parse_td(coffee_text))))
        assert keys == ["@context", "id", "title", "description", "security",
                        "securityDefinitions", "base", "properties", "actions",
                        "events"]

    def test_unrecognized_top_level_member_preserved(self):
        text = '{"title": "T", "custom": {"a": [1, 2.5, null]}, "links": []}'
        td = parse_td(text)
        assert td.extra["custom"] == {"a": [1, 2.5, None]}
        assert json_diff(json.loads(text), json.loads(serialize_td(td))) == []

    def test_unrecognized_affordance_member_preserved(self):
        text = ('{"title": "T", "properties": {"p": {"type": "string", '
                '"unit": "furlong", "forms": [{"href": "/properties/p"}]}}}')
        round_tripped = json.loads(serialize_td(parse_td(text)))
        assert round_tripped["properties"]["p"]["unit"] == "furlong"

    def test_explicit_empty_sections_survive(self):
        text = '{"title": "T", "properties": {}, "events": {}}'
        doc = json.loads(serialize_td(parse_td(text)))
        assert doc == {"title": "T", "properties": {}, "events": {}}

    def test_absent_sections_stay_absent(self):
        doc = json.loads(serialize_td(parse_td('{"title": "T"}')))
        assert "properties" not in doc and "actions" not in doc

    def test_indent_flag(self, coffee_text):
        compact = serialize_td(parse_td(coffee_text))
        pretty = serialize_td(parse_td(coffee_text), indent=2)
        assert json.loads(compact) == json.loads(pretty)
        assert "\n" in pretty


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_tds(seed):
    doc = random_td(random.Random(seed), index=seed % 1000)
    text = json.dumps(doc, ensure_ascii=False)
    first = parse_td(text)
    second = parse_td(serialize_td(first))
    assert first == second
    assert json_diff(doc, json.loads(serialize_td(first))) == []
