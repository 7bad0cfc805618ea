import json
import logging
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wotsim import (
    DataSchema,
    RandomSource,
    Unsatisfiable,
    extract_schema,
    generate,
    minimal_value,
    validate,
)
from wotsim.generator import generate_json
from wotsim.td import json_text

from tdgen import random_schema


def draws(doc, seed, count):
    schema = extract_schema(doc)
    rng = RandomSource(seed)
    return [generate(schema, rng) for _ in range(count)]


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a, b = RandomSource(42), RandomSource(42)
        assert [a.randint(0, 10**9) for _ in range(20)] == [
            b.randint(0, 10**9) for _ in range(20)
        ]

    def test_seed_masked_to_64_bits(self):
        big = RandomSource(2**64 + 5)
        assert big.seed == 5

    def test_derive_is_stable_and_label_dependent(self):
        first = RandomSource(7).derive("thing:X")
        second = RandomSource(7).derive("thing:X")
        other = RandomSource(7).derive("thing:Y")
        assert first.seed == second.seed
        assert first.seed != other.seed

    def test_unseeded_sources_differ(self):
        assert RandomSource().seed != RandomSource().seed


class TestPrecedence:
    def test_const_wins(self):
        values = draws({"const": "x", "enum": ["x", "y"], "type": "string"}, 1, 20)
        assert values == ["x"] * 20

    def test_const_is_copied_not_shared(self):
        schema = extract_schema({"const": {"a": [1]}})
        rng = RandomSource(0)
        one = generate(schema, rng)
        one["a"].append(2)
        assert generate(schema, rng) == {"a": [1]}

    def test_enum_only_conforming_members(self):
        values = draws({"type": "integer", "enum": [1, "one", 2]}, 5, 200)
        assert set(values) == {1, 2}

    def test_enum_conflict_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            draws({"type": "integer", "enum": ["a", "b"]}, 0, 1)

    def test_const_conflict_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            draws({"type": "string", "const": 3}, 0, 1)


class TestUnconstrainedDefaults:
    def test_integer_range(self):
        values = draws({"type": "integer"}, 11, 500)
        assert all(isinstance(v, int) and not isinstance(v, bool) for v in values)
        assert all(-128 <= v <= 127 for v in values)
        assert min(values) < -100 and max(values) > 100  # spans the window

    def test_number_range_and_rounding(self):
        values = draws({"type": "number"}, 12, 500)
        assert all(isinstance(v, float) for v in values)
        assert all(-100.0 <= v <= 100.0 for v in values)
        assert all(round(v, 6) == v for v in values)

    def test_string_shape(self):
        values = draws({"type": "string"}, 13, 200)
        assert all(4 <= len(v) <= 16 for v in values)
        assert all(c.islower() and c.isascii() and c.isalpha()
                   for v in values for c in v)

    def test_boolean_both_sides(self):
        assert set(draws({"type": "boolean"}, 14, 100)) == {False, True}

    def test_null(self):
        assert draws({"type": "null"}, 15, 5) == [None] * 5

    def test_array_default_lengths(self):
        values = draws({"type": "array", "items": {"type": "boolean"}}, 16, 200)
        lengths = {len(v) for v in values}
        assert lengths <= set(range(0, 6)) and len(lengths) > 2


class TestBounds:
    def test_two_sided_integers(self):
        values = draws({"type": "integer", "minimum": 5, "maximum": 8}, 21, 200)
        assert set(values) <= {5, 6, 7, 8}
        assert len(set(values)) == 4

    def test_degenerate_range(self):
        assert draws({"type": "integer", "minimum": 5, "maximum": 5}, 0, 10) == [5] * 10

    def test_empty_integral_range_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            draws({"type": "integer", "minimum": 5.1, "maximum": 5.9}, 0, 1)

    def test_one_sided_window_inside_defaults(self):
        values = draws({"type": "integer", "minimum": 100}, 22, 300)
        assert all(100 <= v <= 127 for v in values)
        values = draws({"type": "integer", "maximum": -100}, 23, 300)
        assert all(-128 <= v <= -100 for v in values)

    def test_one_sided_window_follows_extreme_bound(self):
        values = draws({"type": "integer", "minimum": 1000}, 24, 300)
        assert all(1000 <= v <= 1256 for v in values)
        values = draws({"type": "integer", "maximum": -1000}, 25, 300)
        assert all(-1256 <= v <= -1000 for v in values)

    def test_narrow_float_range_stays_inside(self):
        doc = {"type": "number", "minimum": 0.12345671, "maximum": 0.12345672}
        for v in draws(doc, 26, 100):
            assert 0.12345671 <= v <= 0.12345672

    def test_range_wider_than_a_double_stays_inside(self):
        values = draws({"type": "number", "minimum": -1e308, "maximum": 1e308}, 29, 300)
        assert all(-1e308 <= v <= 1e308 for v in values)
        assert min(values) < -1e307 and max(values) > 1e307  # spans the range

    # An integer literal past a double's range, which JSON decodes as an int.
    HUGE = 10**400

    def test_bound_past_the_largest_double_is_clamped(self):
        top = sys.float_info.max
        assert draws({"type": "number", "maximum": self.HUGE}, 30, 5) == [top] * 5
        assert draws({"type": "number", "minimum": -self.HUGE}, 30, 5) == [-top] * 5
        values = draws({"type": "number", "minimum": 0, "maximum": self.HUGE}, 31, 300)
        assert all(0 <= v <= top for v in values) and max(values) > 1e307
        values = draws({"minimum": -self.HUGE, "maximum": self.HUGE}, 32, 300)
        assert all(-top <= v <= top for v in values)
        assert min(values) < -1e307 and max(values) > 1e307

    @pytest.mark.parametrize("doc", [{"type": "number", "minimum": HUGE},
                                     {"maximum": -HUGE},
                                     {"type": "number", "minimum": HUGE, "maximum": HUGE * 10}])
    def test_range_past_the_largest_double_is_unsatisfiable(self, doc):
        with pytest.raises(Unsatisfiable, match="no double"):
            draws(doc, 33, 1)

    def test_bounds_without_type_give_numbers(self):
        values = draws({"minimum": 3, "maximum": 4}, 27, 50)
        assert all(isinstance(v, float) and 3 <= v <= 4 for v in values)

    def test_fractional_integer_bounds(self):
        values = draws({"type": "integer", "minimum": 1.5, "maximum": 3.5}, 28, 100)
        assert set(values) <= {2, 3}


class TestContainers:
    def test_object_has_every_described_property(self):
        doc = {
            "type": "object",
            "properties": {
                "must": {"type": "boolean"},
                "extra": {"type": "string"},
            },
            "required": ["must"],
        }
        for value in draws(doc, 31, 50):
            assert set(value) == {"must", "extra"}

    def test_array_respects_item_bounds(self):
        doc = {
            "type": "array",
            "items": {"type": "integer", "minimum": 0, "maximum": 1},
            "minItems": 2,
            "maxItems": 4,
        }
        for value in draws(doc, 32, 100):
            assert 2 <= len(value) <= 4
            assert set(value) <= {0, 1}

    def test_min_items_without_max(self):
        doc = {"type": "array", "items": {"type": "null"}, "minItems": 3}
        lengths = {len(v) for v in draws(doc, 33, 200)}
        assert lengths <= set(range(3, 9))


class TestDepthCap:
    def _nested_array_doc(self, levels):
        doc = {"type": "integer", "minimum": 0, "maximum": 1}
        for _ in range(levels):
            doc = {"type": "array", "items": doc, "minItems": 1, "maxItems": 2}
        return doc

    def test_deep_schema_terminates_and_conforms(self):
        doc = self._nested_array_doc(14)
        schema = extract_schema(doc)
        value = generate(schema, RandomSource(41))
        assert validate(schema, value).valid

    def test_array_degrades_to_empty_at_cap(self):
        schema = extract_schema({"type": "array", "items": {"type": "string"}})
        assert generate(schema, RandomSource(0), depth=99) == []

    def test_object_degrades_to_required_only_at_cap(self):
        schema = extract_schema({
            "type": "object",
            "properties": {"a": {"type": "boolean"}, "b": {"type": "string"}},
            "required": ["a"],
        })
        value = generate(schema, RandomSource(0), depth=99)
        assert set(value) == {"a"}


class TestOneOf:
    def test_sibling_constraints_prune_branches(self):
        doc = {
            "type": "integer",
            "oneOf": [
                {"minimum": 10, "maximum": 12},
                {"type": "string"},
            ],
        }
        values = draws(doc, 51, 200)
        assert all(isinstance(v, int) and 10 <= v <= 12 for v in values)

    def test_all_branches_dead_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            draws({"type": "integer", "oneOf": [{"type": "string"}]}, 0, 1)

    def test_branch_variety(self):
        doc = {"oneOf": [{"const": "left"}, {"const": "right"}]}
        assert set(draws(doc, 52, 100)) == {"left", "right"}

    def test_number_branch_narrowed_to_integer(self):
        doc = {"type": "integer",
               "oneOf": [{"type": "number", "minimum": 0.2, "maximum": 2.8}]}
        values = draws(doc, 53, 100)
        assert set(values) <= {1, 2}


class TestEmptySchema:
    def test_generates_null_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wotsim.generator"):
            value = generate(DataSchema(), RandomSource(0))
        assert value is None
        assert any("generating null" in r.getMessage() for r in caplog.records)


class TestEnumCoverage:
    def test_three_member_enum_covered(self):
        doc = {"type": "string", "enum": ["Ready", "Brewing", "Error"]}
        assert set(draws(doc, 61, 1000)) == {"Ready", "Brewing", "Error"}

    def test_ten_member_enum_covered(self):
        members = list(range(10))
        assert set(draws({"enum": members}, 62, 1000)) == set(members)


class TestMinimalValue:
    def test_conforms_for_common_schemas(self):
        for doc in [
            {"type": "integer", "minimum": 3},
            {"type": "array", "minItems": 2, "items": {"type": "boolean"}},
            {"type": "object", "properties": {"a": {"type": "string"}},
             "required": ["a"]},
            {"enum": ["only"]},
        ]:
            schema = extract_schema(doc)
            assert validate(schema, minimal_value(schema)).valid, doc


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2**64 - 1))
def test_generation_is_deterministic(schema_seed, rng_seed):
    doc = random_schema(random.Random(schema_seed), depth=3)
    schema = extract_schema(doc)
    first = generate(schema, RandomSource(rng_seed))
    second = generate(schema, RandomSource(rng_seed))
    assert first == second


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2**64 - 1))
def test_generated_values_validate(schema_seed, rng_seed):
    doc = random_schema(random.Random(schema_seed), depth=3)
    schema = extract_schema(doc)
    value = generate(schema, RandomSource(rng_seed))
    assert validate(schema, value).valid


def _numbers(minimum: float, maximum: float) -> dict:
    """Forty numbers drawn in [minimum, maximum]."""
    return {"type": "array", "minItems": 40, "maxItems": 40,
            "items": {"type": "number", "minimum": minimum, "maximum": maximum}}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9).map(lambda seed: random_schema(random.Random(seed), depth=3)),
       st.integers(0, 2**64 - 1))
# The edges of the number format: |x| on each side of 1e-4 and just below 1e9,
# draws that round to a whole number, bounds that rounding to 6 decimals moves,
# -0.0, and a span wider than a double.
@example(_numbers(0.000099, 0.000101), 1)
@example(_numbers(-0.000101, -0.000099), 2)
@example(_numbers(999999999.5, 1000000000.5), 3)
@example(_numbers(-1000000000.5, -999999999.5), 4)
@example(_numbers(3.0, 3.000001), 5)
@example(_numbers(0.1234567, 0.1234568), 6)
@example(_numbers(-0.000001, 0.000001), 7)
@example(_numbers(-1e308, 1e308), 8)
def test_drawn_text_is_the_encoding_of_a_conforming_value(doc, rng_seed):
    schema = extract_schema(doc)
    try:
        text = generate_json(schema, RandomSource(rng_seed))
    except Unsatisfiable:
        return
    value = json.loads(text)
    assert json_text(value) == text
    assert validate(schema, value).valid
