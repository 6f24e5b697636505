"""Tests for schemas, response parsing, trait scoring, and synthesis."""

import copy
import csv
import dataclasses
import hashlib
import io
import math
import pickle
import random
import re
import sys
import threading
import tracemalloc
import weakref
from importlib import resources
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from traitclust import (
    PRESETS,
    AlignmentError,
    DegenerateProfileError,
    FitConfig,
    ParseError,
    ResponseTable,
    SchemaError,
    SurveyItem,
    SurveySchema,
    dump_schema,
    generate_synthetic,
    load_schema,
    parse_responses,
    schema_to_dict,
    score_profile,
    score_profiles,
    survey,
)
from traitclust.survey import MISSING_POLICIES

import oracle

OCEAN_DIMS = ("Openness", "Conscientiousness", "Extraversion", "Agreeableness", "Neuroticism")

TINY_SCHEMA = {
    "name": "tiny",
    "dimensions": ["D"],
    "items": [{"column": "Q1", "dimension": "D"}],
    "likert_min": 1,
    "likert_max": 5,
    "missing_code": 0,
}


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESETS:
            schema = load_schema(name)
            assert schema.name == name
            assert schema.items and schema.dimensions

    def test_ocean50_shape_and_keying(self):
        schema = load_schema("ocean50")
        assert schema.dimensions == OCEAN_DIMS
        assert len(schema.items) == 50
        positives = {
            d: sum(1 for it in schema.items if it.dimension == d and it.keying == "positive")
            for d in schema.dimensions
        }
        assert all(sum(1 for it in schema.items if it.dimension == d) == 10
                   for d in schema.dimensions)
        assert positives == {
            "Extraversion": 5,
            "Neuroticism": 8,
            "Agreeableness": 6,
            "Conscientiousness": 6,
            "Openness": 7,
        }

    def test_scenario_presets_cover_each_trait_once(self):
        scenario = load_schema("scenario")
        assert scenario.dimensions == OCEAN_DIMS
        assert len(scenario.items) == 5
        assert {it.dimension for it in scenario.items} == set(OCEAN_DIMS)
        scenario3 = load_schema("scenario3")
        assert scenario3.dimensions == OCEAN_DIMS
        assert [it.column for it in scenario3.items] == [
            "Scenario 1", "Scenario 2", "Scenario 3",
        ]

    def test_iwp_preset_shape(self):
        schema = load_schema("iwp")
        assert len(schema.dimensions) == 3
        assert len(schema.items) == 5

    def test_dump_matches_the_packaged_bytes(self):
        for name in PRESETS:
            packaged = resources.files("traitclust").joinpath(f"schemas/{name}.json").read_text("utf-8")
            assert dump_schema(load_schema(name)) == packaged

    def test_dict_round_trip_preserves_the_schema(self):
        schema = load_schema("scenario")
        assert load_schema(schema_to_dict(schema)) == schema

    def test_unknown_preset_or_path(self):
        with pytest.raises(SchemaError):
            load_schema("big7")

    def test_load_from_file_path(self, tmp_path):
        p = tmp_path / "custom.json"
        p.write_text(dump_schema(load_schema("scenario3")))
        assert load_schema(str(p)) == load_schema("scenario3")

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(SchemaError):
            load_schema(str(p))


class TestSchemaValidation:
    def _items(self):
        return (SurveyItem(column="Q1", dimension="D"),)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            SurveySchema(
                name="x", dimensions=("D",),
                items=(SurveyItem("Q1", "D"), SurveyItem("Q1", "D")),
            )

    def test_rejects_unknown_item_dimension(self):
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=("D",), items=(SurveyItem("Q1", "E"),))

    def test_rejects_bad_keying(self):
        with pytest.raises(SchemaError):
            SurveySchema(
                name="x", dimensions=("D",),
                items=(SurveyItem("Q1", "D", keying="reversed"),),
            )

    def test_rejects_degenerate_likert_range(self):
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=("D",), items=self._items(),
                         likert_min=5, likert_max=5)
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=("D",), items=self._items(),
                         likert_min=-1, likert_max=5)

    @pytest.mark.parametrize("likert_max", [255, 300, 10**9])
    def test_rejects_a_likert_max_above_254(self, likert_max):
        # Byte 255 marks a missing answer in the parse's byte table.
        message = f"schema 'x': likert_max must be <= 254, got {likert_max}"
        with pytest.raises(SchemaError) as info:
            SurveySchema(name="x", dimensions=("D",), items=self._items(),
                         likert_max=likert_max)
        assert str(info.value) == message
        with pytest.raises(SchemaError) as info:
            load_schema(self._doc(likert_max=likert_max))
        assert str(info.value) == message

    def test_rejects_empty_dimensions_or_items(self):
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=(), items=self._items())
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=("D",), items=())

    def test_rejects_duplicate_dimensions(self):
        with pytest.raises(SchemaError):
            SurveySchema(name="x", dimensions=("D", "D"), items=self._items())

    def test_rejects_malformed_documents(self):
        with pytest.raises(SchemaError):
            load_schema({"name": "x"})
        with pytest.raises(SchemaError):
            load_schema({"name": "x", "dimensions": ["D"], "items": ["Q1"]})
        with pytest.raises(SchemaError):
            load_schema(42)

    @staticmethod
    def _doc(**changes):
        doc = {"name": "x", "dimensions": ["D"],
               "items": [{"column": "Q1", "dimension": "D"}]}
        for key, value in changes.items():
            if key.startswith("item_"):
                doc["items"][0][key[len("item_"):]] = value
            else:
                doc[key] = value
        return doc

    @pytest.mark.parametrize("changes, message", [
        ({"likert_min": None}, "'likert_min' must be an integer, got None"),
        ({"likert_min": 1.9}, "'likert_min' must be an integer, got 1.9"),
        ({"likert_max": "5"}, "'likert_max' must be an integer, got '5'"),
        ({"likert_max": True}, "'likert_max' must be an integer, got True"),
        ({"missing_code": False}, "'missing_code' must be an integer, got False"),
        ({"items": 5}, "'items' must be a list, got 5"),
        ({"dimensions": "D"}, "'dimensions' must be a list, got 'D'"),
        ({"dimensions": ["D", 2]}, "dimensions must be strings, got 2"),
        ({"name": 7}, "'name' must be a string, got 7"),
        ({"item_column": 1}, "'column' must be a string, got 1"),
        ({"item_dimension": ["D"]}, "'dimension' must be a string, got ['D']"),
        ({"item_keying": None}, "'keying' must be a string, got None"),
        ({"item_text": 3}, "'text' must be a string, got 3"),
    ])
    def test_documents_must_carry_json_types_without_coercion(self, changes, message):
        with pytest.raises(SchemaError) as exc:
            load_schema(self._doc(**changes))
        assert str(exc.value).endswith(message)

    def test_documents_with_json_integers_and_strings_load(self):
        schema = load_schema(self._doc(likert_min=0, likert_max=6, missing_code=9,
                                       item_keying="negative", item_text="t"))
        assert (schema.likert_min, schema.likert_max, schema.missing_code) == (0, 6, 9)
        assert schema.items == (SurveyItem("Q1", "D", "negative", "t"),)


class TestParseResponses:
    def test_applicant_fixture(self, applicant_csv_text):
        schema = load_schema("scenario3")
        result = parse_responses(applicant_csv_text, schema)
        assert result.table.n == 9
        assert result.table.id_name == "Name"
        assert result.table.ids[0] == "DIYA B"
        assert result.table.rows[0] == (2, 2, 2)
        assert result.report.rows_read == 9
        assert result.report.rows_dropped == 0
        # Likert answers double as the dataset's category codes
        assert result.dataset.rows[0] == (2, 2, 2)
        assert result.dataset.row_ids[0] == "DIYA B"

    def test_missing_schema_column(self):
        schema = load_schema("scenario3")
        with pytest.raises(ParseError, match="Scenario 3"):
            parse_responses("Scenario 1,Scenario 2\n1,2\n", schema)

    def test_repeated_schema_column(self):
        schema = load_schema(TINY_SCHEMA)
        with pytest.raises(ParseError, match="repeats"):
            parse_responses("Q1,Q1\n1,1\n", schema)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_responses("", load_schema(TINY_SCHEMA))

    def test_non_integer_cell_is_located(self):
        with pytest.raises(ParseError, match="row 3.*'Q1'"):
            parse_responses("Q1\n1\nx\n", load_schema(TINY_SCHEMA))

    def test_out_of_range_value(self):
        with pytest.raises(ParseError, match="outside"):
            parse_responses("Q1\n9\n", load_schema(TINY_SCHEMA))

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="expected 1 cells"):
            parse_responses("Q1\n1,2\n", load_schema(TINY_SCHEMA))

    def test_duplicate_ids(self):
        schema = load_schema(TINY_SCHEMA)
        with pytest.raises(ParseError, match="duplicate id"):
            parse_responses("who,Q1\na,1\na,2\n", schema)

    def test_blank_lines_are_skipped(self):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("Q1\n1\n\n2\n", schema)
        assert result.table.rows == ((1,), (2,))

    def test_extra_columns_are_ignored_first_one_provides_ids(self):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("who,junk,Q1\nalice,zzz,4\n", schema)
        assert result.table.id_name == "who"
        assert result.table.ids == ("alice",)
        assert result.table.rows == ((4,),)

    def test_without_an_id_column_ordinals_are_used(self):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("Q1\n1\n2\n", schema)
        assert result.table.id_name == "row_id"
        assert result.table.ids == ("0", "1")

    def test_custom_delimiter(self):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("who;Q1\na;2\n", schema, delimiter=";")
        assert result.table.rows == ((2,),)

    @pytest.mark.parametrize("policy", ["drop_row", "impute_mode"])
    def test_table_and_dataset_share_their_row_tuples_and_ids(self, policy):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("Q1\n2\n0\n5\n", schema, missing_policy=policy)
        assert result.table.n == result.dataset.n > 0
        assert result.dataset.row_ids is result.table.ids
        for values, row in zip(result.dataset.rows, result.table.rows):
            assert values is row

    def test_the_dataset_is_built_on_first_access(self):
        result = parse_responses("Q1\n2\n5\n", load_schema(TINY_SCHEMA))
        assert "dataset" not in vars(result)
        assert result.dataset is result.dataset
        assert result.dataset.rows == ((2,), (5,))

    def test_an_empty_table_gives_a_dataset_of_every_column(self):
        result = parse_responses("Q1\n0\n", load_schema(TINY_SCHEMA))
        assert result.dataset.n == 0
        assert [a.name for a in result.dataset.attrs] == ["Q1"]

    @pytest.mark.parametrize("text, line", [
        ("Q1,{wide}\n1,2\n", 1),
        ("who,Q1\na,1\n{wide},2\n", 3),
    ], ids=["header", "row"])
    def test_a_field_over_the_csv_limit_is_a_parse_error(self, text, line):
        limit = csv.field_size_limit()
        with pytest.raises(ParseError) as info:
            parse_responses(text.format(wide="x" * (limit + 1)), load_schema(TINY_SCHEMA))
        assert str(info.value) == f"row {line}: field larger than field limit ({limit})"

    def test_unknown_missing_policy(self):
        with pytest.raises(ValueError):
            parse_responses("Q1\n1\n", load_schema(TINY_SCHEMA), missing_policy="guess")


class TestMissingValues:
    def test_drop_row_removes_rows_with_missing_answers(self):
        schema = load_schema(TINY_SCHEMA)
        result = parse_responses("Q1\n2\n2\n5\n0\n", schema, missing_policy="drop_row")
        assert result.table.rows == ((2,), (2,), (5,))
        assert result.report.rows_read == 4
        assert result.report.rows_kept == 3
        assert result.report.rows_dropped == 1

    # Each missing code becomes byte 255 in the parse's byte table: a digit,
    # a code below 0 and one above a byte. likert_max 254 is the largest
    # code the table holds beside it.
    IMPUTE_SCHEMAS = [
        pytest.param({}, id="missing-0"),
        pytest.param({"missing_code": -1}, id="missing-neg1"),
        pytest.param({"missing_code": 256}, id="missing-256"),
        pytest.param({"likert_max": 254}, id="likert-max-254"),
    ]

    @staticmethod
    def _impute(lines, change):
        schema = load_schema({**TINY_SCHEMA, **change})
        text = "Q1\n" + "".join(f"{v}\n" for v in lines).replace(
            "?", str(schema.missing_code))
        return parse_responses(text, schema, missing_policy="impute_mode")

    @pytest.mark.parametrize("change", IMPUTE_SCHEMAS)
    def test_impute_mode_fills_with_the_column_mode(self, change):
        # observed values 2, 2, 5: the mode 2 replaces the missing answer
        result = self._impute(["2", "2", "5", "?"], change)
        assert result.table.rows == ((2,), (2,), (5,), (2,))
        assert result.report.rows_dropped == 0

    @pytest.mark.parametrize("change", IMPUTE_SCHEMAS)
    def test_impute_mode_ties_break_to_the_lowest_value(self, change):
        result = self._impute(["5", "2", "5", "2", "?"], change)
        assert result.table.rows[-1] == (2,)

    @pytest.mark.parametrize("change", IMPUTE_SCHEMAS)
    def test_impute_with_nothing_observed_is_an_error(self, change):
        with pytest.raises(ParseError, match="every value is missing"):
            self._impute(["?", "?"], change)

    @pytest.mark.parametrize("policy", MISSING_POLICIES)
    def test_a_parsed_table_holds_its_byte_table_or_its_rows_never_both(self, policy):
        # The kept rows' codes go into one bytearray, under either policy,
        # which is not kept: the table holds an n * m-byte copy in place of
        # its rows until they are first read, then the rows alone.
        made = []

        class Codes(bytearray):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        text = "Q1,Q2,Q3\n1,2,3\n0,2,0\n3,3,3\n1,0,3\n"
        with mock.patch.object(survey, "bytearray", Codes, create=True):
            table = parse_responses(text, PARSE_SCHEMAS[0], missing_policy=policy).table
        rows = {
            "drop_row": ((1, 2, 3), (3, 3, 3)),
            "impute_mode": ((1, 2, 3), (1, 2, 3), (3, 3, 3), (1, 2, 3)),
        }[policy]
        assert len(made) == 1 and made[0]() is None
        assert set(vars(table)) == {"ids", "columns", "id_name", "_codes", "_proven"}
        assert type(table._codes) is bytes
        assert table._codes == bytes(chain.from_iterable(rows))
        assert table.n == len(rows) and "rows" not in vars(table)
        assert table.rows == rows
        assert set(vars(table)) == {"ids", "columns", "id_name", "rows", "_proven"}
        assert table.rows is vars(table)["rows"]


class TestScoreProfile:
    def test_scenario3_answers_score_per_dimension(self):
        schema = load_schema("scenario3")
        profile = score_profile((2, 2, 2), schema)
        assert profile.raw == {
            "Openness": 0, "Conscientiousness": 2, "Extraversion": 2,
            "Agreeableness": 0, "Neuroticism": 2,
        }
        for d in ("Conscientiousness", "Extraversion", "Neuroticism"):
            assert profile.percent[d] == pytest.approx(100 / 3)

    def test_negative_items_are_reversed(self):
        schema = load_schema({
            "name": "rev", "dimensions": ["D"],
            "items": [
                {"column": "Q1", "dimension": "D", "keying": "positive"},
                {"column": "Q2", "dimension": "D", "keying": "negative"},
            ],
        })
        # reversal maps v to likert_min + likert_max - v = 6 - v
        assert score_profile((5, 5), schema).raw == {"D": 5 + 1}
        assert score_profile((1, 1), schema).raw == {"D": 1 + 5}

    def test_rejects_misaligned_answer_vectors(self):
        with pytest.raises(AlignmentError):
            score_profile((1, 2), load_schema(TINY_SCHEMA))

    def test_rejects_out_of_range_answers(self):
        schema = load_schema(TINY_SCHEMA)
        with pytest.raises(ValueError):
            score_profile((0,), schema)
        with pytest.raises(ValueError):
            score_profile((6,), schema)

    def test_percentages_sum_to_100(self):
        schema = load_schema("ocean50")
        profile = score_profile(tuple([2] * 50), schema)
        assert math.fsum(profile.percent.values()) == pytest.approx(100.0, abs=1e-9)


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        schema = load_schema("scenario")
        a = generate_synthetic(50, schema, seed=3)
        b = generate_synthetic(50, schema, seed=3)
        assert a == b
        c = generate_synthetic(50, schema, seed=4)
        assert a != c

    def test_uniform_mixture_balances_dominant_traits(self):
        schema = load_schema("ocean50")
        table = generate_synthetic(1000, schema, seed=7, noise=0.0)
        counts = {d: 0 for d in schema.dimensions}
        for row in table.rows:
            profile = score_profile(row, schema)
            dominant = max(schema.dimensions, key=lambda d: profile.percent[d])
            counts[dominant] += 1
        for d, c in counts.items():
            assert 140 <= c <= 260, f"{d} dominates {c}/1000 rows, expected 200 +/- 60"

    def test_degenerate_mixture_concentrates_on_one_trait(self):
        schema = load_schema("scenario")
        table = generate_synthetic(40, schema, weights=[1.0, 0.0, 0.0, 0.0, 0.0], seed=0)
        for row in table.rows:
            profile = score_profile(row, schema)
            assert max(profile.percent, key=profile.percent.get) == "Openness"

    def test_sequence_weights_align_with_dimensions(self):
        schema = load_schema("scenario")
        table = generate_synthetic(30, schema, weights=[0, 0, 1, 0, 0], seed=1)
        target = schema.dimensions[2]
        for row in table.rows:
            profile = score_profile(row, schema)
            assert max(profile.percent, key=profile.percent.get) == target

    def test_noise_keeps_answers_in_range(self):
        schema = load_schema("scenario")
        table = generate_synthetic(200, schema, seed=2, noise=1.0)
        lo, hi = schema.likert_min, schema.likert_max
        assert all(lo <= v <= hi for row in table.rows for v in row)

    def test_validates_arguments(self):
        schema = load_schema("scenario")
        with pytest.raises(ValueError):
            generate_synthetic(0, schema)
        with pytest.raises(ValueError):
            generate_synthetic(5, schema, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            generate_synthetic(5, schema, weights=[0.9, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            generate_synthetic(5, schema, weights=[1.5, -0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            generate_synthetic(5, schema, noise=1.5)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_n_must_be_a_plain_int(self, n):
        # True would make one row, and 2.5 or "3" would raise a bare TypeError
        with pytest.raises(ValueError) as info:
            generate_synthetic(n, load_schema("scenario"))
        assert (type(info.value), str(info.value)) == (ValueError,
                                                       f"n must be an integer, got {n!r}")

    @pytest.mark.parametrize("seed", [-5, 2**64, 1.0, True, "3", None])
    def test_refuses_the_seeds_fit_refuses_with_its_message(self, seed):
        # random.Random would take each: -5 as 5, the rest by hash
        with pytest.raises(ValueError) as expected:
            FitConfig(k=1, seed=seed)
        with pytest.raises(ValueError) as info:
            generate_synthetic(5, load_schema("scenario"), seed=seed)
        assert (type(info.value), str(info.value)) == (ValueError, str(expected.value))
        assert generate_synthetic(5, load_schema("scenario"), seed=2**64 - 1).n == 5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_mixture_weights(self, bad):
        # NaN compares false with every bound, so a range check alone
        # lets it through
        schema = load_schema("scenario")
        with pytest.raises(ValueError, match="finite"):
            generate_synthetic(5, schema, weights=[1.0, bad, 0.0, 0.0, 0.0])


def _synthesis_weights(dims):
    """No weights, a list that zeroes every other dimension (the last one
    too when the count is odd), and a list that weights only the first and
    the last dimension."""
    alternate = [i % 2 for i in range(len(dims))]
    return (None, [w / sum(alternate) for w in alternate],
            [0.1, *[0.0] * (len(dims) - 2), 0.9])


def _synthesis_digest():
    tables = []
    for preset in ("ocean50", "scenario", "iwp"):
        schema = load_schema(preset)
        for weights in _synthesis_weights(schema.dimensions):
            for noise in (0.0, 0.15, 1.0):
                for seed in (0, 2**63 + 7):
                    table = generate_synthetic(40, schema, weights, seed=seed, noise=noise)
                    tables.append((table.id_name, table.columns, table.ids, table.rows))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def test_synthesis_is_bit_identical_to_the_golden_record():
    # SHA-256 of 54 generated tables: three presets, the three mixtures
    # of _synthesis_weights, noise 0, 0.15 and 1, and two seeds.
    assert _synthesis_digest() == (
        "7b5da961f37a62d4c11bf7a189a2a93709284258607644f80d201a8b2f580636")


class TestResponseTable:
    def test_csv_round_trip(self):
        schema = load_schema("scenario")
        table = generate_synthetic(25, schema, seed=9, noise=0.3)
        reparsed = parse_responses(table.to_csv(), schema)
        assert reparsed.table.rows == table.rows
        assert reparsed.table.ids == table.ids
        assert reparsed.table.id_name == table.id_name

    def test_custom_delimiter_round_trip(self):
        schema = load_schema("scenario3")
        table = generate_synthetic(10, schema, seed=5)
        reparsed = parse_responses(table.to_csv(";"), schema, delimiter=";")
        assert reparsed.table.rows == table.rows

    @pytest.mark.parametrize("delimiter", ["", ";;", "\n", "\r", 0])
    def test_parse_and_to_csv_refuse_what_csv_cannot_read_back(self, delimiter):
        # One character, not a line break; ParseError would blame the input.
        schema = load_schema("scenario3")
        table = generate_synthetic(3, schema, seed=5)
        message = (f"^delimiter must be one character, not a line break, "
                   f"got {re.escape(repr(delimiter))}$")
        for call in (lambda: table.to_csv(delimiter),
                     lambda: parse_responses(table.to_csv(), schema, delimiter=delimiter)):
            with pytest.raises(ValueError, match=message) as exc:
                call()
            assert type(exc.value) is ValueError

    def test_rejects_misaligned_construction(self):
        with pytest.raises(AlignmentError, match="^1 ids for 0 rows$"):
            ResponseTable(ids=("a",), columns=("Q1",), rows=())
        with pytest.raises(AlignmentError, match="^row 'a' has 1 cells, expected 2$"):
            ResponseTable(ids=("a",), columns=("Q1", "Q2"), rows=((1,),))
        # the first ragged row is named, whichever length it has
        with pytest.raises(AlignmentError, match="^row 'b' has 3 cells, expected 2$"):
            ResponseTable(ids="abc", columns=("Q1", "Q2"), rows=[[1, 2], [1, 2, 3], [1]])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_any_valid_answer_vector_scores_to_a_full_profile(data):
    schema = load_schema("scenario")
    lo, hi = schema.likert_min, schema.likert_max
    answers = tuple(
        data.draw(st.integers(lo, hi)) for _ in range(len(schema.items))
    )
    profile = score_profile(answers, schema)
    assert set(profile.raw) == set(schema.dimensions)
    assert math.fsum(profile.percent.values()) == pytest.approx(100.0, abs=1e-9)
    assert all(v >= 0 for v in profile.raw.values())


class TestMissingCodeInsideLikertRange:
    def test_schema_rejects_a_missing_code_inside_the_likert_range(self):
        for code in (1, 3, 5):
            with pytest.raises(SchemaError, match="missing_code"):
                load_schema({**TINY_SCHEMA, "missing_code": code})

    def test_missing_code_outside_the_range_is_accepted(self):
        for code in (0, 6, -1):
            assert load_schema({**TINY_SCHEMA, "missing_code": code}).missing_code == code


class TestScoreProfileMessages:
    @pytest.mark.parametrize("later", [None, 9])
    @pytest.mark.parametrize("bad", [3.0, "3", None, 6, 0])
    def test_names_the_first_bad_answer(self, bad, later):
        schema = load_schema("scenario")
        answers = [3] * len(schema.items)
        answers[2] = bad
        if later is not None:
            answers[4] = later
        column = schema.items[2].column
        with pytest.raises(ValueError) as info:
            score_profile(answers, schema)
        assert str(info.value) == (
            f"item {column!r}: answer {bad!r} outside the Likert range [1, 5] "
            "(impute or drop missing values before scoring)"
        )

    def test_bool_answers_count_as_their_int_value(self):
        schema = load_schema(TINY_SCHEMA)
        profile = score_profile((True,), schema)
        assert profile.raw == {"D": 1}
        assert type(profile.raw["D"]) is int


# Answers from 0 make all-zero rows, which cannot be normalized; dimension
# C has no items.
ZERO_FLOOR_SCHEMA = {
    "name": "zero-floor", "dimensions": ["A", "B", "C"],
    "items": [
        {"column": "Q1", "dimension": "A"},
        {"column": "Q2", "dimension": "B"},
        {"column": "Q3", "dimension": "A"},
    ],
    "likert_min": 0, "likert_max": 2, "missing_code": -1,
}


def _lane_schema(name, items, lo, hi, negative=()):
    """Items Q1..Q<items> on Likert lo..hi, alternating between dimensions
    A and B, the item numbers in ``negative`` negatively keyed."""
    return load_schema({
        "name": name, "dimensions": ["A", "B"],
        "items": [{"column": f"Q{i}", "dimension": "AB"[i % 2],
                   "keying": "negative" if i in negative else "positive"}
                  for i in range(1, items + 1)],
        "likert_min": lo, "likert_max": hi,
    })


# Schemas at the edges of score_profiles' lane widths, each with the width
# it takes: len(columns) * likert_max of 255 (one byte), 256 (two), and
# 300 * 254 (four), and one negative item whose reversal constant, 300,
# overflows a byte while its raw scores, 100..200, fit one.
LANE_SCHEMAS = [
    (_lane_schema("lanes-255", 3, 1, 85), 1),
    (_lane_schema("lanes-256", 2, 1, 128, negative={2}), 2),
    (_lane_schema("lanes-76200", 300, 1, 254, negative=range(3, 301, 3)), 4),
    (_lane_schema("reversal-300", 1, 100, 200, negative={1}), 1),
]
SCORE_SCHEMAS = ([load_schema(name) for name in PRESETS] + [load_schema(ZERO_FLOOR_SCHEMA)]
                 + [schema for schema, _ in LANE_SCHEMAS])


def _typed(values):
    return [(type(v).__name__, v) for v in values]


def _check_scores_of_parsed_rows(schema, rows):
    """score_profiles on the rows, parsed as every caller's table is, gives
    what score_profile gives row by row, or names the first degenerate row:
    from the byte table the parse holds, and from the rows when they were
    read first, as a fit reads them."""
    ids = [f"r{i}" for i in range(len(rows))]
    text = ResponseTable(ids, schema.columns, rows, "who").to_csv()
    held, read = (parse_responses(text, schema).table for _ in range(2))
    assert read.rows == tuple(map(tuple, rows)) and read.ids == held.ids == tuple(ids)
    expected = []
    for rid, row in zip(ids, rows):
        try:
            expected.append(score_profile(row, schema))
        except DegenerateProfileError as exc:  # score_profiles names the row
            for table in (held, read):
                with pytest.raises(DegenerateProfileError) as info:
                    score_profiles(table, schema)
                assert str(info.value) == f"row {rid!r}: {exc}"
            return
    for table in (held, read):
        raw, percent = score_profiles(table, schema)
        assert list(raw) == list(percent) == list(schema.dimensions)
        for d in schema.dimensions:
            assert _typed(raw[d]) == _typed(p.raw[d] for p in expected)
            assert [v.hex() for v in percent[d]] == [p.percent[d].hex() for p in expected]
    assert "rows" not in vars(held)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_score_profiles_match_score_profile(data):
    schema = data.draw(st.sampled_from(SCORE_SCHEMAS))
    m = len(schema.items)
    answers = st.lists(st.integers(schema.likert_min, schema.likert_max),
                       min_size=m, max_size=m)
    _check_scores_of_parsed_rows(schema, data.draw(st.lists(answers, max_size=6)))


@pytest.mark.parametrize("schema, width", LANE_SCHEMAS,
                         ids=[schema.name for schema, _ in LANE_SCHEMAS])
def test_lanes_hold_the_largest_scores(schema, width):
    # A narrower lane overflows on the row with the largest raw scores and
    # total, scored here; a wider one scores the same, so its width is pinned.
    assert survey._lane_width(schema) == width
    lo, hi = schema.likert_min, schema.likert_max
    top = [hi if item.keying == "positive" else lo for item in schema.items]
    bottom = [lo + hi - v for v in top]
    _check_scores_of_parsed_rows(schema, [top, bottom, [hi] * len(top), [lo] * len(top), top])


@pytest.mark.parametrize("read", [False, True], ids=["held", "read"])
class TestAParsedTableActsAsAHandBuiltOne:
    """Before and after its rows are first read, a parsed table compares,
    hashes, prints, writes and copies as a hand-built one with its fields;
    a copy keeps the form and the proof, dataclasses.replace drops both."""

    SCHEMA = load_schema("scenario3")
    PLAIN = generate_synthetic(7, SCHEMA, seed=3, noise=0.5)

    def _parsed(self, read):
        table = parse_responses(self.PLAIN.to_csv(), self.SCHEMA).table
        if read:
            table.rows
        assert ("rows" in vars(table)) is read is not ("_codes" in vars(table))
        return table

    @pytest.mark.parametrize("use", ["==", "!=", "hash", "repr", "to_csv", "n"])
    def test_it_compares_prints_and_counts_as_a_hand_built_table(self, read, use):
        other = dataclasses.replace(self.PLAIN, id_name="who")
        act = {
            "==": lambda t: (t == self.PLAIN, self.PLAIN == t, t == other),
            "!=": lambda t: (t != self.PLAIN, self.PLAIN != t, t != other),
            "hash": hash,
            "repr": repr,
            "to_csv": lambda t: (t.to_csv(), t.to_csv(";")),
            "n": lambda t: t.n,
        }[use]
        table = self._parsed(read)
        assert act(table) == act(self.PLAIN)
        assert ("rows" in vars(table)) is (read or use != "n")

    @pytest.mark.parametrize("how", ["copy", "deepcopy", *(
        f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_a_copy_keeps_the_form_and_the_proof(self, read, how):
        copy_of = {"copy": copy.copy, "deepcopy": copy.deepcopy}.get(how) or (
            lambda t: pickle.loads(pickle.dumps(t, int(how.split("-")[1]))))
        table = self._parsed(read)
        names = set(vars(table))
        dup = copy_of(table)
        assert set(vars(table)) == set(vars(dup)) == names
        assert dup._proven == table._proven
        assert score_profiles(dup, self.SCHEMA) == score_profiles(table, self.SCHEMA)
        assert set(vars(dup)) == names
        assert (dup, hash(dup), repr(dup)) == (self.PLAIN, hash(self.PLAIN), repr(self.PLAIN))
        assert dup.rows is vars(dup)["rows"] and "_codes" not in vars(dup)

    def test_replace_drops_the_byte_table_and_the_proof(self, read):
        plain = dataclasses.replace(self._parsed(read))
        assert set(vars(plain)) == {"ids", "columns", "rows", "id_name"}
        assert plain == self.PLAIN
        with pytest.raises(ValueError, match="^score_profiles needs a table"):
            score_profiles(plain, self.SCHEMA)


def test_a_table_that_is_not_yet_filled_has_no_rows():
    # pickle and copy make a table with an empty __dict__ and look names up
    # on it (on Python 3.10, __getstate__ too) before they fill it; none may
    # recurse into the rows' build.
    table = object.__new__(ResponseTable)
    for name in ("rows", "_codes", "_proven", "ids", "columns", "__setstate__"):
        assert not hasattr(table, name)
    with pytest.raises(AttributeError, match="^'ResponseTable' object has no attribute 'rows'$"):
        table.rows


def test_threads_that_read_the_rows_at_once_all_get_the_same_rows():
    # The first read of a parsed table's rows builds them; threads racing
    # on it must neither fail nor see two builds.
    schema = load_schema("ocean50")
    text = generate_synthetic(500, schema, seed=5, noise=0.3).to_csv()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            table = parse_responses(text, schema).table
            barrier, seen = threading.Barrier(6), []

            def read():
                barrier.wait(timeout=10)
                seen.append(table.rows)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 6 and all(rows is seen[0] for rows in seen)
            assert "_codes" not in vars(table) and len(seen[0]) == 500
    finally:
        sys.setswitchinterval(interval)


class TestScoringAParsedTable:
    """score_profiles scores only a table whose parse proof matches the
    schema's columns and Likert range; it refuses every other input."""

    SCHEMA = load_schema({
        "name": "three", "dimensions": ["A", "B"],
        "items": [
            {"column": "Q1", "dimension": "A"},
            {"column": "Q2", "dimension": "B", "keying": "negative"},
            {"column": "Q3", "dimension": "A"},
        ],
    })
    TEXT = "who,Q1,Q2,Q3\nx,1,5,2\ny,4,0,3\nz,5,2,1\n"

    @pytest.mark.parametrize("policy", MISSING_POLICIES)
    def test_the_proof_is_not_a_field(self, policy):
        table = parse_responses(self.TEXT, self.SCHEMA, missing_policy=policy).table
        plain = ResponseTable(table.ids, table.columns, table.rows, table.id_name)
        assert table._proven == (("Q1", "Q2", "Q3"), 1, 5)
        assert not hasattr(plain, "_proven")
        assert table == plain and hash(table) == hash(plain)
        assert repr(table) == repr(plain)
        assert "proven" not in repr(table)
        assert not hasattr(dataclasses.replace(table), "_proven")

    @pytest.mark.parametrize("given", ["rows", "hand-built", "replaced", "range", "order"])
    def test_anything_but_a_table_parsed_under_the_schema_is_refused(self, given):
        table = parse_responses(self.TEXT, self.SCHEMA, missing_policy="impute_mode").table
        schema = self.SCHEMA
        if given == "rows":
            table = list(table.rows)
        elif given == "hand-built":
            table = ResponseTable(table.ids, table.columns, table.rows, table.id_name)
        elif given == "replaced":
            table = dataclasses.replace(table)
        elif given == "range":
            schema = dataclasses.replace(schema, likert_max=4)
        else:  # the same columns in another order: by position, Q1's answers would be Q3's
            schema = dataclasses.replace(schema, items=schema.items[::-1])
            assert sorted(schema.columns) == sorted(table.columns) != list(schema.columns)
        with pytest.raises(ValueError) as info:
            score_profiles(table, schema)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "score_profiles needs a table parse_responses returned under schema 'three' "
            "(its columns and Likert range); score other rows with score_profile")

    @pytest.mark.parametrize("other", ["rekeyed", "reordered"])
    def test_a_proof_holds_for_any_schema_with_its_columns_and_range(self, other):
        # The proof is compared by value: another schema object is accepted
        # when its columns, in order, and range match the parse's. Parsed
        # under the schema that scores it, a respondent's answers are read by
        # column name, so reordering the items changes no profile.
        if other == "rekeyed":  # Q2 scores A, positively
            items = [dataclasses.replace(item, dimension="A", keying="positive")
                     if item.column == "Q2" else item for item in self.SCHEMA.items]
            schema = expected_schema = dataclasses.replace(self.SCHEMA, items=tuple(items))
            parsed_under = self.SCHEMA
        else:
            schema = parsed_under = dataclasses.replace(self.SCHEMA, items=self.SCHEMA.items[::-1])
            expected_schema = self.SCHEMA
        table = parse_responses(self.TEXT, parsed_under, missing_policy="impute_mode").table
        original = parse_responses(self.TEXT, self.SCHEMA, missing_policy="impute_mode").table
        raw, percent = score_profiles(table, schema)
        expected = [score_profile(row, expected_schema) for row in original.rows]
        for d in self.SCHEMA.dimensions:
            assert _typed(raw[d]) == _typed(p.raw[d] for p in expected)
            assert [v.hex() for v in percent[d]] == [p.percent[d].hex() for p in expected]

    def test_no_rows_score_to_empty_lists(self):
        table = parse_responses("who,Q1,Q2,Q3\n", self.SCHEMA).table
        assert table.n == 0 and table._proven == (self.SCHEMA.columns, 1, 5)
        raw, percent = score_profiles(table, self.SCHEMA)
        assert raw == percent == {"A": [], "B": []}
        assert {type(v) for v in (*raw.values(), *percent.values())} == {list}

    def test_scoring_leaves_the_table_as_it_was(self):
        # The byte table the lanes are summed from is freed, not kept on the
        # table, where it would raise the peak of every later step.
        schema, text = _ocean50_with_missing_cells()
        table = parse_responses(text, schema, missing_policy="impute_mode").table
        before, proven = dict(vars(table)), table._proven
        first = score_profiles(table, schema)
        assert score_profiles(table, schema) == first
        assert vars(table) == before and table._proven == proven
        assert all(vars(table)[name] is value for name, value in before.items())

    def test_a_parsed_table_is_not_checked_again(self, monkeypatch):
        schema, text = _ocean50_with_missing_cells()
        table = parse_responses(text, schema, missing_policy="impute_mode").table
        calls = []
        check = survey._plain_answers
        monkeypatch.setattr(survey, "_plain_answers",
                            lambda *args: calls.append(1) or check(*args))
        score_profiles(table, schema)
        assert calls == []


PARSE_SCHEMAS = {
    code: load_schema({
        "name": "three", "dimensions": ["A", "B"],
        "items": [
            {"column": "Q1", "dimension": "A"},
            {"column": "Q2", "dimension": "B", "keying": "negative"},
            {"column": "Q3", "dimension": "A"},
        ],
        "missing_code": code,
    })
    for code in (0, -1, 255, 256)
}
PARSE_HEADERS = (
    ("who", "Q1", "Q2", "Q3"),
    ("Q2", "Q1", "who", "junk", "Q3"),
    ("Q1", "Q2", "Q3"),
)
# Id cells, some of which hold a line break, the delimiter or a quote, so
# that records span lines; U+2028 breaks a line for str.splitlines, not csv.
ID_CELLS = [*"abcdefghijkl", "m\nn", "o\r\np", "q\rr", "s,t", 's"u', "v\u2028w"]
# survey._BLOCK values: the small ones end blocks inside short test inputs.
BLOCK_SIZES = (1, 2, 3, 7, 40, survey._BLOCK)
ACCEPTED_ODD_CELLS = [" 3", "03", "+3"]
# Each of these is rejected, except "-1" / "0" / "00" where it is the
# missing code.
BAD_CELLS = ["6", "-1", "0", "00", "x", ""]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_matches_the_per_cell_reference(data):
    code = data.draw(st.sampled_from(sorted(PARSE_SCHEMAS)))
    schema = PARSE_SCHEMAS[code]
    header = data.draw(st.sampled_from(PARSE_HEADERS))
    delimiter = data.draw(st.sampled_from([",", ";", "\t"]))
    policy = data.draw(st.sampled_from(["drop_row", "impute_mode"]))
    block = data.draw(st.sampled_from(BLOCK_SIZES))
    pool = ["1", "2", "3", "4", "5"] * 3 + [str(code)] * 3 + ACCEPTED_ODD_CELLS
    if data.draw(st.booleans()):
        pool += BAD_CELLS
    lines = []
    for _ in range(data.draw(st.integers(0, 8))):
        shape = data.draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if shape == "blank":
            lines.append([])
            continue
        cells = [data.draw(st.sampled_from(ID_CELLS)) if name in ("who", "junk")
                 else data.draw(st.sampled_from(pool)) for name in header]
        if shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append("1")
        lines.append(cells)
    terminator = data.draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=terminator)
    writer.writerow(header)
    writer.writerows(lines)
    text = buf.getvalue()
    if data.draw(st.booleans()):
        text = text.removesuffix(terminator)

    try:
        expected = oracle.reference_parse(
            text, schema.columns, schema.likert_min, schema.likert_max,
            schema.missing_code, delimiter, policy)
    except oracle.ReferenceParseError as exc:
        with pytest.raises(ParseError) as info, mock.patch.object(survey, "_BLOCK", block):
            parse_responses(text, schema, delimiter=delimiter, missing_policy=policy)
        assert str(info.value) == str(exc)
        return
    with mock.patch.object(survey, "_BLOCK", block):
        result = parse_responses(text, schema, delimiter=delimiter, missing_policy=policy)
    table, dataset, report = result.table, result.dataset, result.report
    assert (table.id_name, table.ids, table.rows,
            tuple(a.categories for a in dataset.attrs),
            (report.rows_read, report.rows_kept, report.rows_dropped)) == expected
    assert table.columns == schema.columns
    assert [a.name for a in dataset.attrs] == list(schema.columns)
    assert (dataset.row_ids, dataset.rows) == (table.ids, table.rows)


def _reference_outcome(text, schema, delimiter, policy):
    """oracle.reference_parse's result, or the text of its error."""
    try:
        return oracle.reference_parse(
            text, schema.columns, schema.likert_min, schema.likert_max,
            schema.missing_code, delimiter, policy)
    except oracle.ReferenceParseError as exc:
        return str(exc)


def _parse_outcome(text, schema, delimiter, policy):
    """parse_responses' result in reference_parse's form, or the text of
    its ParseError."""
    try:
        result = parse_responses(text, schema, delimiter=delimiter, missing_policy=policy)
    except ParseError as exc:
        return str(exc)
    table, report = result.table, result.report
    return (table.id_name, table.ids, table.rows,
            tuple(a.categories for a in result.dataset.attrs),
            (report.rows_read, report.rows_kept, report.rows_dropped))


# Rows of three cells. The first four join to three digits without each
# cell being one digit; a one-digit parse that checked only the joined
# digits would accept them. "M" stands for the missing code.
FAST_PATH_ROWS = [
    ("", "11", "1"), ("1,", "", "1"), ("1", ",", "1"), ("", "", "111"),
    ("11", "1", ""), (",", ",", "1"), ("1", "2", "3,"), ("1", "2", "3 "),
    (" 1", "2", "3"), ("\u0661", "2", "3"), ("+1", "2", "3"), ("0", "1", "2"),
    ("M", "1", "2"), ("M", "M", "M"), ("1", "2", "6"),
]


@pytest.mark.parametrize("delimiter", [",", ";"])
@pytest.mark.parametrize("policy", MISSING_POLICIES)
@pytest.mark.parametrize("miss", [0, -1, 256])  # a digit, below 0, above a byte
def test_the_one_digit_path_matches_the_per_cell_reference(miss, policy, delimiter):
    schema = PARSE_SCHEMAS[miss]
    base = [("a", "1", "2", "3"), ("b", "M", "2", "M"), ("c", "3", "3", "3"),
            ("d", "1", "M", "3")]
    for odd in FAST_PATH_ROWS:
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
        writer.writerow(("id", "Q1", "Q2", "Q3"))
        writer.writerows([[c.replace("M", str(miss)) for c in row]
                          for row in [*base[:2], ("e", *odd), *base[2:]]])
        text = buf.getvalue()
        assert _parse_outcome(text, schema, delimiter, policy) == _reference_outcome(
            text, schema, delimiter, policy), odd


def _records(lines):
    """csv.reader's rows, each with its line_num, and the error it ends on."""
    reader = csv.reader(lines)
    records = []
    try:
        for row in reader:
            records.append((row, reader.line_num))
    except csv.Error as exc:
        records.append((str(exc), reader.line_num))
    return records


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='a,"\n\r \x851\x0b', max_size=40))
@example('id,Q1\n"a\nb",1\n')  # a quoted line break
@example('id,Q1\r\n"a\r\nb",1\r\n')
@example("a\rb\nc\n")  # a lone carriage return
@example("a\x85b\nc\n")  # NEL
@example("a\x00b\n")
@example("a\ud800b\nc\n")  # a lone surrogate
@example("a\nb")  # no final line break
@example('""')
@example("")
def test_the_parse_reads_the_lines_and_records_stringio_yields(text):
    # Small blocks put block ends inside these short texts.
    for block in BLOCK_SIZES:
        with mock.patch.object(survey, "_BLOCK", block):
            assert list(survey._lines(text)) == list(io.StringIO(text))
            assert _records(survey._lines(text)) == _records(io.StringIO(text))


@pytest.mark.parametrize("policy", MISSING_POLICIES)
def test_the_parse_holds_no_copy_of_its_input(policy):
    # The transient is the parse's tracemalloc peak less what its result
    # keeps, in bytes per input character: 1.25 under either policy, on the
    # complete input and with 2% of cells missing. csv.reader over
    # io.StringIO(text), which copies the whole text at 4 bytes per
    # character, read 5.21 and 5.27 on the first; a drop_row parse that held
    # each dropped row until the end read 4.01 on the second.
    schema = load_schema("ocean50")
    complete = generate_synthetic(2000, schema, seed=11, noise=0.15).to_csv()
    _, holed = _ocean50_with_missing_cells()
    holed_kept = 749 if policy == "drop_row" else 2000
    for text, rows_kept in ((complete, 2000), (holed, holed_kept)):
        tracemalloc.start()
        try:
            result = parse_responses(text, schema, missing_policy=policy)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.report.rows_read, result.report.rows_kept) == (2000, rows_kept)
        assert (peak - kept) / len(text) < 2.5


def _ocean50_with_missing_cells():
    schema = load_schema("ocean50")
    table = generate_synthetic(2000, schema, seed=11, noise=0.15)
    rows = [list(r) for r in table.rows]
    m = len(schema.columns)
    rng = random.Random("ingest-golden")
    for cell in rng.sample(range(len(rows) * m), round(len(rows) * m * 0.02)):
        rows[cell // m][cell % m] = schema.missing_code
    table = ResponseTable(ids=table.ids, columns=table.columns, rows=rows,
                          id_name=table.id_name)
    return schema, table.to_csv()


def _scores_digest(profiles):
    """SHA-256 of (raw, percent) dict pairs, with raw value types and the
    float.hex of each percentage."""
    scores = repr([
        (tuple((d, type(v).__name__, v) for d, v in raw.items()),
         tuple((d, v.hex()) for d, v in percent.items()))
        for raw, percent in profiles
    ])
    return hashlib.sha256(scores.encode()).hexdigest()


def _ingest_digests(text, schema, policy):
    result = parse_responses(text, schema, missing_policy=policy)
    parsed = repr((
        result.table.id_name, result.table.columns, result.table.ids, result.table.rows,
        tuple((a.name, a.categories) for a in result.dataset.attrs),
        tuple(zip(result.dataset.row_ids, result.dataset.rows)),
        (result.report.rows_read, result.report.rows_kept, result.report.rows_dropped),
    ))
    profiles = (score_profile(row, schema) for row in result.table.rows)
    return (hashlib.sha256(parsed.encode()).hexdigest(),
            _scores_digest((p.raw, p.percent) for p in profiles))


# SHA-256 of (parse result, every score_profile) per input and missing
# policy. The ocean50 input drops 1251 of its 2000 rows under drop_row.
INGEST_GOLDEN = {
    ("ocean50", "drop_row"): (
        "5080fad1fcbfa20c4f4ad59f0c86be6926aaa4227a07cfe67212730492756a27",
        "e90654880fa71ac303a5a18481563a2f92deb1f096eea65df97381ded0a483d7",
    ),
    ("ocean50", "impute_mode"): (
        "b0e66c42fc7c066b5d4f93cc17b9119f162bc1492920829b1b09333f2cb056a5",
        "c1c98d5452bba8962fc284249ff483026be7ed0ff4fb5fd0f0ba47ecd7d2090f",
    ),
    ("applicants", "drop_row"): (
        "3e00bad9219142b633abe0853a06ccfb56221e38b0786509ae42f24c01f1ec14",
        "963fae6c676d8cad386dd84f732a519787d87c864a896e825d01a98a3a5ceb11",
    ),
}


@pytest.mark.parametrize("source, policy", sorted(INGEST_GOLDEN))
def test_ingest_is_bit_identical_to_the_golden_record(source, policy, applicant_csv_text):
    if source == "ocean50":
        schema, text = _ocean50_with_missing_cells()
    else:
        schema, text = load_schema("scenario3"), applicant_csv_text
    assert _ingest_digests(text, schema, policy) == INGEST_GOLDEN[source, policy]
    dims = schema.dimensions
    table = parse_responses(text, schema, missing_policy=policy).table
    # The parsed table, scored on the parse's proof, gives every
    # score_profile value, type and float.hex.
    raw, percent = score_profiles(table, schema)
    batch = zip(zip(*(raw[d] for d in dims)), zip(*(percent[d] for d in dims)))
    assert _scores_digest((dict(zip(dims, r)), dict(zip(dims, p))) for r, p in batch) == (
        INGEST_GOLDEN[source, policy][1])
