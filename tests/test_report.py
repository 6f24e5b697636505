"""Tests for cluster labeling, share reports, fusion, and serialization."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from traitclust import (
    AlignmentError,
    ClusterLabeling,
    ClusterModel,
    ClusterSummary,
    FitConfig,
    PercentReport,
    Prototype,
    ReportError,
    TraitProfile,
    emit_report,
    fuse_profiles,
    label_clusters,
    load_schema,
    mean_percentages,
    parse_report,
    personality_percentages,
)

import oracle

COMPASS_SCHEMA = {
    "name": "compass",
    "dimensions": ["North", "South"],
    "items": [
        {"column": "Q1", "dimension": "North"},
        {"column": "Q2", "dimension": "South"},
    ],
}


def _profile(**percent):
    return TraitProfile(raw={}, percent=percent)


def _model(assignments, k):
    return ClusterModel(
        modes=(Prototype(values=(0,)),) * k,
        assignments=tuple(assignments),
        cost=0.0,
        epochs_run=1,
        converged=True,
        config=FitConfig(k=k),
    )


def _report(percent, provenance="questionnaire", dims=None):
    dims = tuple(dims or percent)
    return PercentReport(dimensions=dims, percent=dict(percent), provenance=provenance)


def _columns(profiles, schema):
    """The percent columns score_profiles would give for these profiles."""
    return {d: [p.percent[d] for p in profiles] for d in schema.dimensions}


# label_clusters and mean_percentages take TraitProfiles or percent columns.
FORMS = {"profiles": lambda profiles, schema: profiles, "columns": _columns}


@pytest.fixture(params=sorted(FORMS))
def form(request):
    return FORMS[request.param]


class TestLabelClusters:
    def test_labels_each_cluster_with_its_mean_dominant(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [
            _profile(North=80.0, South=20.0),
            _profile(North=60.0, South=40.0),
            _profile(North=10.0, South=90.0),
        ]
        labeling = label_clusters(_model((0, 0, 1), 2), form(profiles, schema), schema)
        assert labeling.n == 3
        assert [c.dominant for c in labeling.clusters] == ["North", "South"]
        assert labeling.clusters[0].size == 2
        assert labeling.clusters[0].mean_percent == {"North": 70.0, "South": 30.0}
        assert labeling.meta["k"] == 2
        assert labeling.meta["schema"] == "compass"

    def test_mean_ties_break_to_the_earliest_dimension(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [_profile(North=50.0, South=50.0)]
        labeling = label_clusters(_model((0,), 1), form(profiles, schema), schema)
        assert labeling.clusters[0].dominant == "North"

    def test_empty_cluster_cannot_be_labeled(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [_profile(North=50.0, South=50.0)]
        with pytest.raises(ReportError, match="cluster 1 has no members"):
            label_clusters(_model((0,), 2), form(profiles, schema), schema)

    @pytest.mark.parametrize("stray", [-1, 2])
    def test_an_assignment_outside_the_clusters_is_refused(self, form, stray):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [_profile(North=80.0, South=20.0), _profile(North=10.0, South=90.0),
                    _profile(North=60.0, South=40.0)]
        with pytest.raises(ReportError, match=r"^1 of 3 assignments lie outside 0\.\.1$"):
            label_clusters(_model((0, 1, stray), 2), form(profiles, schema), schema)

    def test_profile_count_must_match_assignments(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [_profile(North=50.0, South=50.0)]
        with pytest.raises(AlignmentError, match="1 profiles for 2 assigned rows"):
            label_clusters(_model((0, 0), 1), form(profiles, schema), schema)


THREE_SCHEMA = {
    "name": "three",
    "dimensions": ["A", "B", "C"],
    "items": [{"column": f"Q{j}", "dimension": d} for j, d in enumerate("ABC")],
}
# Profiles normalized from small raw scores: dimension means often tie, and
# values such as 100/3 do not add exactly, so the summation order shows.
RAW_SCORES = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_both_forms_match_the_per_row_reference(data):
    schema = load_schema(THREE_SCHEMA)
    dims = schema.dimensions
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 12))
    assignments = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    profiles = []
    for raw in data.draw(st.lists(RAW_SCORES, min_size=n, max_size=n)):
        profiles.append(_profile(**{d: 100.0 * v / sum(raw) for d, v in zip(dims, raw)}))
    model = _model(assignments, k)
    expected = oracle.reference_cluster_means(
        [p.percent for p in profiles], assignments, k, dims)
    for given_form in (profiles, _columns(profiles, schema)):
        if None in expected:
            with pytest.raises(ReportError) as info:
                label_clusters(model, given_form, schema)
            assert str(info.value) == (
                f"cluster {expected.index(None)} has no members; cannot label")
            continue
        labeling = label_clusters(model, given_form, schema)
        assert labeling.n == n
        for summary, (size, mean) in zip(labeling.clusters, expected):
            assert summary.size == size
            assert [v.hex() for v in summary.mean_percent.values()] == [
                v.hex() for v in mean.values()]
            assert summary.dominant == next(d for d in dims if mean[d] == max(mean.values()))
    assert mean_percentages(profiles, schema) == mean_percentages(
        _columns(profiles, schema), schema)


class TestPercentages:
    def test_shares_follow_cluster_sizes(self):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [
            _profile(North=90.0, South=10.0),
            _profile(North=90.0, South=10.0),
            _profile(North=90.0, South=10.0),
            _profile(North=20.0, South=80.0),
        ]
        labeling = label_clusters(_model((0, 0, 0, 1), 2), profiles, schema)
        rep = personality_percentages(labeling)
        assert rep.percent == {"North": 75.0, "South": 25.0}
        assert rep.provenance == "questionnaire"
        assert math.fsum(rep.percent.values()) == pytest.approx(100.0, abs=1e-9)

    def test_same_label_on_two_clusters_pools_their_sizes(self):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [_profile(North=90.0, South=10.0) for _ in range(3)]
        labeling = label_clusters(_model((0, 0, 1), 2), profiles, schema)
        rep = personality_percentages(labeling)
        assert rep.percent == {"North": 100.0, "South": 0.0}

    def test_mean_aggregate_averages_profiles(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        profiles = [
            _profile(North=80.0, South=20.0),
            _profile(North=40.0, South=60.0),
        ]
        rep = mean_percentages(form(profiles, schema), schema, meta={"n": 2})
        assert rep.percent == {"North": 60.0, "South": 40.0}
        assert rep.meta == {"aggregate": "mean", "schema": "compass", "n": 2}

    def test_mean_aggregate_needs_profiles(self, form):
        schema = load_schema(COMPASS_SCHEMA)
        with pytest.raises(ReportError):
            mean_percentages(form([], schema), schema)


class TestFusion:
    def test_weight_endpoints_return_the_inputs(self):
        a = _report({"North": 70.0, "South": 30.0})
        b = _report({"North": 10.0, "South": 90.0}, provenance="external")
        assert fuse_profiles(a, b, w=1.0).percent == a.percent
        assert fuse_profiles(a, b, w=0.0).percent == b.percent

    def test_interpolates_between_reports(self):
        a = _report({"North": 100.0, "South": 0.0})
        b = _report({"North": 0.0, "South": 100.0}, provenance="external")
        fused = fuse_profiles(a, b, w=0.25)
        assert fused.percent == {"North": 25.0, "South": 75.0}
        assert fused.provenance == "fused"
        assert fused.meta == {"fusion_weight": 0.25, "sources": ["questionnaire", "external"]}

    def test_rejects_out_of_range_weights(self):
        a = _report({"North": 50.0, "South": 50.0})
        with pytest.raises(ValueError):
            fuse_profiles(a, a, w=1.5)
        with pytest.raises(ValueError):
            fuse_profiles(a, a, w=-0.1)

    def test_rejects_mismatched_dimension_sets(self):
        a = _report({"North": 50.0, "South": 50.0})
        b = _report({"East": 50.0, "West": 50.0}, provenance="external")
        with pytest.raises(ReportError):
            fuse_profiles(a, b)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 99.9))
    def test_fused_reports_stay_valid(self, w, north):
        a = _report({"North": north, "South": 100.0 - north})
        b = _report({"North": 100.0 - north, "South": north}, provenance="external")
        fused = fuse_profiles(a, b, w)
        assert math.fsum(fused.percent.values()) == pytest.approx(100.0, abs=1e-9)
        for v in fused.percent.values():
            assert -1e-9 <= v <= 100.0 + 1e-9


class TestPercentReportValidation:
    def test_rejects_unknown_provenance(self):
        with pytest.raises(ReportError):
            _report({"North": 100.0}, provenance="oracle")

    def test_rejects_mismatched_keys(self):
        with pytest.raises(ReportError):
            PercentReport(dimensions=("North",), percent={"South": 100.0})

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ReportError):
            _report({"North": 150.0, "South": -50.0})

    def test_rejects_bad_sums(self):
        with pytest.raises(ReportError):
            _report({"North": 60.0, "South": 60.0})

    def test_rejects_duplicate_dimensions(self):
        # the piedata rows of ("N", "N") would add up to 200
        with pytest.raises(ReportError, match="duplicate dimensions"):
            PercentReport(dimensions=("N", "N"), percent={"N": 100.0})


class TestEmission:
    def test_json_document_shape(self):
        rep = _report({"North": 25.0, "South": 75.0})
        doc = json.loads(emit_report(rep, "json"))
        assert doc["kind"] == "percent_report"
        assert doc["dimensions"] == ["North", "South"]
        assert doc["percent"] == {"North": 25.0, "South": 75.0}
        assert doc["provenance"] == "questionnaire"

    def test_piedata_rounds_to_three_decimals(self):
        rep = _report({"North": 100 / 3, "South": 200 / 3})
        assert emit_report(rep, "piedata") == (
            "dimension,percentage\nNorth,33.333\nSouth,66.667\n"
        )

    def test_text_table_carries_a_total_line(self):
        rep = _report({"North": 25.0, "South": 75.0})
        text = emit_report(rep, "text")
        assert "North" in text and "South" in text
        assert text.rstrip().endswith("100.000")

    def test_unknown_format(self):
        with pytest.raises(ReportError):
            emit_report(_report({"North": 100.0}), "yaml")

    def test_unsupported_object(self):
        with pytest.raises(TypeError):
            emit_report({"North": 100.0})
        # a labeling is emitted through personality_percentages
        profiles = [_profile(North=90.0, South=10.0), _profile(North=20.0, South=80.0)]
        labeling = label_clusters(_model((0, 1), 2), profiles, load_schema(COMPASS_SCHEMA))
        with pytest.raises(TypeError):
            emit_report(labeling)


class TestParseReport:
    def test_round_trips_emitted_json(self):
        rep = _report({"North": 100 / 3, "South": 200 / 3})
        text = emit_report(rep, "json")
        parsed = parse_report(text)
        assert parsed.percent == rep.percent
        assert parsed.dimensions == rep.dimensions
        assert parsed.provenance == rep.provenance
        assert emit_report(parsed, "json") == text

    def test_accepts_external_documents(self):
        doc = {
            "kind": "percent_report",
            "dimensions": ["North", "South"],
            "percent": {"North": 40, "South": 60},
            "provenance": "external",
        }
        parsed = parse_report(json.dumps(doc))
        assert parsed.percent == {"North": 40.0, "South": 60.0}
        assert parsed.provenance == "external"

    def test_rejects_invalid_json(self):
        with pytest.raises(ReportError):
            parse_report("{half a document")

    def test_rejects_wrong_kind(self):
        with pytest.raises(ReportError):
            parse_report(json.dumps({"kind": "cluster_model"}))

    def test_rejects_missing_fields(self):
        with pytest.raises(ReportError):
            parse_report(json.dumps({"kind": "percent_report", "dimensions": ["N"]}))

    def test_rejects_non_object_percent(self):
        with pytest.raises(ReportError):
            parse_report(json.dumps({
                "kind": "percent_report", "dimensions": ["N"],
                "percent": [100.0], "provenance": "external",
            }))

    @pytest.mark.parametrize("fields", [
        {"dimensions": "NS"},
        {"dimensions": ["N", 5], "percent": {"N": 50.0, "5": 50.0}},
        {"percent": {"N": None, "S": 100.0}},
        {"percent": {"N": "50", "S": 50.0}},
        {"percent": {"N": True, "S": 99.0}},
        {"percent": {"N": 10**400, "S": 0.0}},
        {"metadata": 5},
    ])
    def test_rejects_mistyped_fields(self, fields):
        doc = {
            "kind": "percent_report", "dimensions": ["N", "S"],
            "percent": {"N": 50.0, "S": 50.0}, "provenance": "external",
        }
        doc.update(fields)
        with pytest.raises(ReportError):
            parse_report(json.dumps(doc))

    def test_rejects_duplicate_dimensions(self):
        with pytest.raises(ReportError, match="duplicate dimensions"):
            parse_report(json.dumps({
                "kind": "percent_report", "dimensions": ["N", "N"],
                "percent": {"N": 100.0}, "provenance": "external",
            }))

    def test_propagates_validation_of_parsed_values(self):
        with pytest.raises(ReportError):
            parse_report(json.dumps({
                "kind": "percent_report", "dimensions": ["N", "S"],
                "percent": {"N": 80.0, "S": 80.0}, "provenance": "external",
            }))


def test_cluster_labeling_dataclasses_are_immutable():
    summary = ClusterSummary(index=0, size=1, dominant="North", mean_percent={})
    labeling = ClusterLabeling(dimensions=("North",), clusters=(summary,), n=1)
    with pytest.raises(AttributeError):
        labeling.n = 2
