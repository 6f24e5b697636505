"""Unit tests for the two dissimilarity policies and their helpers."""

import random

import pytest
from hypothesis import given, strategies as st

from traitclust import (
    CATEGORICAL,
    AlignmentError,
    AttributeSpec,
    CategoricalDataset,
    CategoryWeightTable,
    DissimilarityPolicy,
    PolicyError,
    Prototype,
    Record,
    compute_category_weights,
    nearest_mode,
    simple_matching,
    weighted_matching,
    within_cluster_difference,
)

import oracle


def _cat_attrs(m):
    return tuple(AttributeSpec(index=j, kind=CATEGORICAL, categories=(0, 1, 2, 3, 4, 5)) for j in range(m))


class TestSimpleMatching:
    def test_counts_mismatching_positions(self):
        attrs = _cat_attrs(3)
        assert simple_matching((4, 5, 1), (3, 3, 5), attrs) == 3
        assert simple_matching((2, 2, 2), (2, 2, 2), attrs) == 0
        assert simple_matching((2, 2, 2), (2, 4, 3), attrs) == 2

    def test_accepts_records_and_prototypes(self):
        attrs = _cat_attrs(2)
        r = Record(values=(1, 2), row_id="x")
        p = Prototype(values=(1, 3), cluster_index=0)
        assert simple_matching(r, p, attrs) == 1

    def test_rejects_numeric_attributes(self):
        # "numeric" is not an attribute kind, so such a column never
        # reaches the measure
        with pytest.raises(ValueError):
            simple_matching((1.0,), (2.0,), (AttributeSpec(index=0, kind="numeric"),))

    def test_rejects_misaligned_vectors(self):
        with pytest.raises(AlignmentError):
            simple_matching((1, 2), (1, 2, 3), _cat_attrs(3))

    @given(st.data())
    def test_is_a_metric(self, data):
        m = data.draw(st.integers(1, 6))
        row = st.tuples(*[st.integers(0, 5)] * m)
        a, b, c = data.draw(row), data.draw(row), data.draw(row)
        attrs = _cat_attrs(m)
        dab = simple_matching(a, b, attrs)
        assert dab == simple_matching(b, a, attrs)
        assert 0 <= dab <= m
        assert (dab == 0) == (a == b)
        assert simple_matching(a, c, attrs) <= dab + simple_matching(b, c, attrs)


class TestWeightedMatching:
    def test_match_costs_complement_mismatch_costs_weight(self):
        # record (2, 2) against prototype (2, 3): the first attribute matches
        # at weight 0.8 (cost 0.2), the second mismatches at weight 0.4.
        attrs = _cat_attrs(2)
        table = CategoryWeightTable(entries={(0, 2, 0): 0.8, (1, 2, 0): 0.4})
        proto = Prototype(values=(2, 3), cluster_index=0)
        assert weighted_matching((2, 2), proto, attrs, table) == pytest.approx(0.6)

    def test_weight_lookup_uses_the_records_value(self):
        # mismatch cost must follow the record's category, not the prototype's
        attrs = _cat_attrs(1)
        table = CategoryWeightTable(entries={(0, 1, 0): 0.9, (0, 2, 0): 0.1})
        proto = Prototype(values=(2,), cluster_index=0)
        assert weighted_matching((1,), proto, attrs, table) == pytest.approx(0.9)

    def test_unseen_combinations_fall_back_to_default(self):
        attrs = _cat_attrs(1)
        table = CategoryWeightTable(entries={})
        proto = Prototype(values=(0,), cluster_index=3)
        assert weighted_matching((0,), proto, attrs, table) == pytest.approx(0.5)
        assert weighted_matching((1,), proto, attrs, table) == pytest.approx(0.5)

    def test_requires_a_prototype(self):
        with pytest.raises(PolicyError):
            weighted_matching((1,), (1,), _cat_attrs(1), CategoryWeightTable())

    def test_rejects_numeric_attributes(self):
        with pytest.raises(ValueError):
            attrs = (AttributeSpec(0, "numeric"),)
            weighted_matching((1.0,), Prototype((1.0,), 0), attrs, CategoryWeightTable())

    @given(st.data())
    def test_stays_within_attribute_count(self, data):
        m = data.draw(st.integers(1, 5))
        vals = data.draw(st.tuples(*[st.integers(0, 3)] * m))
        proto_vals = data.draw(st.tuples(*[st.integers(0, 3)] * m))
        entries = {
            (j, c, 0): data.draw(st.floats(0.0, 1.0))
            for j in range(m)
            for c in range(4)
        }
        table = CategoryWeightTable(entries=entries)
        d = weighted_matching(vals, Prototype(proto_vals, 0), _cat_attrs(m), table)
        assert 0.0 <= d <= m


class TestCategoryWeights:
    def test_pure_clusters_earn_the_clamped_maximum(self):
        # two pure clusters: within-cluster relative frequency 1, dataset
        # frequency 0.5, ratio 2 clamped to 1
        dataset = CategoricalDataset.from_values([(0,), (0,), (1,), (1,)])
        table = compute_category_weights(dataset, (0, 0, 1, 1), 2)
        assert table.weight(0, 0, 0) == 1.0
        assert table.weight(0, 1, 1) == 1.0

    def test_absent_category_scores_zero(self):
        dataset = CategoricalDataset.from_values([(0,), (0,), (1,), (1,)])
        table = compute_category_weights(dataset, (0, 0, 1, 1), 2)
        assert table.weight(0, 1, 0) == 0.0
        assert table.weight(0, 0, 1) == 0.0

    def test_unclamped_ratio(self):
        # category 0 fills half of cluster 1 but three quarters of the data
        dataset = CategoricalDataset.from_values([(0,), (0,), (1,), (0,)])
        table = compute_category_weights(dataset, (0, 0, 1, 1), 2)
        assert table.weight(0, 0, 1) == (1 / 2) / (3 / 4)

    def test_empty_cluster_takes_the_default(self):
        dataset = CategoricalDataset.from_values([(0,), (1,)])
        table = compute_category_weights(dataset, (0, 0), 2)
        assert table.weight(0, 0, 1) == 0.5
        assert table.weight(0, 1, 1) == 0.5

    def test_covers_every_combination(self):
        dataset = CategoricalDataset.from_values([(0, 1), (1, 0), (2, 1)])
        table = compute_category_weights(dataset, (0, 1, 0), 2)
        assert set(table.entries) == {
            (j, c, l)
            for j, cats in ((0, (0, 1, 2)), (1, (1, 0)))
            for c in cats
            for l in (0, 1)
        }

    def test_rejects_misaligned_assignments(self):
        dataset = CategoricalDataset.from_values([(0,), (1,)])
        with pytest.raises(AlignmentError):
            compute_category_weights(dataset, (0,), 2)
        with pytest.raises(ValueError):
            compute_category_weights(dataset, (0, 5), 2)

    @given(st.data())
    def test_all_weights_in_unit_interval(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 4))
        rows = [
            tuple(data.draw(st.integers(0, 2)) for _ in range(m)) for _ in range(n)
        ]
        assignments = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
        table = compute_category_weights(CategoricalDataset.from_values(rows), assignments, k)
        for w in table.entries.values():
            assert 0.0 <= w <= 1.0


class TestValidation:
    def test_policy_rejects_unknown_mode(self):
        for mode in ("fancy", "mixed"):
            with pytest.raises(PolicyError):
                DissimilarityPolicy(mode=mode)

    def test_attribute_rejects_unknown_kind(self):
        for kind in ("ordinal", "numeric"):
            with pytest.raises(ValueError):
                AttributeSpec(index=0, kind=kind)

    def test_attribute_rejects_duplicate_codes(self):
        with pytest.raises(ValueError):
            AttributeSpec(index=0, kind=CATEGORICAL, categories=(1, 1))

    def test_attribute_rejects_negative_codes(self):
        with pytest.raises(ValueError):
            AttributeSpec(index=0, kind=CATEGORICAL, categories=(-1,))

    def test_weight_table_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            CategoryWeightTable(entries={(0, 0, 0): 1.5})
        with pytest.raises(ValueError):
            CategoryWeightTable(default_weight=-0.1)


def test_simple_matching_agrees_with_reference_hamming():
    rng = random.Random(99)
    attrs = _cat_attrs(4)
    for _ in range(200):
        a = tuple(rng.randrange(6) for _ in range(4))
        b = tuple(rng.randrange(6) for _ in range(4))
        assert simple_matching(a, b, attrs) == oracle.hamming(a, b)


# Category codes need not be dense: the bitset kernel gives every code its
# own bit, whatever its value. OUTSIDE holds codes no attribute lists,
# which public callers may still pass.
SPARSE_CODES = (7, 2, 40)
OUTSIDE = (0, 41, 1000)


def _sparse_attrs(m):
    return tuple(AttributeSpec(index=j, kind=CATEGORICAL, categories=SPARSE_CODES)
                 for j in range(m))


def _vector(rng, m, codes=SPARSE_CODES + OUTSIDE):
    return tuple(rng.choice(codes) for _ in range(m))


class TestSimpleKernelAgainstOracle:
    """simple runs on bitsets; every public entry point must still count
    exactly the mismatching attributes, as oracle.hamming does."""

    def test_simple_matching(self):
        rng = random.Random(21)
        for _ in range(500):
            m = rng.randint(1, 8)
            a, b = _vector(rng, m), _vector(rng, m)
            assert simple_matching(a, b, _sparse_attrs(m)) == oracle.hamming(a, b)

    def test_codes_outside_the_categories_match_only_themselves(self):
        attrs = _sparse_attrs(3)
        assert simple_matching((99, 99, 7), (99, 98, 7), attrs) == 1
        assert simple_matching((99, 7, 2), (98, 40, 2), attrs) == 2
        assert simple_matching((1000, 0, 41), (1000, 0, 41), attrs) == 0

    def test_nearest_mode_takes_the_lowest_index_among_ties(self):
        rng = random.Random(22)
        ties = 0
        for _ in range(500):
            m, k = rng.randint(1, 6), rng.randint(1, 6)
            record = _vector(rng, m)
            modes = [_vector(rng, m) for _ in range(k)]
            dists = [oracle.hamming(record, z) for z in modes]
            best = min(dists)
            ties += dists.count(best) > 1
            got = nearest_mode(record, modes, _sparse_attrs(m), DissimilarityPolicy())
            assert got == (dists.index(best), best)
        assert ties > 50

    def test_within_cluster_difference(self):
        rng = random.Random(23)
        for _ in range(200):
            m, k, n = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 12)
            attrs = _sparse_attrs(m)
            rows = [_vector(rng, m, SPARSE_CODES) for _ in range(n)]
            ds = CategoricalDataset(attrs=attrs, rows=[Record(r) for r in rows])
            modes = [_vector(rng, m) for _ in range(k)]
            assignments = tuple(rng.randrange(k) for _ in range(n))
            expected = sum(oracle.hamming(r, modes[l]) for r, l in zip(rows, assignments))
            assert within_cluster_difference(ds, modes, assignments) == float(expected)
