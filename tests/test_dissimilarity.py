"""Unit tests for the simple-matching measure and its helpers."""

import random

import pytest
from hypothesis import given, strategies as st

from traitclust import (
    AlignmentError,
    AttributeSpec,
    CategoricalDataset,
    Prototype,
    simple_matching,
    within_cluster_difference,
)
from traitclust.dissimilarity import BitEncoder
from traitclust.kmodes import _nearest

import oracle


def _cat_attrs(m):
    return tuple(AttributeSpec(f"attr{j}", (0, 1, 2, 3, 4, 5)) for j in range(m))


class TestSimpleMatching:
    def test_counts_mismatching_positions(self):
        attrs = _cat_attrs(3)
        assert simple_matching((4, 5, 1), (3, 3, 5), attrs) == 3
        assert simple_matching((2, 2, 2), (2, 2, 2), attrs) == 0
        assert simple_matching((2, 2, 2), (2, 4, 3), attrs) == 2

    def test_accepts_rows_and_prototypes(self):
        attrs = _cat_attrs(2)
        assert simple_matching((1, 2), Prototype(values=(1, 3)), attrs) == 1

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


class TestValidation:
    def test_attribute_rejects_duplicate_codes(self):
        with pytest.raises(ValueError, match="^attribute 'Q1': duplicate category codes$"):
            AttributeSpec("Q1", categories=(1, 1))

    def test_attribute_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="^attribute '': category codes must be "
                                             "non-negative integers, got -1$"):
            AttributeSpec(categories=(-1,))


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
    return tuple(AttributeSpec(f"attr{j}", SPARSE_CODES) for j in range(m))


def _vector(rng, m, codes=SPARSE_CODES + OUTSIDE):
    return tuple(rng.choice(codes) for _ in range(m))


class TestSimpleKernelAgainstOracle:
    """simple runs on bitsets; the public entry points and the argmin fit
    runs (kmodes._nearest) must still count exactly the mismatching
    attributes, as oracle.hamming does."""

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
            encode = BitEncoder(m).encode
            got = _nearest(encode(record), [encode(z) for z in modes])
            assert got == (dists.index(best), m - best)
        assert ties > 50

    def test_within_cluster_difference(self):
        rng = random.Random(23)
        for _ in range(200):
            m, k, n = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 12)
            rows = [_vector(rng, m, SPARSE_CODES) for _ in range(n)]
            ds = CategoricalDataset(rows)
            modes = [_vector(rng, m) for _ in range(k)]
            assignments = tuple(rng.randrange(k) for _ in range(n))
            expected = sum(oracle.hamming(r, modes[l]) for r, l in zip(rows, assignments))
            assert within_cluster_difference(ds, modes, assignments) == float(expected)


class TestByteLayout:
    """When every category code is an int in [0, 8), BitEncoder gives code c
    of attribute j bit 8j + c; any other code takes a fresh bit, as under
    the first-appearance layout. Distances are the same under both."""

    def test_code_c_of_attribute_j_is_bit_8j_plus_c(self):
        encoder = BitEncoder(3, [(1, 2, 5), (0, 7), (3,)])
        assert encoder.bytewise
        assert encoder.encode((5, 0, 3)) == 1 << 5 | 1 << 8 | 1 << 19
        assert encoder.encode_rows([(1, 7, 3), (True, 0, 3)]) == [
            1 << 1 | 1 << 15 | 1 << 19, 1 << 1 | 1 << 8 | 1 << 19]
        assert encoder.positions == [[1, 2, 5], [8, 15], [19]]
        assert (encoder.attr_of[15], encoder.code_of[15]) == (1, 7)

    def test_other_codes_keep_the_first_appearance_layout(self):
        for categories in ([(0, 8)], [(0, 1.0)], [(0, True)]):
            assert not BitEncoder(1, categories).bytewise
        assert not BitEncoder(1).bytewise
        assert BitEncoder(0, []).bytewise

    def test_a_code_outside_the_categories_takes_a_fresh_bit(self):
        encoder = BitEncoder(2, [(1, 2), (1, 2)])
        assert encoder.encode((4, 2)) == 1 << 16 | 1 << 10
        assert encoder.encode((1, 40)) == 1 << 1 | 1 << 17
        assert encoder.code_of[16:] == [4, 40]

    def test_both_layouts_give_the_same_distances(self):
        rng = random.Random(24)
        codes = (0, 1, 2, 3, 4, 5, 6, 7)
        for _ in range(300):
            m = rng.randint(1, 6)
            rows = [tuple(rng.choice(codes) for _ in range(m)) for _ in range(8)]
            agreements = [m - oracle.hamming(x, z) for x, z in zip(rows, rows[1:])]
            bytewise = BitEncoder(m, [tuple(set(col)) for col in zip(*rows)])
            assert bytewise.bytewise
            for encoder in (bytewise, BitEncoder(m)):
                masks = encoder.encode_rows(rows)
                assert [(x & z).bit_count() for x, z in zip(masks, masks[1:])] == agreements
