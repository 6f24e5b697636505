"""Unit and property tests for dataset construction and the clustering fit."""

import hashlib
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from traitclust import (
    CATEGORICAL,
    AlignmentError,
    CategoricalDataset,
    FitConfig,
    InfeasibleConfigError,
    Prototype,
    elbow_scan,
    fit,
    init_modes,
    select_k,
    within_cluster_difference,
)
from traitclust import kmodes
from traitclust.dissimilarity import BitEncoder
from traitclust.kmodes import INIT_STRATEGIES, _Cluster, _nearest
from traitclust.survey import generate_synthetic, load_schema, parse_responses

import oracle
from conftest import random_dataset, random_rows


class TestDatasetConstruction:
    def test_from_values_keeps_cells_as_codes(self):
        ds = CategoricalDataset.from_values([(2, 5), (2, 1)])
        assert ds.rows[0] == (2, 5)
        assert ds.attrs[0].categories == (2,)
        assert ds.attrs[1].categories == (5, 1)

    def test_from_values_defaults_row_ids_to_ordinals(self):
        ds = CategoricalDataset.from_values([(1,), (2,)])
        assert ds.row_ids == (0, 1)
        assert CategoricalDataset(ds.rows).row_ids == (0, 1)

    def test_rejects_row_ids_of_another_length(self):
        ds = CategoricalDataset.from_values([(1,), (2,)])
        with pytest.raises(AlignmentError, match="^3 row ids for 2 rows$"):
            CategoricalDataset(ds.rows, row_ids="xyz")
        with pytest.raises(AlignmentError):
            CategoricalDataset.from_values(ds.rows, row_ids="x")

    def test_from_values_refuses_names_of_another_length(self):
        for names in (["a"], ["a", "b", "c"]):
            with pytest.raises(AlignmentError,
                               match="^kinds/names do not match the attribute count$"):
                CategoricalDataset.from_values([(1, 2)], names=names)

    def test_an_empty_table_takes_its_attributes_from_the_names(self):
        ds = CategoricalDataset.from_values([], names=["a", "b"])
        assert (ds.n, [a.name for a in ds.attrs]) == (0, ["a", "b"])

    def test_from_raw_densifies_by_first_appearance(self):
        ds = CategoricalDataset.from_raw([("b", 10), ("a", 20), ("b", 10)])
        assert ds.rows == ((0, 0), (1, 1), (0, 0))
        assert ds.attrs[0].categories == (0, 1)

    def test_rejects_ragged_rows(self):
        with pytest.raises(AlignmentError):
            CategoricalDataset.from_values([(1, 2), (1,)])
        with pytest.raises(AlignmentError):
            CategoricalDataset.from_raw([("a",), ("a", "b")])

    # One row per case: the rows, names and row ids, then either each
    # attribute's (name, categories) or the error both paths raise.
    @pytest.mark.parametrize("rows, names, row_ids, expected", [
        ([(2, 5), (2, 1), (3, 5)], None, "xyz", [("attr0", (2, 3)), ("attr1", (5, 1))]),
        ([(0, 4)], ("a", "b"), None, [("a", (0,)), ("b", (4,))]),
        ([], ["a", "b"], None, [("a", ()), ("b", ())]),
        ([], None, (), []),
        ([()] * 3, [], None, []),
        # the first ragged row in row order, before any other check
        ([(0, 5), (1,), (2, 5, 3)], ["a"], "x", (AlignmentError,
                                                  "ragged input row of length 1, expected 2")),
        ([(1, 2)], ["a"], None, (AlignmentError, "kinds/names do not match the attribute count")),
        ([(1,), (2,)], None, "xyz", (AlignmentError, "3 row ids for 2 rows")),
        ([(0, 5), (0, [5])], None, None, (TypeError, "unhashable type: 'list'")),
        ([(1, -1)], ["a", "b"], None, (ValueError, "attribute 'b': category codes must be "
                                                   "non-negative integers, got -1")),
        ([(1.0,), (1,)], None, None, (ValueError, "attribute 'attr0': category codes must "
                                                  "be non-negative integers, got 1.0")),
    ])
    def test_the_constructor_derives_the_attributes_as_from_values_does(
            self, rows, names, row_ids, expected):
        def build(make):
            try:
                ds = make()
            except Exception as exc:
                return type(exc), str(exc)
            assert ds.row_ids == tuple(range(ds.n) if row_ids is None else row_ids)
            assert ds.names == tuple(a.name for a in ds.attrs)
            return ds

        direct = build(lambda: CategoricalDataset(rows, names, row_ids))
        assert direct == build(lambda: CategoricalDataset.from_values(
            rows, names=names, row_ids=row_ids))
        if isinstance(direct, CategoricalDataset):
            assert direct.rows == tuple(rows)
            direct = [(a.name, a.categories) for a in direct.attrs]
        assert direct == expected


def _mode_of(values):
    """The mode fit's cluster state keeps for a one-attribute multiset,
    added in order to a cluster seeded with the first value. Every value is
    encoded before the cluster is built, as fit does."""
    encoder = BitEncoder(1)
    masks = [encoder.encode((v,)) for v in values]
    cluster = _Cluster(values[:1], encoder)
    for x in masks:
        cluster.add(x)
    return cluster.mode[0]


class TestModeUpdate:
    def test_majority_wins(self):
        assert _mode_of([5, 5, 1]) == 5

    def test_ties_break_to_the_lowest_code(self):
        assert _mode_of([2, 3, 2, 3]) == 2
        assert _mode_of([3, 2]) == 2

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=50))
    def test_matches_brute_force_majority(self, values):
        assert _mode_of(values) == oracle.majority_value(values)


class TestIncrementalMode:
    """fit's clusters keep their modes incrementally: an add can only
    promote the code it adds, and a remove rescans an attribute only when
    it takes a member from that attribute's mode code and the other codes
    then hold at least half the members (``2 * rest[j] >= size``)."""

    @staticmethod
    def cluster(*members, later=()):
        """A cluster seeded with the first member and holding them all,
        under an encoder that already holds every code of members and of
        the rows a test adds later."""
        encoder = BitEncoder(len(members[0]))
        masks = [encoder.encode(row) for row in members]
        for row in later:
            encoder.encode(row)
        c = _Cluster(members[0], encoder)
        for x in masks:
            c.add(x)
        assert c.mask == encoder.encode(c.mode)
        return c, encoder

    def test_adding_a_lower_code_that_ties_the_mode_switches_to_it(self):
        c, encoder = self.cluster((5, 1), (5, 1), (3, 1))
        assert c.mode == [5, 1]
        c.add(encoder.encode((3, 1)))
        assert c.mode == [3, 1]
        assert c.mask == encoder.encode((3, 1))

    def test_adding_a_higher_code_that_ties_the_mode_leaves_it(self):
        c, encoder = self.cluster((5, 1), (5, 1), (8, 1))
        c.add(encoder.encode((8, 1)))
        assert c.mode == [5, 1]
        assert c.mask == encoder.encode((5, 1))

    def test_remove_that_drops_the_mode_below_another_code_rescans(self):
        c, encoder = self.cluster((4, 0), (4, 0), (6, 0), (6, 0))
        assert c.mode == [4, 0]
        c.remove(encoder.encode((4, 0)))
        assert c.mode == [6, 0]
        assert c.mask == encoder.encode((6, 0))

    def test_remove_into_a_tie_picks_the_lowest_code_among_the_maxima(self):
        c, encoder = self.cluster((6, 0), (6, 0), (6, 0), (4, 0), (4, 0), (9, 0), (9, 0))
        assert c.mode == [6, 0]
        c.remove(encoder.encode((6, 0)))
        assert c.mode == [4, 0]
        assert c.mask == encoder.encode((4, 0))

    def test_remove_into_a_tie_keeps_a_mode_that_is_the_lowest(self):
        c, encoder = self.cluster((2, 0), (2, 0), (2, 0), (5, 0), (5, 0))
        c.remove(encoder.encode((2, 0)))
        assert c.mode == [2, 0]

    def test_remove_onto_the_boundary_promotes_a_lower_code_that_ties(self):
        c, encoder = self.cluster((6, 0), (6, 0), (6, 0), (4, 0), (4, 0))
        c.remove(encoder.encode((6, 0)))
        assert (c.size, c.rest) == (4, [2, 0])
        assert c.mode == [4, 0]
        assert c.mask == encoder.encode((4, 0))

    def test_remove_onto_the_boundary_keeps_the_mode_over_a_higher_code_that_ties(self):
        c, encoder = self.cluster((6, 0), (6, 0), (6, 0), (9, 0), (9, 0))
        c.remove(encoder.encode((6, 0)))
        assert (c.size, c.rest) == (4, [2, 0])
        assert c.mode == [6, 0]
        assert c.mask == encoder.encode((6, 0))

    def test_remove_rescans_only_agreeing_attributes_at_the_boundary(self, monkeypatch):
        # Removing (1, 1, 9) leaves 4 members. Attribute 0 has 2 * rest = 2
        # < 4, so its mode stands. Attribute 1 reaches the boundary and is
        # rescanned. Attribute 2 reaches it too, but the removed row took a
        # member from another code there, so the mode code kept its count.
        c, encoder = self.cluster((1, 1, 1), (1, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 9))
        assert (c.mode, c.rest) == ([1, 1, 1], [1, 2, 3])
        rescanned = []
        real = _Cluster._rescan
        monkeypatch.setattr(_Cluster, "_rescan",
                            lambda self, j, top: (rescanned.append(j), real(self, j, top)))
        c.remove(encoder.encode((1, 1, 9)))
        assert (c.size, c.rest, rescanned) == (4, [1, 2, 2], [1])
        assert c.mode == [1, 1, 1]

    def test_an_emptied_cluster_keeps_its_mode_until_the_next_add(self):
        c, encoder = self.cluster((3, 4), later=[(7, 4)])
        c.remove(encoder.encode((3, 4)))
        assert (c.size, c.mode) == (0, [3, 4])
        c.add(encoder.encode((7, 4)))
        assert c.mode == [7, 4]
        assert c.mask == encoder.encode((7, 4))

    def test_mask_tracks_the_mode_through_random_sequences(self):
        rng = random.Random(31)
        codes = (7, 2, 40, 0)
        for case in range(300):
            m = rng.randint(1, 5)
            encoder = BitEncoder(m)
            for code in codes:  # every code on every attribute, before the cluster
                encoder.encode((code,) * m)
            c = _Cluster([rng.choice(codes) for _ in range(m)], encoder)
            members = []
            for _ in range(rng.randint(1, 40)):
                if members and rng.random() < 0.45:
                    c.remove(encoder.encode(members.pop(rng.randrange(len(members)))))
                else:
                    members.append(tuple(rng.choice(codes) for _ in range(m)))
                    c.add(encoder.encode(members[-1]))
                assert c.mask == encoder.encode(c.mode), f"case {case}"
                if members:
                    expected = [oracle.majority_value([r[j] for r in members]) for j in range(m)]
                    assert c.mode == expected, f"case {case}"


class TestInitModes:
    def test_random_rows_samples_distinct_rows(self):
        ds = CategoricalDataset.from_values([(0, 0), (0, 0), (1, 1), (2, 2)])
        protos = init_modes(ds, 3, "random_rows", seed=5)
        vals = [p.values for p in protos]
        assert len(set(vals)) == 3
        assert all(v in {(0, 0), (1, 1), (2, 2)} for v in vals)

    def test_random_rows_is_seed_deterministic(self):
        ds = random_dataset(random.Random(1), 20, 3, 4)
        a = [p.values for p in init_modes(ds, 4, "random_rows", seed=9)]
        b = [p.values for p in init_modes(ds, 4, "random_rows", seed=9)]
        assert a == b

    def test_density_starts_at_the_most_frequent_row(self):
        # (1, 1) carries the highest summed value frequency; the second seed
        # maximizes the minimum mismatch distance to it
        ds = CategoricalDataset.from_values([(1, 1), (1, 1), (1, 2), (2, 3)])
        protos = init_modes(ds, 2, "density", seed=0)
        assert protos[0].values == (1, 1)
        assert protos[1].values == (2, 3)

    def test_more_clusters_than_rows_is_infeasible(self):
        ds = CategoricalDataset.from_values([(1,), (2,)])
        with pytest.raises(InfeasibleConfigError):
            init_modes(ds, 3)

    @pytest.mark.parametrize("init", INIT_STRATEGIES)
    def test_more_clusters_than_distinct_rows_is_infeasible(self, init):
        ds = CategoricalDataset.from_values([(1,), (1,), (1,)])
        with pytest.raises(InfeasibleConfigError):
            init_modes(ds, 2, init)
        # 3 distinct rows in 6: density seeds past them would repeat (0, 0).
        ds = CategoricalDataset.from_values([(0, 0)] * 3 + [(0, 1)] * 2 + [(1, 0)])
        with pytest.raises(InfeasibleConfigError,
                           match=r"^k=5 exceeds the number of distinct rows \(3\)$"):
            fit(ds, FitConfig(k=5, init=init))


class TestNearestMode:
    def test_ties_go_to_the_lowest_index(self):
        encode = BitEncoder(2).encode
        assert _nearest(encode((0, 1)), [encode((0, 0)), encode((1, 1))]) == (0, 1)


class TestFitValidation:
    def test_empty_dataset(self):
        ds = CategoricalDataset.from_values([], kinds=[CATEGORICAL])
        with pytest.raises(ValueError):
            fit(ds, FitConfig(k=1))

    def test_k_above_row_count_is_infeasible(self):
        ds = CategoricalDataset.from_values([(0,), (1,)])
        with pytest.raises(InfeasibleConfigError):
            fit(ds, FitConfig(k=3))

    def test_k_below_one_is_infeasible(self):
        with pytest.raises(InfeasibleConfigError):
            FitConfig(k=0)

    def test_a_dataset_refuses_a_numeric_attribute_before_any_fit(self):
        # the dataset refuses the "numeric" kind before a fit can see it
        with pytest.raises(ValueError) as info:
            ds = CategoricalDataset.from_values([(1, 0)], kinds=["numeric", CATEGORICAL])
            fit(ds, FitConfig(k=1))
        assert type(info.value) is ValueError
        assert str(info.value) == ("unknown attribute kind 'numeric'; "
                                   "only 'categorical' is supported")

    def test_config_rejects_bad_settings(self):
        # simple matching is the only measure, so policy is no setting
        with pytest.raises(TypeError):
            FitConfig(k=1, policy="weighted")
        with pytest.raises(ValueError):
            FitConfig(k=1, init="kmeanspp")
        with pytest.raises(ValueError):
            FitConfig(k=1, max_epochs=0)
        with pytest.raises(ValueError):
            FitConfig(k=1, restarts=0)
        with pytest.raises(ValueError):
            FitConfig(k=1, seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.0), ("k", True), ("k", "2"), ("k", None),
        ("restarts", True), ("restarts", 2.0),
        ("max_epochs", False), ("max_epochs", 10.0),
        ("seed", True), ("seed", 5.0), ("seed", "5"),
    ])
    def test_config_counts_must_be_plain_ints(self, name, value):
        # 2.0 == 2 and True == 1, so either would also share a memo key with
        # the int config and make a fit's result depend on earlier fits.
        with pytest.raises(ValueError) as excinfo:
            FitConfig(**{"k": 1, name: value})
        assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("fields, error, message", [
        ({"k": 0}, InfeasibleConfigError, "k must be >= 1, got 0"),
        ({"restarts": 0}, ValueError, "restarts must be >= 1, got 0"),
        ({"max_epochs": -3}, ValueError, "max_epochs must be >= 1, got -3"),
        ({"seed": 2**64}, ValueError, f"seed must be an integer in [0, 2**64), got {2**64}"),
    ])
    def test_config_range_messages(self, fields, error, message):
        with pytest.raises(error) as excinfo:
            FitConfig(**{"k": 1, **fields})
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


class TestFit:
    def test_single_cluster_cost_counts_mismatches_to_the_mode(self):
        # rows (1,1) and (1,2): the mode ties to (1,1), one mismatch remains
        ds = CategoricalDataset.from_values([(1, 1), (1, 2)])
        model = fit(ds, FitConfig(k=1))
        assert model.modes[0].values == (1, 1)
        assert model.cost == 1.0
        assert model.converged

    def test_is_bit_reproducible(self):
        ds = random_dataset(random.Random(7), 30, 4, 3)
        cfg = FitConfig(k=3, seed=11, restarts=4)
        # a second dataset, so the second fit runs rather than reading the memo
        a, b = fit(ds, cfg), fit(CategoricalDataset.from_values(ds.rows), cfg)
        assert a.assignments == b.assignments
        assert a.cost == b.cost
        assert tuple(p.values for p in a.modes) == tuple(p.values for p in b.modes)

    def test_perfectly_separable_data_reaches_zero_cost(self):
        rows = [(0, 0, 0)] * 5 + [(1, 1, 1)] * 5 + [(2, 2, 2)] * 5
        ds = CategoricalDataset.from_values(rows)
        model = fit(ds, FitConfig(k=3, restarts=5))
        assert model.cost == 0.0
        assert len(set(model.assignments)) == 3

    def test_restarts_never_hurt(self):
        rng = random.Random(31)
        for case in range(20):
            ds = random_dataset(rng, 12, 3, 3)
            one = fit(ds, FitConfig(k=2, seed=case, restarts=1))
            many = fit(ds, FitConfig(k=2, seed=case, restarts=8))
            assert many.cost <= one.cost

    def test_reported_cost_matches_a_fresh_evaluation(self):
        ds = random_dataset(random.Random(13), 25, 4, 3)
        model = fit(ds, FitConfig(k=3, seed=2))
        assert model.cost == within_cluster_difference(ds, model.modes, model.assignments)

    def test_density_fits_once_whatever_the_restarts(self, monkeypatch):
        # density init ignores the seed, so every restart draws restart 0's
        # seeds and restart 0 already is the model
        ds = random_dataset(random.Random(23), 40, 4, 3)
        calls = []
        real = kmodes._fit_once

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        def drawn(init, seed):
            return tuple(p.values for p in init_modes(ds, 3, init, seed))

        monkeypatch.setattr(kmodes, "_fit_once", counting)
        cfg = FitConfig(k=3, init="density", seed=4, restarts=3)
        model = fit(ds, cfg)
        assert calls == [drawn("density", 4)]
        assert model.config.restarts == 3
        single = fit(ds, FitConfig(k=3, init="density", seed=4, restarts=1))
        assert (model.modes, model.assignments, model.cost, model.epochs_run,
                model.converged) == (single.modes, single.assignments, single.cost,
                                     single.epochs_run, single.converged)
        calls.clear()
        fit(ds, FitConfig(k=3, init="random_rows", seed=4, restarts=3))
        assert calls == [drawn("random_rows", seed) for seed in (4, 5, 6)]
        assert len(set(calls)) == 3

    def test_density_draws_once_however_many_restarts(self):
        # one draw whatever the restarts, so 10**9 of them cost no loop
        ds = random_dataset(random.Random(23), 40, 4, 3)
        codes = kmodes._encode_rows(ds)[1]
        draws = kmodes._seed_pool(ds, codes, "density", 1, 3)
        assert draws(3, 7, 10**9) == [tuple(kmodes._density_seeds(ds, 3, codes))]

    def test_cost_from_the_cluster_state_equals_both_recounts(self):
        # fit sums the clusters' rest counts; _total, which
        # within_cluster_difference runs, counts every row against its mode.
        rng = random.Random(19)
        for case in range(150):
            n, m = rng.randint(3, 40), rng.randint(1, 5)
            ds = random_dataset(rng, n, m, rng.randint(1, 4))
            init = rng.choice(("random_rows", "density"))
            k = rng.randint(1, min(5, n if init == "density" else len(set(ds.rows))))
            config = FitConfig(k=k, init=init, seed=case, restarts=rng.randint(1, 3),
                               max_epochs=rng.choice((1, 100)))
            if k > len(set(ds.rows)):  # a density draw past the distinct rows
                with pytest.raises(InfeasibleConfigError):
                    fit(ds, config)
                continue
            model = fit(ds, config)
            encoder, codes = kmodes._encode_rows(ds)
            masks = [encoder.encode(p.values) for p in model.modes]
            assert model.cost == kmodes._total(m, codes, masks, model.assignments), case
            assert model.cost == within_cluster_difference(ds, model.modes, model.assignments)
            assert fit(CategoricalDataset.from_values(ds.rows), config) == model

    def test_no_cluster_is_ever_left_empty(self):
        rng = random.Random(17)
        for case in range(50):
            n = rng.randint(2, 30)
            rows = random_rows(rng, n, 2, 2)
            distinct = len(set(rows))
            k = rng.randint(1, min(4, distinct))
            model = fit(CategoricalDataset.from_values(rows), FitConfig(k=k, seed=case))
            assert set(model.assignments) == set(range(k))

    def test_a_restart_that_repeats_an_earlier_draw_is_skipped(self, monkeypatch):
        # With 2 distinct rows and k=1 six restarts draw only 2 seeds.
        ds = CategoricalDataset.from_values([(0, 1), (1, 1), (0, 1), (0, 1), (1, 1)])
        draws = [tuple(p.values for p in init_modes(ds, 1, seed=seed)) for seed in range(6)]
        assert len(set(draws)) == 2 < len(draws)
        singles = [fit(ds, FitConfig(k=1, seed=seed)) for seed in range(6)]
        best = min(singles, key=lambda model: model.cost)  # the earliest on ties
        calls = []
        real = kmodes._fit_once
        monkeypatch.setattr(kmodes, "_fit_once",
                            lambda *args: calls.append(args[2]) or real(*args))
        model = fit(ds, FitConfig(k=1, restarts=6))
        assert calls == list(dict.fromkeys(draws))
        assert (model.modes, model.assignments, model.cost, model.epochs_run,
                model.converged) == (best.modes, best.assignments, best.cost,
                                     best.epochs_run, best.converged)

    def test_distinct_seeds_leave_no_cluster_empty(self):
        # Every dataset of n <= 4 rows over m=2 attributes of 3 codes, and
        # every ordered choice of k <= 3 distinct rows as seeds: after the
        # allocation pass (max_epochs=0) every cluster has a member. Two
        # exact symmetries shrink the search: the fit uses only the order of
        # codes, so each column takes the codes 0..c-1 without gaps, and it
        # treats the attributes alike, so the first column is at most the
        # second.
        for n in range(1, 5):
            columns = [c for c in product(range(3), repeat=n)
                       if set(c) == set(range(max(c) + 1))]
            for a, b in product(columns, repeat=2):
                if a > b:
                    continue
                rows = list(zip(a, b))
                encoder, codes = kmodes._encode_rows(CategoricalDataset.from_values(rows))
                distinct = list(dict.fromkeys(rows))
                for k in range(1, min(3, len(distinct)) + 1):
                    for seeds in permutations(distinct, k):
                        assignments = kmodes._fit_once(encoder, codes, seeds, 0)[1]
                        assert set(assignments) == set(range(k)), (rows, seeds)

    def test_density_init_fits(self):
        ds = random_dataset(random.Random(37), 15, 3, 3)
        model = fit(ds, FitConfig(k=3, init="density"))
        assert model.converged
        assert set(model.assignments) == {0, 1, 2}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fit_invariants_hold_on_random_data(self, data):
        n = data.draw(st.integers(2, 25))
        m = data.draw(st.integers(1, 4))
        rows = [
            tuple(data.draw(st.integers(0, 2)) for _ in range(m)) for _ in range(n)
        ]
        distinct = len(set(rows))
        k = data.draw(st.integers(1, min(3, distinct)))
        seed = data.draw(st.integers(0, 1000))
        ds = CategoricalDataset.from_values(rows)
        model = fit(ds, FitConfig(k=k, seed=seed))
        assert len(model.assignments) == n
        assert set(model.assignments) == set(range(k))
        assert model.cost == within_cluster_difference(ds, model.modes, model.assignments)
        assert model.cost >= 0.0
        assert model.converged


def _golden_dataset():
    rng = random.Random(61)
    return CategoricalDataset.from_values(
        [tuple(rng.randrange(3) for _ in range(5)) for _ in range(40)])


# (cost.hex(), epochs_run, converged, sha256 of repr((modes, assignments))).
# A change to the measure, the mode update or the epoch loop that alters any
# bit of a fit shows here.
GOLDEN_FITS = {
    ("simple", "random_rows"): (
        "0x1.4400000000000p+6", 3, True,
        "a21895424906c2f03da613c9dacc511921b35e9fc11a06649d1c0cfb8d525988"),
    ("simple", "density"): (
        "0x1.5000000000000p+6", 2, True,
        "89231d8cfe80db2f30040b47af38e96f3656bfe99d295dc62610589d6071a981"),
}


@pytest.mark.parametrize("name, init", sorted(GOLDEN_FITS))
def test_fit_is_bit_identical_to_the_golden_record(name, init):
    model = fit(_golden_dataset(), FitConfig(k=3, init=init, seed=5, restarts=3))
    digest = hashlib.sha256(
        repr((tuple(p.values for p in model.modes), model.assignments)).encode()
    ).hexdigest()
    assert (model.cost.hex(), model.epochs_run, model.converged, digest) == GOLDEN_FITS[name, init]


def _golden_record(model):
    digest = hashlib.sha256(
        repr((tuple(p.values for p in model.modes), model.assignments)).encode()
    ).hexdigest()
    return (model.cost.hex(), model.epochs_run, model.converged, digest)


@pytest.fixture(scope="module")
def ocean50_population():
    """The paper's synthetic population at a realistic width: 50 Likert
    items, five planted traits, answer noise 0.15, 1000 respondents."""
    table = generate_synthetic(1000, load_schema("ocean50"), seed=12, noise=0.15)
    return CategoricalDataset.from_values(table.rows)


# The same record as GOLDEN_FITS, on ocean50_population with k=5, seed=5 and
# 2 restarts. random_rows moves rows in its first epoch; density lands on the
# planted traits and converges at once.
OCEAN50_GOLDEN_FITS = {
    ("simple", "random_rows"): (
        "0x1.1370000000000p+13", 2, True,
        "dbb607084b69c7714848ef90696bd82e57193f040470c55d2e11ca56f830fbcf"),
    ("simple", "density"): (
        "0x1.7520000000000p+12", 1, True,
        "e9186e66174baeb92fbd9c1333b9686fdc89e802a9fa83212041916ce668219b"),
}

OCEAN50_GOLDEN_ELBOW = [
    (1, "0x1.c638000000000p+13"), (2, "0x1.93c8000000000p+13"),
    (3, "0x1.62a0000000000p+13"), (4, "0x1.1950000000000p+13"),
    (5, "0x1.7520000000000p+12"), (6, "0x1.7460000000000p+12"),
]


@pytest.mark.parametrize("name, init", sorted(OCEAN50_GOLDEN_FITS))
def test_ocean50_fit_is_bit_identical_to_the_golden_record(ocean50_population, name, init):
    config = FitConfig(k=5, init=init, seed=5, restarts=2)
    assert _golden_record(fit(ocean50_population, config)) == OCEAN50_GOLDEN_FITS[name, init]


@pytest.fixture
def reference_checked(monkeypatch):
    """Check every _fit_once run against oracle.reference_fit, under the
    layout the fit encoded its rows in and under the first-appearance
    layout. Returns a list that gains, per run, whether the fit's layout
    was bytewise."""
    real_encode, real_fit_once = kmodes._encode_rows, kmodes._fit_once
    encoded, checked = [], []

    def encode(dataset):
        encoder, codes = real_encode(dataset)
        encoded[:] = [codes, dataset.rows]
        return encoder, codes

    def fit_once(encoder, codes, seeds, max_epochs):
        assert codes is encoded[0]  # _models fits the rows it last encoded
        rows = encoded[1]
        expected = oracle.reference_fit(rows, seeds, max_epochs)
        first_appearance = BitEncoder(len(seeds[0]))
        run = real_fit_once(encoder, codes, seeds, max_epochs)
        for modes, *rest in (run, real_fit_once(
                first_appearance, first_appearance.encode_rows(rows), seeds, max_epochs)):
            assert (tuple(p.values for p in modes), *rest) == expected
        checked.append(encoder.bytewise)
        return run

    monkeypatch.setattr(kmodes, "_encode_rows", encode)
    monkeypatch.setattr(kmodes, "_fit_once", fit_once)
    return checked


@pytest.mark.parametrize("name, init", sorted(OCEAN50_GOLDEN_FITS))
def test_ocean50_fit_equals_the_reference_fit(ocean50_population, reference_checked,
                                              name, init):
    fresh = CategoricalDataset.from_values(ocean50_population.rows)  # an empty memo
    model = fit(fresh, FitConfig(k=5, init=init, seed=5, restarts=2))
    assert _golden_record(model) == OCEAN50_GOLDEN_FITS[name, init]
    assert reference_checked == [True] * (1 if init == "density" else 2)


def test_epochs_examine_only_the_rows_a_mode_change_could_move(
        ocean50_population, monkeypatch):
    # Each restart's allocation pass asks _nearest once per row. Without the
    # skip, each of the two epochs would ask again for every row: 6000
    # calls. The masks stop changing at row 163 of the first pass and row
    # 39 of the second, so the epochs examine about 200 rows in all.
    calls = []
    real = kmodes._nearest
    monkeypatch.setattr(kmodes, "_nearest",
                        lambda x, masks: calls.append(1) or real(x, masks))
    config = FitConfig(k=5, seed=5, restarts=2)
    fresh = CategoricalDataset.from_values(ocean50_population.rows)  # an empty memo
    model = fit(fresh, config)
    assert _golden_record(model) == OCEAN50_GOLDEN_FITS["simple", "random_rows"]
    allocations = fresh.n * config.restarts
    assert allocations <= len(calls) < allocations * 1.15


def _planted_tables(rng):
    """30 tables of 300 rows: 3 planted rows of 1..4 codes in [0, 8), each
    copied with its own share of noise."""
    tables = []
    for _ in range(30):
        m, c, noise = rng.randint(1, 4), rng.randint(2, 8), rng.random()
        planted = random_rows(rng, 3, m, c)
        tables.append(CategoricalDataset.from_values([
            tuple(rng.randrange(c) if rng.random() < noise else v for v in rng.choice(planted))
            for _ in range(300)]))
    return tables


def test_the_batched_allocation_pass_equals_a_row_by_row_one(ocean50_population, monkeypatch):
    # Under the byte layout most adds of the allocation pass are batched
    # (see _Cluster.room); under the first-appearance layout none is. Both
    # end where Huang's pass, one row and one mode update at a time, ends.
    # The small random tables keep their modes contested, so a window
    # that opens one add too wide shows there.
    batched = []
    real = _Cluster.absorb
    monkeypatch.setattr(_Cluster, "absorb",
                        lambda self, xs: batched.append(len(xs)) or real(self, xs))
    rng = random.Random(73)
    tables = [ocean50_population] + _planted_tables(rng)
    for ds in tables:
        first_appearance = BitEncoder(len(ds.attrs))
        layouts = [kmodes._encode_rows(ds),
                   (first_appearance, first_appearance.encode_rows(ds.rows))]
        assert [encoder.bytewise for encoder, _ in layouts] == [True, False]
        distinct = sorted(set(ds.rows))
        for _ in range(3):
            seeds = rng.sample(distinct, rng.randint(1, min(6, len(distinct))))
            expected = oracle.allocation_pass(ds.rows, seeds)
            for encoder, codes in layouts:
                before = len(batched)
                modes, assignments, _, _, cost = kmodes._fit_once(encoder, codes, seeds, 0)
                assert ([p.values for p in modes], list(assignments), cost) == expected
                assert encoder.bytewise or len(batched) == before
        if ds is ocean50_population:
            assert sum(batched) > 0.7 * 3 * ds.n  # most rows join inside a window
    assert sum(batched) > 0.5 * 3 * sum(ds.n for ds in tables)


@pytest.mark.parametrize("rows, room, mode", [
    # A window one add wider than room allows: the batch counts a code that
    # should have become the mode, 0 on the tie, and the mode stays 1.
    ([(1,)] * 3 + [(0,)] * 3, lambda self: self.size - 2 * max(self.rest), (0,)),
    # Two codes overtake the mode in one batch: the reference's mode is the
    # one with the most members, not the first that beats the mode.
    ([(1,)] + [(0,)] * 2 + [(2,)] * 3, lambda self: 6, (2,)),
], ids=["a_window_one_add_too_wide", "two_codes_overtake_the_mode"])
def test_a_batch_that_hides_a_change_of_mode_differs_from_the_reference(
        monkeypatch, rows, room, mode):
    ds = CategoricalDataset.from_values(rows)
    expected = oracle.allocation_pass(ds.rows, [(1,)])
    assert expected == ([mode], [0] * ds.n, 3.0)
    assert kmodes._fit_once(*kmodes._encode_rows(ds), [(1,)], 0)[0][0].values == mode
    monkeypatch.setattr(_Cluster, "room", room)
    modes, assignments, _, _, cost = kmodes._fit_once(*kmodes._encode_rows(ds), [(1,)], 0)
    assert [p.values for p in modes] == [(1,)]  # the batch kept the stale mode
    assert ([p.values for p in modes], list(assignments), cost) != expected


@pytest.mark.parametrize("cell", [1.0, True])
def test_cells_equal_to_their_codes_fit_as_the_codes_do(cell):
    # After an int 1 in its column, a cell equal to 1 but of another type
    # reads as code 1. bytes() refuses 1.0, so its rows take the encoder's
    # dict; it reads True as 1. Either way the model equals that of the int
    # codes, windows of the allocation pass included.
    rows = [(1, 1, 1)] + [(1, 2, 1)] * 20 + random_rows(random.Random(79), 40, 3, 3)
    ints = CategoricalDataset(rows)
    ds = CategoricalDataset(rows[:1] + [tuple(cell if v == 1 else v for v in row)
                                        for row in rows[1:]])
    assert {type(v) for row in ds.rows for v in row} == {int, type(cell)}
    assert ds.attrs == ints.attrs
    assert kmodes._encode_rows(ds)[1] == kmodes._encode_rows(ints)[1]
    for init in INIT_STRATEGIES:
        config = FitConfig(k=3, init=init, restarts=2)
        assert fit(ds, config) == fit(ints, config)


def test_a_dataset_without_attributes_fits_at_cost_zero():
    ds = CategoricalDataset.from_values([()] * 6)
    for init in INIT_STRATEGIES:
        model = fit(ds, FitConfig(k=1, init=init))
        assert (model.modes, model.assignments, model.cost) == ((Prototype(()),), (0,) * 6, 0.0)


def test_an_order_preserving_recoding_past_the_byte_layout_changes_no_fit():
    # Codes {0, 1, 2, 3, 40} take the first-appearance layout; recoded
    # 40 -> 4 they take the byte layout, whose allocation pass batches.
    # A fit compares codes only by order, so both fit alike.
    rng = random.Random(83)
    planted = [(0, 1, 40, 3, 2), (40, 40, 0, 1, 3), (2, 3, 1, 40, 0)]
    wide = [tuple(rng.choice((0, 1, 2, 3, 40)) if rng.random() < 0.3 else v
                  for v in rng.choice(planted)) for _ in range(400)]
    recode = {40: 4}
    narrow = [tuple(recode.get(v, v) for v in row) for row in wide]
    wide_ds, narrow_ds = map(CategoricalDataset.from_values, (wide, narrow))
    assert [kmodes._encode_rows(ds)[0].bytewise for ds in (wide_ds, narrow_ds)] == [False, True]
    for case in range(6):
        config = FitConfig(k=case % 4 + 2, init=INIT_STRATEGIES[case % 2], seed=case,
                           restarts=2)
        a, b = fit(wide_ds, config), fit(narrow_ds, config)
        assert (a.assignments, a.cost, a.epochs_run) == (b.assignments, b.cost, b.epochs_run)
        assert [tuple(recode.get(v, v) for v in p.values) for p in a.modes] == [
            p.values for p in b.modes]


def test_ocean50_elbow_curve_is_bit_identical_to_the_golden_record(ocean50_population):
    curve = elbow_scan(ocean50_population, 1, 6, seed=5, init="density")
    assert [(k, cost.hex()) for k, cost in curve] == OCEAN50_GOLDEN_ELBOW


# SHA-256 over 1500 seeded random fits (small n and m, sparse and gapped
# category codes, both inits, some fits cut short by max_epochs) and 20
# elbow curves. Any change to the kernel that alters one bit of one fit
# shows here. A density draw whose k exceeds the distinct rows (230 of the
# 1500) hashes its refusal in place of a model.
RANDOM_FITS_DIGEST = "7c58482c6404540837ce1440218520d11aa673f8c8dcd4a3dcfc867c7bf1864d"


def test_random_fits_are_bit_identical_to_the_pinned_digest():
    rng = random.Random(1313)
    h = hashlib.sha256()
    for _ in range(1500):
        n, m = rng.randint(3, 60), rng.randint(1, 6)
        codes = rng.sample((0, 1, 2, 3, 7, 9, 40), rng.randint(1, 4))
        rows = [tuple(rng.choice(codes) for _ in range(m)) for _ in range(n)]
        init = rng.choice(("random_rows", "density"))
        k = rng.randint(1, min(6, n if init == "density" else len(set(rows))))
        config = FitConfig(k=k, init=init, seed=rng.randrange(2**32),
                           restarts=rng.randint(1, 4), max_epochs=rng.choice((1, 2, 100)))
        ds = CategoricalDataset.from_values(rows)
        if k > len(set(rows)):
            with pytest.raises(InfeasibleConfigError) as info:
                fit(ds, config)
            h.update(repr(("infeasible", str(info.value))).encode())
            continue
        model = fit(ds, config)
        h.update(repr((tuple(p.values for p in model.modes), model.assignments,
                       model.cost.hex(), model.epochs_run, model.converged)).encode())
    for _ in range(20):
        n, m = rng.randint(8, 60), rng.randint(1, 6)
        rows = [tuple(rng.randrange(4) for _ in range(m)) for _ in range(n)]
        init = rng.choice(("random_rows", "density"))
        k_max = rng.randint(1, min(6, n if init == "density" else len(set(rows))))
        curve = elbow_scan(CategoricalDataset.from_values(rows), 1, k_max,
                           seed=rng.randrange(100), restarts=rng.randint(1, 3), init=init)
        h.update(repr([(k, c.hex()) for k, c in curve]).encode())
    assert h.hexdigest() == RANDOM_FITS_DIGEST


def test_every_restart_of_the_random_corpus_equals_the_reference_fit(reference_checked):
    # The corpus mixes both inits, byte-layout and first-appearance tables,
    # and fits cut short by max_epochs; an epoch skip that leaves a row
    # with a strictly closer mode unexamined shows here.
    test_random_fits_are_bit_identical_to_the_pinned_digest()
    assert len(reference_checked) == 2081
    assert reference_checked.count(True) == 806


def test_planted_tables_fit_as_the_reference_does(reference_checked):
    rng = random.Random(73)
    for ds in _planted_tables(rng):
        distinct = len(set(ds.rows))
        for init in INIT_STRATEGIES:
            k = rng.randint(1, min(6, distinct))
            fit(ds, FitConfig(k=k, init=init, seed=rng.randrange(100), restarts=3))
    assert len(reference_checked) == 115 and all(reference_checked)  # all byte layout


class TestFitMemo:
    """fit and elbow_scan keep each model in a memo on the dataset, keyed
    by config, and serve an equal config from it."""

    @staticmethod
    def _refuse_fits(monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran instead of reading the memo")

        monkeypatch.setattr(kmodes, "_fit_once", no_fit)

    @pytest.mark.parametrize("init", ["random_rows", "density"])
    def test_fit_after_a_scan_equals_a_fit_on_a_separately_parsed_dataset(
            self, monkeypatch, init):
        text = generate_synthetic(120, load_schema("ocean50"), seed=3, noise=0.2).to_csv()
        scanned, fresh = (parse_responses(text, load_schema("ocean50")).dataset
                          for _ in range(2))
        assert scanned == fresh and scanned is not fresh
        curve = elbow_scan(scanned, 1, 5, seed=8, restarts=3, init=init)
        expected = fit(fresh, FitConfig(k=4, seed=8, restarts=3, init=init))
        self._refuse_fits(monkeypatch)
        model = fit(scanned, FitConfig(k=4, seed=8, restarts=3, init=init))
        assert model == expected
        assert dict(curve)[4] == model.cost

    def test_the_model_carries_the_callers_config(self, monkeypatch):
        ds = random_dataset(random.Random(5), 30, 3, 3)
        elbow_scan(ds, 1, 3, seed=2)
        first = FitConfig(k=2, seed=2)
        self._refuse_fits(monkeypatch)
        assert fit(ds, first).config is first
        second = FitConfig(k=2, seed=2)
        assert fit(ds, second).config is second

    def test_datasets_never_share_entries(self, monkeypatch):
        rows = random_rows(random.Random(4), 25, 3, 3)
        a = CategoricalDataset.from_values(rows)
        b = CategoricalDataset(a.rows)
        c = CategoricalDataset.from_values(rows)
        config = FitConfig(k=2, seed=6)
        fit(a, config)
        assert list(a._fits) == [config]
        assert b._fits == {} and c._fits == {}
        calls = []
        real = kmodes._fit_once
        monkeypatch.setattr(kmodes, "_fit_once", lambda *args: calls.append(1) or real(*args))
        assert fit(b, config) == fit(c, config) == fit(a, config)
        assert len(calls) == 2
        assert a._fits is not b._fits and b._fits is not c._fits

    @pytest.mark.parametrize("init", ["random_rows", "density"])
    def test_a_scan_fits_only_the_k_the_memo_lacks(self, monkeypatch, init):
        text = generate_synthetic(120, load_schema("ocean50"), seed=5, noise=0.2).to_csv()
        scanned, fresh = (parse_responses(text, load_schema("ocean50")).dataset
                          for _ in range(2))
        for k in (3, 6):
            fit(scanned, FitConfig(k=k, seed=4, restarts=2, init=init))
        calls = {"_encode_rows": 0, "_seed_pool": 0}
        for name in calls:
            real = getattr(kmodes, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(kmodes, name, counting)
        fitted = []
        real_fit_once = kmodes._fit_once
        monkeypatch.setattr(kmodes, "_fit_once",
                            lambda *args: fitted.append(len(args[2])) or real_fit_once(*args))
        curve = elbow_scan(scanned, 1, 6, seed=4, restarts=2, init=init)
        assert calls == {"_encode_rows": 1, "_seed_pool": 1}
        runs = 1 if init == "density" else 2
        assert fitted == [k for k in (1, 2, 4, 5) for _ in range(runs)]
        monkeypatch.undo()
        expected = elbow_scan(fresh, 1, 6, seed=4, restarts=2, init=init)
        assert [(k, c.hex()) for k, c in curve] == [(k, c.hex()) for k, c in expected]


class TestWithinClusterDifference:
    def test_accepts_raw_mode_vectors(self):
        ds = CategoricalDataset.from_values([(1, 1), (1, 2)])
        assert within_cluster_difference(ds, [(1, 1)], (0, 0)) == 1.0

    def test_rejects_misaligned_modes(self):
        ds = CategoricalDataset.from_values([(1,), (2,)])
        with pytest.raises(AlignmentError):
            within_cluster_difference(ds, [(1,), (1, 2)], (0, 0))

    def test_rejects_an_assignment_count_other_than_the_rows(self):
        ds = CategoricalDataset.from_values([(1,), (2,), (1,)])
        with pytest.raises(AlignmentError, match="^2 assignments for 3 rows$"):
            within_cluster_difference(ds, [(1,), (2,)], (0, 1))

    @pytest.mark.parametrize("label, message", [
        (1, "assignment 1 out of range for k=1"),
        (-1, "assignment -1 out of range for k=1"),
        # bool, float, str and None are refused as in FitConfig: True would
        # count as cluster 1 at k=2, the rest would fail inside the count.
        (True, "assignment must be an integer, got True"),
        (1.0, "assignment must be an integer, got 1.0"),
        ("1", "assignment must be an integer, got '1'"),
        (None, "assignment must be an integer, got None"),
    ])
    def test_rejects_out_of_range_assignments(self, label, message):
        ds = CategoricalDataset.from_values([(1,), (2,)])
        modes = [(1,)] if type(label) is int else [(1,), (2,)]
        with pytest.raises(ValueError) as info:
            within_cluster_difference(ds, modes, (0, label))
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_never_below_the_exhaustive_optimum(self):
        rng = random.Random(41)
        for _ in range(30):
            rows = random_rows(rng, 7, 3, 3)
            ds = CategoricalDataset.from_values(rows)
            k = 2
            opt = oracle.optimal_cost(rows, k)
            assignment = tuple(rng.randrange(k) for _ in range(7))
            if len(set(assignment)) < k:
                continue
            modes = []
            for l in range(k):
                members = [rows[i] for i, a in enumerate(assignment) if a == l]
                modes.append(tuple(
                    oracle.majority_value([r[j] for r in members]) for j in range(3)
                ))
            assert within_cluster_difference(ds, modes, assignment) >= opt


class TestElbow:
    def test_scan_covers_the_requested_range(self):
        ds = random_dataset(random.Random(43), 12, 3, 3)
        curve = elbow_scan(ds, 1, 4, restarts=5)
        assert [k for k, _ in curve] == [1, 2, 3, 4]
        assert all(c >= 0.0 for _, c in curve)

    def test_scan_validates_the_range(self):
        ds = CategoricalDataset.from_values([(0,), (1,)])
        with pytest.raises(ValueError) as info:
            elbow_scan(ds, 2, 1)
        assert (type(info.value), str(info.value)) == (
            ValueError, "need k_min <= k_max, got 2..1")
        with pytest.raises(InfeasibleConfigError):
            elbow_scan(ds, 1, 3)
        # FitConfig refuses a k below 1, as in fit
        for k_min, k_max in [(0, 2), (0, 0), (-1, 1)]:
            with pytest.raises(InfeasibleConfigError) as info:
                elbow_scan(ds, k_min, k_max)
            assert str(info.value) == f"k must be >= 1, got {k_min}"

    def test_a_k_max_above_the_rows_is_refused_before_a_config_per_k(self, ten_configs):
        ds = CategoricalDataset.from_values([(0,), (1,)])
        with pytest.raises(InfeasibleConfigError) as info:
            elbow_scan(ds, 1, 10**9)
        assert str(info.value) == "k=1000000000 exceeds the number of rows (2)"

    @staticmethod
    def _duplicated_dataset(seed, n=30, m=3, pool=5):
        # n rows drawn from `pool` distinct rows: density scores and
        # farthest-first distances tie.
        rng = random.Random(seed)
        distinct = list(dict.fromkeys(random_rows(rng, 4 * pool, m, 3)))[:pool]
        return CategoricalDataset.from_values([rng.choice(distinct) for _ in range(n)])

    @pytest.mark.parametrize("init", ["random_rows", "density"])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("population", ["random", "duplicates"])
    def test_scan_equals_a_fit_per_k(self, init, restarts, seed, population):
        if population == "random":
            ds, k_max = random_dataset(random.Random(43 + seed), 30, 4, 3), 6
        else:
            ds, k_max = self._duplicated_dataset(seed), 5  # its distinct rows
        curve = elbow_scan(ds, 1, k_max, seed=seed, restarts=restarts, init=init)
        fresh = CategoricalDataset.from_values(ds.rows)  # fits that do not read the memo
        expected = [
            (k, fit(fresh, FitConfig(k=k, seed=seed, restarts=restarts, init=init)).cost)
            for k in range(1, k_max + 1)
        ]
        assert [(k, c.hex()) for k, c in curve] == [(k, c.hex()) for k, c in expected]

    @pytest.mark.parametrize("value", [1.0, True, "2"])
    @pytest.mark.parametrize("name", ["k_min", "k_max"])
    def test_scan_bounds_must_be_plain_ints(self, monkeypatch, name, value):
        # True == 1 would scan from k=1, and 1.0 would fail inside range().
        def no_fit(*args):
            raise AssertionError("the scan ran a fit")

        monkeypatch.setattr(kmodes, "_fit_once", no_fit)
        ds = CategoricalDataset.from_values([(0,), (1,), (2,)])
        with pytest.raises(ValueError) as excinfo:
            elbow_scan(ds, **{"k_min": 1, "k_max": 2, name: value})
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("init", INIT_STRATEGIES)
    def test_a_scan_past_the_distinct_rows_fails_at_that_k(self, monkeypatch, init):
        # The distinct rows are counted once, before any fit.
        ds = CategoricalDataset.from_values([(0, 1), (1, 1), (0, 1), (2, 0), (1, 1)])
        fitted = []
        monkeypatch.setattr(kmodes, "_fit_once", lambda *args: fitted.append(len(args[2])))
        for k_min, first_infeasible in [(2, 4), (5, 5)]:
            message = rf"^k={first_infeasible} exceeds the number of distinct rows \(3\)$"
            with pytest.raises(InfeasibleConfigError, match=message):
                elbow_scan(ds, k_min, 5, init=init, restarts=2)
        assert fitted == []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_density_seeds_have_the_prefix_property(self, data):
        m = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * m), min_size=1, max_size=4))
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
        ds = CategoricalDataset.from_values(rows)
        codes = kmodes._encode_rows(ds)[1]
        k_max = data.draw(st.integers(1, len(rows)))
        full = kmodes._density_seeds(ds, k_max, codes)
        for k in range(1, k_max + 1):
            assert kmodes._density_seeds(ds, k, codes) == full[:k]

    @pytest.mark.parametrize("init, seedings", [("density", 1), ("random_rows", 0)])
    def test_scan_encodes_once_and_seeds_density_once(self, monkeypatch, init, seedings):
        ds = random_dataset(random.Random(47), 30, 4, 3)
        calls = {"_encode_rows": 0, "_seed_pool": 0, "_density_seeds": 0}
        for name in calls:
            real = getattr(kmodes, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(kmodes, name, counting)
        elbow_scan(ds, 1, 6, seed=2, restarts=2, init=init)
        assert calls == {"_encode_rows": 1, "_seed_pool": 1, "_density_seeds": seedings}

    def test_select_k_picks_the_first_flat_step(self):
        curve = [(1, 100.0), (2, 10.0), (3, 9.8), (4, 9.7)]
        assert select_k(curve, epsilon=0.05) == 2

    def test_select_k_returns_a_zero_cost_point_immediately(self):
        assert select_k([(1, 50.0), (2, 0.0), (3, 0.0)]) == 2

    def test_select_k_falls_back_to_the_last_point(self):
        assert select_k([(1, 100.0), (2, 50.0), (3, 25.0)], epsilon=0.05) == 3

    def test_select_k_validates_input(self):
        with pytest.raises(ValueError):
            select_k([(1, 10.0)])
        with pytest.raises(ValueError):
            select_k([(1, 10.0), (2, 5.0)], epsilon=0.0)
        with pytest.raises(ValueError):
            select_k([(2, 10.0), (1, 5.0)])
        nan, inf = float("nan"), float("inf")
        for curve, k, cost in [([(1, 10.0), (2, nan), (3, 1.0)], 2, nan),
                               ([(1, -5.0), (2, 1.0)], 1, -5.0),
                               ([(1, inf), (2, 1.0)], 1, inf),
                               ([(1, 10.0), (2, 0.0), (3, -inf)], 3, -inf)]:
            with pytest.raises(ValueError) as info:
                select_k(curve)
            assert str(info.value) == (
                f"elbow curve cost at k={k} must be finite and >= 0, got {cost!r}")
        # A k is a plain int and a cost an int or float, as elbow_scan gives
        # them; a bool is neither.
        bad_cost = "elbow curve cost at k={} must be finite and >= 0, got {!r}"
        for curve, message in [
                ([(True, 10.0), (2.5, 1.0)], "k must be an integer, got True"),
                ([(1.5, 10.0), (2, 9.9)], "k must be an integer, got 1.5"),
                ([(1, "10"), (2, 1.0)], bad_cost.format(1, "10")),
                ([(1, 10), (2, None)], bad_cost.format(2, None)),
                ([(1, 10.0), (2, False)], bad_cost.format(2, False))]:
            with pytest.raises(ValueError) as info:
                select_k(curve)
            assert (type(info.value), str(info.value)) == (ValueError, message)
        assert select_k([(1, 10), (2, 1)]) == 2
