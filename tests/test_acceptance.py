"""End-to-end acceptance checks for the clustering and survey pipeline.

Every criterion is verified against an independent reference: an exhaustive
partition enumerator (tests/oracle.py), hand-computed scores, or frozen
output bytes. One PASS/FAIL line per criterion lands in the terminal summary.
"""

import functools
import math
import os
import random
import subprocess
import sys
import time

import oracle
from conftest import APPLICANT_CSV, record_acceptance

from traitclust import (
    CategoricalDataset,
    FitConfig,
    PercentReport,
    elbow_scan,
    emit_report,
    fit,
    fuse_profiles,
    generate_synthetic,
    init_modes,
    label_clusters,
    load_schema,
    parse_report,
    parse_responses,
    personality_percentages,
    score_profile,
    select_k,
    within_cluster_difference,
)
from traitclust.dissimilarity import BitEncoder
from traitclust.kmodes import _Cluster

APPLICANT_OPTIMAL_COST = 6.0

FROZEN_APPLICANT_REPORT = """\
{
  "dimensions": [
    "Openness",
    "Conscientiousness",
    "Extraversion",
    "Agreeableness",
    "Neuroticism"
  ],
  "kind": "percent_report",
  "metadata": {
    "k": 3,
    "policy": "simple",
    "schema": "scenario3",
    "seed": 42
  },
  "percent": {
    "Agreeableness": 0.0,
    "Conscientiousness": 22.22222222222222,
    "Extraversion": 66.66666666666667,
    "Neuroticism": 11.11111111111111,
    "Openness": 0.0
  },
  "provenance": "questionnaire"
}
"""


def _criterion(num):
    """Write one [acceptance NN] PASS/FAIL line per test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_acceptance(f"[acceptance {num:02d}] FAIL - {exc}")
                raise
            record_acceptance(f"[acceptance {num:02d}] PASS - {detail}")

        return run

    return wrap


def _random_rows(rng, n, m, cats, min_distinct):
    while True:
        rows = [tuple(rng.randrange(cats) for _ in range(m)) for _ in range(n)]
        if len(set(rows)) >= min_distinct:
            return rows


@_criterion(1)
def test_01_recovers_the_exhaustive_optimum():
    """With 20 restarts the fit matches the exhaustive best 2-way partition
    on at least 95 of 100 random datasets and never beats it."""
    t0 = time.perf_counter()
    matched = 0
    for case in range(100):
        rng = random.Random(1000 + case)
        n = rng.randint(4, 8)
        cats = rng.randint(2, 3)
        rows = _random_rows(rng, n, 3, cats, min_distinct=2)
        opt = oracle.optimal_cost(rows, 2)
        model = fit(CategoricalDataset.from_values(rows), FitConfig(k=2, restarts=20, seed=case))
        assert model.cost >= opt - 1e-9, (
            f"case {case}: fit cost {model.cost} below the exhaustive optimum {opt}"
        )
        if model.cost == float(opt):
            matched += 1
    elapsed = time.perf_counter() - t0
    assert matched >= 95, f"only {matched}/100 datasets reached the optimum"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    return f"matched the exhaustive optimum on {matched}/100 datasets (floor 95) in {elapsed:.2f}s"


@_criterion(2)
def test_02_every_accepted_move_descends_and_fits_converge():
    """Each fit equals the row-by-row reference k-modes from the same seeds
    (tests/oracle.py), which visits every row in every epoch and asserts
    that each accepted move strictly decreases the recounted objective and
    empties no cluster; every fit must converge."""
    t0 = time.perf_counter()
    worst_epochs = 0
    for case in range(1000):
        rng = random.Random(2000 + case)
        n = rng.randint(2, 50)
        m = rng.randint(1, 5)
        cats = rng.randint(2, 4)
        rows = _random_rows(rng, n, m, cats, min_distinct=1)
        k = rng.randint(1, min(4, len(set(rows))))
        dataset = CategoricalDataset.from_values(rows)
        model = fit(dataset, FitConfig(k=k, seed=case))
        seeds = [p.values for p in init_modes(dataset, k, seed=case)]  # the seeds fit draws
        expected = oracle.reference_fit(dataset.rows, seeds, 100)
        got = (tuple(p.values for p in model.modes), model.assignments, model.epochs_run,
               model.converged, model.cost)
        assert got == expected, f"case {case}: fit {got} != reference {expected}"
        assert model.converged, f"case {case}: did not converge in {model.epochs_run} epochs"
        assert model.epochs_run <= 100
        recomputed = within_cluster_difference(dataset, model.modes, model.assignments)
        assert model.cost == recomputed, (
            f"case {case}: reported cost {model.cost} != recomputed {recomputed}"
        )
        worst_epochs = max(worst_epochs, model.epochs_run)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    return (
        "1000 fits equal the row-by-row reference, whose every accepted move "
        f"strictly decreased the objective; all converged (max epochs seen: "
        f"{worst_epochs}) in {elapsed:.2f}s"
    )


@_criterion(3)
def test_03_mode_update_equals_brute_force_majority():
    """The per-cluster mode that fit keeps equals a count-every-value
    majority with lowest-code tie-breaking: on 10000 random multisets added
    in one batch, and after every step of 1000 random add/remove
    sequences."""
    rng = random.Random(3)
    for _ in range(10000):
        length = rng.randint(1, 30)
        top = rng.randint(1, 6)
        values = [rng.randrange(top + 1) for _ in range(length)]
        encoder = BitEncoder(1)
        for v in range(top + 1):  # every code, before the cluster is built
            encoder.encode((v,))
        cluster = _Cluster([rng.randrange(top + 1)], encoder)
        for v in values:
            cluster.add(encoder.encode((v,)))
        assert cluster.mode == [oracle.majority_value(values)]
    steps = 0
    for case in range(1000):
        m = rng.randint(1, 4)
        top = rng.randint(1, 5)
        encoder = BitEncoder(m)
        for v in range(top + 1):
            encoder.encode((v,) * m)
        cluster = _Cluster([rng.randrange(top + 1) for _ in range(m)], encoder)
        members = []
        for _ in range(rng.randint(1, 40)):
            if members and rng.random() < 0.4:
                cluster.remove(encoder.encode(members.pop(rng.randrange(len(members)))))
            else:
                members.append(tuple(rng.randrange(top + 1) for _ in range(m)))
                cluster.add(encoder.encode(members[-1]))
            steps += 1
            assert cluster.size == len(members), f"case {case}: size drifted"
            if members:
                expected = [oracle.majority_value([r[j] for r in members]) for j in range(m)]
                assert cluster.mode == expected, (
                    f"case {case}: incremental mode {cluster.mode} != majority {expected}"
                )
    return (
        "10000 random multisets and 1000 add/remove sequences "
        f"({steps} steps): the cluster mode equals the brute-force majority"
    )


LABEL_POOL = ("amber", "blue", "coral", "dune", "elm", "fern")


@_criterion(4)
def test_04_bijective_relabeling_leaves_the_fit_unchanged():
    """Renaming the categories of any attribute (bijectively) must not change
    codes, assignments, modes, or cost."""
    for case in range(100):
        rng = random.Random(4000 + case)
        n = rng.randint(4, 16)
        m = rng.randint(1, 4)
        sizes = [rng.randint(2, 4) for _ in range(m)]
        while True:
            raw = [
                tuple(LABEL_POOL[rng.randrange(sizes[j])] for j in range(m))
                for _ in range(n)
            ]
            if len({tuple(r) for r in raw}) >= 2:
                break
        mappings = []
        for j in range(m):
            pool = list(LABEL_POOL[: sizes[j]])
            shuffled = pool[:]
            rng.shuffle(shuffled)
            mappings.append(dict(zip(pool, shuffled)))
        relabeled = [tuple(mappings[j][v] for j, v in enumerate(row)) for row in raw]

        d1 = CategoricalDataset.from_raw(raw)
        d2 = CategoricalDataset.from_raw(relabeled)
        assert d1.rows == d2.rows, (
            f"case {case}: dense codes differ under relabeling"
        )
        cfg = FitConfig(k=2, restarts=5, seed=case)
        m1, m2 = fit(d1, cfg), fit(d2, cfg)
        assert m1.assignments == m2.assignments
        assert m1.cost == m2.cost
        assert tuple(p.values for p in m1.modes) == tuple(p.values for p in m2.modes)
    return "100 relabeled datasets: identical codes, assignments, modes, and cost"


@_criterion(5)
def test_05_elbow_curve_tracks_the_exhaustive_optimum():
    """Exhaustive optima are non-increasing in k, the heuristic curve never
    beats them, and the knee rule picks k=2 on the documented example."""
    for case in range(12):
        rng = random.Random(5000 + case)
        n = rng.randint(6, 9)
        rows = _random_rows(rng, n, 3, 3, min_distinct=4)
        dataset = CategoricalDataset.from_values(rows)
        optima = [oracle.optimal_cost(rows, k) for k in range(1, 5)]
        assert all(b <= a for a, b in zip(optima, optima[1:])), (
            f"case {case}: exhaustive optima increased with k: {optima}"
        )
        curve = elbow_scan(dataset, 1, 4, seed=case, restarts=20)
        assert [k for k, _ in curve] == [1, 2, 3, 4]
        for (k, cost), opt in zip(curve, optima):
            assert cost >= opt - 1e-9, (
                f"case {case}: heuristic cost {cost} beats the optimum {opt} at k={k}"
            )
    assert select_k([(1, 100.0), (2, 10.0), (3, 9.8), (4, 9.7)], epsilon=0.05) == 2
    return (
        "12 datasets: exhaustive optima non-increasing in k and never beaten "
        "by the heuristic; knee example selects k=2"
    )


def _block_row(ext, est, agr, csn, opn):
    # ocean50 column order: EXT1-10, EST1-10, AGR1-10, CSN1-10, OPN1-10
    return tuple([ext] * 10 + [est] * 10 + [agr] * 10 + [csn] * 10 + [opn] * 10)


BLOCK_SCORE_CASES = [
    (_block_row(1, 1, 1, 1, 1),
     {"Extraversion": 30, "Neuroticism": 18, "Agreeableness": 26, "Conscientiousness": 26, "Openness": 22}),
    (_block_row(2, 2, 2, 2, 2),
     {"Extraversion": 30, "Neuroticism": 24, "Agreeableness": 28, "Conscientiousness": 28, "Openness": 26}),
    (_block_row(3, 3, 3, 3, 3),
     {"Extraversion": 30, "Neuroticism": 30, "Agreeableness": 30, "Conscientiousness": 30, "Openness": 30}),
    (_block_row(4, 4, 4, 4, 4),
     {"Extraversion": 30, "Neuroticism": 36, "Agreeableness": 32, "Conscientiousness": 32, "Openness": 34}),
    (_block_row(5, 5, 5, 5, 5),
     {"Extraversion": 30, "Neuroticism": 42, "Agreeableness": 34, "Conscientiousness": 34, "Openness": 38}),
    (_block_row(3, 3, 3, 3, 5),
     {"Extraversion": 30, "Neuroticism": 30, "Agreeableness": 30, "Conscientiousness": 30, "Openness": 38}),
    (_block_row(3, 5, 3, 3, 3),
     {"Extraversion": 30, "Neuroticism": 42, "Agreeableness": 30, "Conscientiousness": 30, "Openness": 30}),
    (_block_row(3, 1, 3, 3, 3),
     {"Extraversion": 30, "Neuroticism": 18, "Agreeableness": 30, "Conscientiousness": 30, "Openness": 30}),
    (_block_row(3, 3, 4, 2, 3),
     {"Extraversion": 30, "Neuroticism": 30, "Agreeableness": 32, "Conscientiousness": 28, "Openness": 30}),
    (_block_row(2, 5, 2, 2, 1),
     {"Extraversion": 30, "Neuroticism": 42, "Agreeableness": 28, "Conscientiousness": 28, "Openness": 22}),
]


@_criterion(6)
def test_06_trait_scores_match_hand_computed_values():
    """Ten block-constant answer rows whose raw scores were worked out by
    hand from the item keying (reversal is likert_min + likert_max - v)."""
    schema = load_schema("ocean50")
    for row, expected in BLOCK_SCORE_CASES:
        profile = score_profile(row, schema)
        assert profile.raw == expected, f"raw scores {profile.raw} != expected {expected}"
    flat = score_profile(_block_row(3, 3, 3, 3, 3), schema)
    for d, v in flat.percent.items():
        assert abs(v - 20.0) <= 1e-9, f"flat profile percent for {d} is {v}, expected 20"
    return (
        "10 block-pattern response rows match hand-computed raw scores; "
        "a flat row normalizes to 20 percent per trait"
    )


@_criterion(7)
def test_07_applicant_fixture_report_is_frozen(applicant_csv_text):
    """The bundled applicant fixture must fit to the exhaustively verified
    optimal cost and emit byte-identical report JSON on every run, in-process
    and across interpreter invocations with different hash seeds."""
    schema = load_schema("scenario3")
    outputs = []
    for _ in range(2):
        result = parse_responses(applicant_csv_text, schema)
        model = fit(result.dataset, FitConfig(k=3, seed=42, restarts=20))
        opt = oracle.optimal_cost(result.dataset.rows, 3)
        assert model.cost == float(opt) == APPLICANT_OPTIMAL_COST, (
            f"fit cost {model.cost}, exhaustive optimum {opt}, frozen {APPLICANT_OPTIMAL_COST}"
        )
        profiles = [score_profile(r, schema) for r in result.table.rows]
        rep = personality_percentages(label_clusters(model, profiles, schema))
        outputs.append(emit_report(rep, "json"))
    assert outputs[0] == outputs[1] == FROZEN_APPLICANT_REPORT

    cmd = [
        sys.executable, "-m", "traitclust", "report",
        "-i", str(APPLICANT_CSV), "--schema", "scenario3",
        "--k", "3", "--seed", "42", "--restarts", "20", "--format", "json",
    ]
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == FROZEN_APPLICANT_REPORT, (
            f"PYTHONHASHSEED={hashseed} produced different report bytes"
        )
    return (
        f"pipeline cost {APPLICANT_OPTIMAL_COST} equals the exhaustive optimum; "
        "report bytes frozen across runs, processes, and hash seeds"
    )


def _random_percent_report(rng, dimensions=None, provenance="questionnaire"):
    if dimensions is None:
        dimensions = tuple(f"Dim{j}" for j in range(rng.randint(2, 6)))
    raws = [rng.uniform(0.01, 10.0) for _ in dimensions]
    total = math.fsum(raws)
    percent = {d: 100.0 * v / total for d, v in zip(dimensions, raws)}
    return PercentReport(
        dimensions=dimensions,
        percent=percent,
        provenance=provenance,
        meta={"case": rng.randint(0, 10**6)},
    )


@_criterion(8)
def test_08_fusion_algebra_and_lossless_json_round_trip():
    """fuse(a, a, w) = a, fuse(a, b, w) = fuse(b, a, 1-w), fused sums stay at
    100, and JSON emit -> parse -> emit is numerically exact and byte-stable."""
    rng = random.Random(8)
    for _ in range(1000):
        a = _random_percent_report(rng)
        b = _random_percent_report(rng, dimensions=a.dimensions, provenance="external")
        w = rng.random()

        same = fuse_profiles(a, a, w)
        assert same.provenance == "fused"
        for d in a.dimensions:
            assert abs(same.percent[d] - a.percent[d]) <= 1e-9

        ab = fuse_profiles(a, b, w)
        ba = fuse_profiles(b, a, 1.0 - w)
        for d in a.dimensions:
            assert abs(ab.percent[d] - ba.percent[d]) <= 1e-9
        assert abs(math.fsum(ab.percent.values()) - 100.0) <= 1e-9

        first = emit_report(ab, "json")
        parsed = parse_report(first)
        assert parsed.percent == ab.percent, "JSON round-trip changed a percentage"
        assert parsed.provenance == ab.provenance
        assert emit_report(parsed, "json") == first
    return (
        "1000 report pairs: fusion identity and symmetry hold, sums stay at "
        "100, JSON round-trips are exact and byte-stable"
    )


@_criterion(9)
def test_09_synthetic_population_recovers_all_five_traits():
    """Generating 1000 noise-free respondents from a uniform trait mixture,
    serializing, re-parsing, and clustering at k=5 must label each cluster
    with a different trait and give every trait a share near 20 percent."""
    t0 = time.perf_counter()
    schema = load_schema("ocean50")
    table = generate_synthetic(1000, schema, seed=7, noise=0.0)
    reparsed = parse_responses(table.to_csv(), schema)
    assert reparsed.table.rows == table.rows
    model = fit(reparsed.dataset, FitConfig(k=5, restarts=10, seed=0))
    profiles = [score_profile(r, schema) for r in reparsed.table.rows]
    labeling = label_clusters(model, profiles, schema)
    rep = personality_percentages(labeling)
    elapsed = time.perf_counter() - t0

    dominants = [c.dominant for c in labeling.clusters]
    assert len(set(dominants)) == 5, f"dominant traits not distinct: {dominants}"
    for d, share in rep.percent.items():
        assert 14.0 <= share <= 26.0, f"share for {d} is {share:.2f}%, outside 20 +/- 6"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"
    lo = min(rep.percent.values())
    hi = max(rep.percent.values())
    return f"all 5 dominant traits recovered with shares {lo:.1f}..{hi:.1f}% in {elapsed:.2f}s"
