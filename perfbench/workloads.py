"""The benchmark's three workloads: set-up, one job, its output check, and
the probes a traced run adds.

Every workload is the paper's synthetic population: the ``ocean50`` schema,
a uniform mixture over its five traits, answer noise 0.15, drawn with the
workload seed. Why these three, and which layer each one stresses, is in
README.md beside this file.
"""

import json
import statistics
from dataclasses import replace
from pathlib import Path
from random import Random

from traitclust import cli, dissimilarity, kmodes, report, survey

import check

SCHEMA = "ocean50"
NOISE = 0.15
TRUE_K = 5
PLANTED_SHARE = 100.0 / TRUE_K
MISSING_SHARE = 0.02
EXTERNAL_REPORT = json.dumps({
    "kind": "percent_report",
    "dimensions": ["Openness", "Conscientiousness", "Extraversion", "Agreeableness", "Neuroticism"],
    "percent": {"Openness": 30.0, "Conscientiousness": 25.0, "Extraversion": 20.0,
                "Agreeableness": 15.0, "Neuroticism": 10.0},
    "provenance": "external",
})


class State:
    """What set-up leaves for the jobs. ``oracle`` and ``model`` are filled
    by the first check and are not part of set-up time."""

    def __init__(self, seed, schema, text, rows):
        self.seed = seed
        self.schema = schema
        self.text = text
        self.rows = rows
        self.oracle = None
        self.model = None


class Output:
    """One job's result: its questionnaire report, every text it emitted,
    and the model the report was built from (None when the job read a
    persisted model)."""

    def __init__(self, shares_report, emitted, k, model=None, curve=None):
        self.shares_report = shares_report
        self.emitted = emitted
        self.k = k
        self.model = model
        self.curve = curve


def _generate(n, seed, tr):
    with tr.span("survey.load_schema"):
        schema = survey.load_schema(SCHEMA)
    with tr.span("survey.generate_synthetic"):
        table = survey.generate_synthetic(n, schema, seed=seed, noise=NOISE)
    return schema, table


def _parse_and_score(st, tr):
    with tr.span("survey.parse_responses"):
        parsed = survey.parse_responses(st.text, st.schema)
    with tr.span("survey.score_profile"):
        profiles = [survey.score_profile(row, st.schema) for row in parsed.table.rows]
    return parsed, profiles


def _label_and_emit(model, profiles, schema, fmt, tr):
    with tr.span("report.label_clusters"):
        labeling = report.label_clusters(model, profiles, schema)
    with tr.span("report.personality_percentages"):
        shares = report.personality_percentages(labeling)
    with tr.span("report.emit_report"):
        emitted = report.emit_report(shares, fmt)
    return shares, emitted


def _round_trip(rep, tr):
    """A percent report must survive emit -> parse_report unchanged."""
    with tr.span("report.emit_report"):
        text = report.emit_report(rep, "json")
    with tr.span("report.parse_report"):
        back = report.parse_report(text)
    if back.percent != rep.percent or back.dimensions != rep.dimensions:
        return ["report does not round-trip through parse_report"]
    return []


class Workload:
    name = ""
    n = 0
    PARSE_KWARGS = {}
    CLI = False  # whether jobs reach the library only through cli.main

    def __init__(self, root, n=None):
        self.n = n or self.n
        path = root / "src" / "traitclust" / "schemas" / f"{SCHEMA}.json"
        self.schema_doc = json.loads(path.read_text(encoding="utf-8"))

    def setup(self, seed, tr, workdir):
        schema, table = _generate(self.n, seed, tr)
        with tr.span("survey.ResponseTable.to_csv"):
            text = table.to_csv()
        return State(seed, schema, text, table.rows)

    def oracle(self, st):
        if st.oracle is None:
            st.oracle = check.Oracle(self.schema_doc, st.rows)
        return st.oracle

    def model_of(self, st, out):
        """The reported model as (modes, assignments, cost)."""
        m = out.model
        return [p.values for p in m.modes], m.assignments, m.cost

    def check(self, st, out, tr):
        oracle = self.oracle(st)
        modes, assignments, cost = self.model_of(st, out)
        problems = oracle.check_model(modes, assignments, cost)
        expected = oracle.shares(assignments, len(modes))
        problems += check.compare_shares(out.shares_report.percent, expected)
        problems += self.check_emitted(out, expected)
        problems += _round_trip(out.shares_report, tr)
        return problems

    def quality(self, st, out):
        return {
            "fit_cost": float(self.model_of(st, out)[2]),
            "share_error_pct": max(abs(v - PLANTED_SHARE)
                                   for v in out.shares_report.percent.values()),
            "k_error": abs(out.k - TRUE_K),
        }

    def digests(self, st, out):
        modes, assignments, cost = check.model_digests(*self.model_of(st, out))
        return {"modes": modes, "assignments": assignments, "cost": cost,
                "report": check.sha256_text("".join(out.emitted))}

    def probe_parse(self, st, tr):
        """A probe parse of the job input: the result and its seconds."""
        return tr.call("survey.parse_responses", survey.parse_responses,
                       st.text, st.schema, **self.PARSE_KWARGS)


class FitLarge(Workload):
    name = "fit_large"
    n = 20000

    def reference_fits(self, st):
        return [kmodes.FitConfig(k=TRUE_K, restarts=4, init="random_rows", seed=st.seed)]

    def job(self, st, tr):
        parsed, profiles = _parse_and_score(st, tr)
        with tr.span("kmodes.fit"):
            model = kmodes.fit(parsed.dataset, self.reference_fits(st)[0])
        shares, emitted = _label_and_emit(model, profiles, st.schema, "json", tr)
        return Output(shares, [emitted], TRUE_K, model)

    def check_emitted(self, out, expected):
        return check.compare_shares(json.loads(out.emitted[0])["percent"], expected)


class ElbowDensity(Workload):
    name = "elbow_density"
    n = 2000
    K_MAX = 8
    RESTARTS = 3

    def reference_fits(self, st):
        return [kmodes.FitConfig(k=k, restarts=self.RESTARTS, init="density", seed=st.seed)
                for k in range(1, self.K_MAX + 1)]

    def job(self, st, tr):
        parsed, profiles = _parse_and_score(st, tr)
        with tr.span("kmodes.elbow_scan"):
            curve = kmodes.elbow_scan(parsed.dataset, 1, self.K_MAX, seed=st.seed,
                                      restarts=self.RESTARTS, init="density")
        with tr.span("kmodes.select_k"):
            k = kmodes.select_k(curve)
        with tr.span("kmodes.fit"):
            model = kmodes.fit(parsed.dataset, kmodes.FitConfig(
                k=k, restarts=self.RESTARTS, init="density", seed=st.seed))
        shares, emitted = _label_and_emit(model, profiles, st.schema, "text", tr)
        return Output(shares, [emitted], k, model, curve)

    def check(self, st, out, tr):
        problems = super().check(st, out, tr)
        # Fits are deterministic, so the refit must reproduce the scan's point.
        if dict(out.curve)[out.k] != out.model.cost:
            problems.append(f"refit cost {out.model.cost} != elbow curve at k={out.k}")
        return problems

    def check_emitted(self, out, expected):
        return check.check_rounded(check.parse_text_report(out.emitted[0]), expected)


class RescoreCli(Workload):
    name = "rescore_cli"
    n = 50000
    PARSE_KWARGS = {"missing_policy": "impute_mode"}
    CLI = True
    FUSE_WEIGHT = 0.5

    def setup(self, seed, tr, workdir):
        schema, table = _generate(self.n, seed, tr)
        rows = [list(r) for r in table.rows]
        m = len(schema.columns)
        rng = Random(f"perfbench-missing-{seed}")
        cells = rng.sample(range(self.n * m), round(self.n * m * MISSING_SHARE))
        for cell in cells:
            rows[cell // m][cell % m] = schema.missing_code
        with tr.span("survey.ResponseTable"):
            table = survey.ResponseTable(ids=table.ids, columns=table.columns, rows=rows,
                                         id_name=table.id_name)
        with tr.span("survey.ResponseTable.to_csv"):
            text = table.to_csv()
        st = State(seed, schema, text, table.rows)
        workdir.mkdir(parents=True, exist_ok=True)
        st.csv_path = str(workdir / "responses.csv")
        st.model_path = str(workdir / "model.json")
        st.report_path = str(workdir / "report.json")
        Path(st.csv_path).write_text(text, encoding="utf-8")
        with tr.span("cli.main[fit]"):
            rc = cli.main(["fit", "--schema", SCHEMA, "--input", st.csv_path, "--k", str(TRUE_K),
                           "--missing", "impute", "--seed", str(seed), "-o", st.model_path])
        if rc != 0:
            raise RuntimeError(f"traitclust fit exited {rc}")
        with tr.span("report.parse_report"):
            st.external = report.parse_report(EXTERNAL_REPORT)
        return st

    def reference_fits(self, st):
        # What `traitclust fit --k 5 --seed S` runs.
        return [kmodes.FitConfig(k=TRUE_K, seed=st.seed)]

    def job(self, st, tr):
        with tr.span("cli.main[report]"):
            rc = cli.main(["report", "--schema", SCHEMA, "--input", st.csv_path,
                           "--model", st.model_path, "--missing", "impute",
                           "-o", st.report_path])
        if rc != 0:
            raise RuntimeError(f"traitclust report exited {rc}")
        cli_text = Path(st.report_path).read_text(encoding="utf-8")
        with tr.span("report.parse_report"):
            shares = report.parse_report(cli_text)
        with tr.span("report.fuse_profiles"):
            fused = report.fuse_profiles(shares, st.external, w=self.FUSE_WEIGHT)
        with tr.span("report.emit_report"):
            pie = report.emit_report(fused, "piedata")
        return Output(shares, [cli_text, pie], TRUE_K)

    def persisted_model(self, st):
        """The model document, read with json rather than by traitclust."""
        if st.model is None:
            st.model = json.loads(Path(st.model_path).read_text(encoding="utf-8"))
        return st.model

    def model_of(self, st, out):
        doc = self.persisted_model(st)
        assignments = [doc["assignments"][str(i)] for i in range(len(st.rows))]
        return [tuple(m) for m in doc["modes"]], assignments, doc["cost"]

    def probe_library(self, st, tr):
        """Make the library calls `traitclust report --model` makes, on the
        same input, each in its own span. What the CLI spends beyond them
        is its own: argparse, file I/O and the model document. Returns how
        many cells that were missing in the input the parse filled with a
        valid answer."""
        with tr.span("survey.load_schema"):
            schema = survey.load_schema(SCHEMA)
        parsed, _ = self.probe_parse(st, tr)
        if parsed.report.rows_dropped:
            raise RuntimeError(f"parse dropped {parsed.report.rows_dropped} rows")
        with tr.span("survey.score_profile"):
            profiles = [survey.score_profile(r, schema) for r in parsed.table.rows]
        model = cli._load_model(st.model_path, parsed.dataset)
        with tr.span("report.label_clusters"):
            labeling = report.label_clusters(model, profiles, schema)
        with tr.span("report.personality_percentages"):
            shares = report.personality_percentages(labeling)
        with tr.span("report.emit_report"):
            report.emit_report(shares, "json")
        missing = self.schema_doc["missing_code"]
        valid = range(self.schema_doc["likert_min"], self.schema_doc["likert_max"] + 1)
        return sum(1 for before, after in zip(st.rows, parsed.table.rows)
                   for b, a in zip(before, after) if b == missing and a in valid)

    def oracle(self, st):
        if st.oracle is None:
            rows = check.impute_column_modes(st.rows, self.schema_doc.get("missing_code", 0))
            st.oracle = check.Oracle(self.schema_doc, rows)
        return st.oracle

    def check_emitted(self, out, expected):
        cli_text, pie = out.emitted
        got = json.loads(cli_text)["percent"]
        problems = check.compare_shares(got, expected)
        external = json.loads(EXTERNAL_REPORT)["percent"]
        w = self.FUSE_WEIGHT
        fused = {d: w * got[d] + (1.0 - w) * external[d] for d in got}
        problems += check.check_rounded(check.parse_piedata(pie), fused)
        return problems


WORKLOADS = {w.name: w for w in (FitLarge, ElbowDensity, RescoreCli)}


# Probes: calls a traced run makes after its timed jobs, to split layers
# that a job reaches only through one public call.

def probe_fits(configs, dataset, tr):
    """Re-run every restart of the reference fits on its own (restart r uses
    seed + r, as fit documents), and time init, a one-epoch fit and the
    final cost separately. Distance evaluations are computed, not counted:
    k per row in the allocation pass and k + 1 per row in each epoch."""
    n, m = dataset.n, len(dataset.attrs)
    restart_s = init_s = first_s = cost_s = 0.0
    restarts = epochs = converged = distinct = evals = 0
    for cfg in configs:
        seen = set()
        for r in range(cfg.restarts):
            one = replace(cfg, seed=cfg.seed + r, restarts=1)
            model, dt = tr.call("kmodes.fit", kmodes.fit, dataset, one)
            restart_s += dt
            _, init_dt = tr.call("kmodes.init_modes", kmodes.init_modes,
                                 dataset, one.k, one.init, one.seed)
            _, cost_dt = tr.call("kmodes.within_cluster_difference",
                                 kmodes.within_cluster_difference,
                                 dataset, model.modes, model.assignments, one.policy)
            _, first_dt = tr.call("kmodes.fit", kmodes.fit, dataset, replace(one, max_epochs=1))
            init_s += init_dt
            cost_s += cost_dt
            first_s += first_dt - init_dt - cost_dt
            restarts += 1
            epochs += model.epochs_run
            converged += model.converged
            evals += n * one.k + model.epochs_run * n * (one.k + 1)
            seen.add(check.model_digests([p.values for p in model.modes],
                                         model.assignments, model.cost))
        distinct += len(seen)
    return {
        "kmodes.restart_s": restart_s,
        "kmodes.init_s": init_s,
        "kmodes.first_pass_s": first_s,
        "kmodes.cost_s": cost_s,
        "kmodes.epochs": epochs,
        "kmodes.converged_frac": converged / restarts,
        "kmodes.distinct_restart_frac": distinct / restarts,
        "kmodes.distance_evals": evals,
        "dissimilarity.attr_compares": evals * m,
        "kmodes.ns_per_distance": 1e9 * (restart_s - init_s - cost_s) / evals,
    }, model


def probe_simple_matching(dataset, modes, tr, rows=1000, repeats=3):
    """Nanoseconds per public simple_matching call over rows x modes."""
    sample = dataset.rows[:rows]
    attrs = dataset.attrs
    per_call = []
    for _ in range(repeats):
        with tr.span("dissimilarity.simple_matching") as rec:
            for row in sample:
                for mode in modes:
                    dissimilarity.simple_matching(row, mode, attrs)
        per_call.append((rec[3] - rec[2]) / (len(sample) * len(modes)))
    return 1e9 * statistics.median(per_call)


def probe_dataset_build(parsed, tr):
    """Seconds for CategoricalDataset.from_values on the parsed rows, the
    step parse_responses ends with."""
    table = parsed.table
    return tr.call("kmodes.CategoricalDataset.from_values",
                   kmodes.CategoricalDataset.from_values, table.rows,
                   kinds=[dissimilarity.CATEGORICAL] * len(table.columns),
                   names=list(table.columns), row_ids=list(table.ids))[1]
