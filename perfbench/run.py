"""Benchmark of the traitclust pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 20 --trace 0

Run from the repository root. One process runs one workload in a closed
loop: a single client, one job at a time, no threads. The import is timed
in three fresh interpreters; set-up (input generation, any persisted
model) runs at least three times and for at least three seconds, and one
warm-up job follows; the timed jobs then repeat until ``--seconds`` have
passed and at least three have run. Every job's output is checked by
``check.py``. A fixed calibration loop runs between set-ups and between
jobs. ``setup_s`` scales the set-up's wall time to a reference machine
speed by the calibration time around it, and ``job_rel_p50`` divides each
job's time by the calibration time around it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced and untraced jobs, then probes the layers, prints the per-layer
metrics and writes every span to ``.perfbench_out/``. Human-readable lines
come first; the last line is one JSON object. README.md beside this file
maps workloads to layers and metrics.
"""

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINS = Path(__file__).resolve().with_name("pins.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # at least; set-up repeats until SETUP_MIN_S have passed
SETUP_MIN_S = 3.0
IMPORT_REPEATS = 3
MIN_JOBS = 3

# The calibration loop's median time on the machine perfbench/baseline.json
# was recorded on. setup_s is the set-up's wall time scaled by this over the
# calibration time measured around the set-up: seconds at that machine's speed.
REFERENCE_CALIBRATION_S = 0.085

END_TO_END = {"setup_s": "s", "job_rel_p50": "ratio", "peak_rss_mb": "MB"}
# End-to-end figures printed in the table before the JSON line but not in it,
# so BENCHMARK.json does not declare them. The raw times drift with the shared
# machine's speed by more than any allowed bound (README.md), so setup_s and
# job_rel_p50 carry the bounds; rows_per_s is n / job_s_p50. The rest are
# exact: k_error and failed_frac are 0 on correct code, and fit_cost and
# share_error_pct move with the seed (the elbow picks k != 5 for about one
# seed in five).
UNBOUNDED = {"setup_wall_s": "s", "warmup_s": "s", "job_s_p50": "s", "rows_per_s": "1/s",
             "fit_cost": "count", "share_error_pct": "%", "k_error": "count",
             "failed_frac": "ratio"}
PER_LAYER = {
    "survey.generate_s": "s", "survey.parse_s": "s", "survey.score_s": "s",
    "survey.imputed_cells": "count",
    "kmodes.dataset_build_s": "s", "kmodes.fit_s": "s", "kmodes.restart_s": "s",
    "kmodes.first_pass_s": "s", "kmodes.init_s": "s", "kmodes.cost_s": "s",
    "kmodes.elbow_s": "s", "kmodes.epochs": "count", "kmodes.converged_frac": "ratio",
    "kmodes.distinct_restart_frac": "ratio", "kmodes.distance_evals": "count",
    "kmodes.ns_per_distance": "ns",
    "dissimilarity.simple_matching_ns": "ns", "dissimilarity.attr_compares": "count",
    "report.label_s": "s", "report.emit_s": "s", "report.parse_report_s": "s",
    "report.fuse_s": "s",
    "cli.report_s": "s", "cli.self_s": "s", "cli.fit_s": "s", "cli.model_bytes": "bytes",
    "trace.overhead_s": "s", "trace.coverage_frac": "ratio",
}


@functools.cache
def _calibration_rows():
    return tuple(tuple((i * 7919 + j * 104729 + i * j) % 5 for j in range(50))
                 for i in range(3000))


def calibration_s():
    """Seconds for a fixed pure-Python loop that does not touch traitclust:
    tuple walks, dict counts, comparisons and string joins, the mix the
    pipeline runs. A job's time divided by the calibration time around it
    cancels most of the shared machine's speed drift."""
    rows = _calibration_rows()
    counts = {}
    gc.disable()  # a collection would also time the live heap, which the program sizes
    try:
        t0 = perf_counter()
        for row in rows:
            for j, v in enumerate(row):
                counts[j, v] = counts.get((j, v), 0) + 1
            sum(1 for a, b in zip(row, rows[0]) if a != b)
            ",".join(map(str, row))
        return perf_counter() - t0
    finally:
        gc.enable()


class ProgramMissing(Exception):
    pass


def import_program():
    """Import traitclust from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import traitclust
        from traitclust import cli, dissimilarity, kmodes, report, survey  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import traitclust from {src}: {exc}") from None
    if Path(traitclust.__file__).resolve().parent != (src / "traitclust").resolve():
        raise ProgramMissing(f"traitclust was imported from {traitclust.__file__}, not {src}")


def import_seconds():
    """Median seconds to import traitclust in a fresh interpreter. This
    process imports it only once, which would be a single sample."""
    code = ("import time; t0 = time.perf_counter(); "
            "from traitclust import cli, dissimilarity, kmodes, report, survey; "
            "print(time.perf_counter() - t0)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS))


def one_job(wl, st, tr, job_id, pins):
    """Run and check one job: (seconds or None if it raised, output, problems)."""
    tr.job = job_id
    t0 = perf_counter()
    try:
        with tr.span("job"):
            out = wl.job(st, tr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, None, ["job raised"]
    seconds = perf_counter() - t0
    try:
        with tr.span("check"):
            problems = wl.check(st, out, tr)
        if pins:
            digests = wl.digests(st, out)
            problems += [f"{key} digest differs from pins.json"
                         for key, want in pins.items() if digests[key] != want]
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for p in problems[:5]:
        print(f"{job_id}: {p}", file=sys.stderr)
    return seconds, out, problems


def layer_metrics(wl, st, tr, traced_ids, setup_ids, imputed):
    import workloads  # importable only once import_program has run

    jobs = [tr.children(j, "job") for j in traced_ids]
    checks = [tr.children(j, "check")[0] for j in traced_ids]
    libs = [tr.children(j, "probe")[0] for j in traced_ids]
    setups = [tr.children(s, "setup")[0] for s in setup_ids]

    def median_of(spans, *names):
        return statistics.median(sum(by.get(n, 0.0) for n in names) for by in spans)

    job_spans = [by for by, _ in jobs]
    m = {
        "survey.generate_s": median_of(setups, "survey.generate_synthetic"),
        "survey.imputed_cells": min(imputed, default=0),
        "kmodes.elbow_s": median_of(job_spans, "kmodes.elbow_scan"),
        "report.emit_s": median_of(job_spans, "report.emit_report"),
        "report.fuse_s": median_of(job_spans, "report.fuse_profiles"),
        "cli.report_s": median_of(job_spans, "cli.main[report]"),
        "cli.fit_s": median_of(setups, "cli.main[fit]"),
        "cli.model_bytes": os.path.getsize(st.model_path) if wl.CLI else 0,
        "trace.coverage_frac": min(sum(by.values()) / total for by, total in jobs),
    }
    if wl.CLI:
        # The job reaches these layers only inside `traitclust report`; each
        # traced job was followed by the same library calls on the same input.
        m["survey.parse_s"] = median_of(libs, "survey.parse_responses")
        m["survey.score_s"] = median_of(libs, "survey.score_profile")
        m["report.label_s"] = median_of(libs, "report.label_clusters",
                                        "report.personality_percentages")
        m["report.parse_report_s"] = median_of(job_spans, "report.parse_report")
        m["cli.self_s"] = statistics.median(
            by["cli.main[report]"] - sum(lib.values()) for by, lib in zip(job_spans, libs))
    else:
        m["survey.parse_s"] = median_of(job_spans, "survey.parse_responses")
        m["survey.score_s"] = median_of(job_spans, "survey.score_profile")
        m["report.label_s"] = median_of(job_spans, "report.label_clusters",
                                        "report.personality_percentages")
        m["report.parse_report_s"] = median_of(checks, "report.parse_report")
        m["cli.self_s"] = 0.0
    tr.job = "probe"
    with tr.span("probe"):
        parsed = wl.probe_parse(st, tr)[0]
        m["kmodes.dataset_build_s"] = workloads.probe_dataset_build(parsed, tr)
        fits, model = workloads.probe_fits(wl.reference_fits(st), parsed.dataset, tr)
        m["dissimilarity.simple_matching_ns"] = workloads.probe_simple_matching(
            parsed.dataset, model.modes, tr)
    m.update(fits)
    # The set-up fit is one restart, so its probe is the fit itself.
    m["kmodes.fit_s"] = fits["kmodes.restart_s"] if wl.CLI else median_of(job_spans, "kmodes.fit")
    return m


def run(wl, seed, seconds, trace, workdir, pins=None):
    """Set up, warm up and run the timed jobs. Returns the metrics (per-layer
    ones when tracing), the unbounded figures, job counts and times, and the
    last set-up state with the first job output."""
    tr = Tracer() if trace else NullTracer()
    null = NullTracer()
    origin = perf_counter()
    setup_times, setup_ids = [], []
    import_s = import_seconds()
    setup_calibrations = [calibration_s()]
    setup_deadline = perf_counter() + SETUP_MIN_S
    while len(setup_times) < SETUP_REPEATS or perf_counter() < setup_deadline:
        tr.job = f"setup-{len(setup_times)}"
        st = None  # let the previous set-up's inputs go before peak memory is taken
        t0 = perf_counter()
        with tr.span("setup"):
            st = wl.setup(seed, tr, workdir)
        setup_times.append(perf_counter() - t0)
        setup_ids.append(tr.job)
        setup_calibrations.append(calibration_s())

    setup_wall_s = import_s + statistics.median(setup_times)
    setup_s = setup_wall_s * REFERENCE_CALIBRATION_S / statistics.median(setup_calibrations)

    warm_s, out, problems = one_job(wl, st, tr, "warmup", pins)
    before = calibration_s()
    attempted, failed = 1, int(bool(problems))
    first_out = out
    times, rel_times, calibrations, traced_times, traced_ids, imputed = [], [], [], [], [], []
    min_jobs = MIN_JOBS + 1 if trace else MIN_JOBS
    deadline = perf_counter() + seconds
    i = 0
    while i < min_jobs or perf_counter() < deadline:
        traced = trace and i % 2 == 1
        job_id = f"job-{i}"
        dt, out, problems = one_job(wl, st, tr if traced else null, job_id, pins)
        attempted += 1
        failed += bool(problems)
        first_out = first_out or out
        if dt is not None and traced:
            traced_times.append(dt)
            traced_ids.append(job_id)
            if wl.CLI:
                with tr.span("probe"):
                    imputed.append(wl.probe_library(st, tr))
        after = calibration_s()
        if dt is not None and not traced:
            times.append(dt)
            rel_times.append(dt / ((before + after) / 2))
            calibrations.append(before)
        before = after
        i += 1
    if not times or first_out is None:
        raise RuntimeError("no job completed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    job_p50 = statistics.median(times)
    metrics = {
        "setup_s": setup_s,
        "job_rel_p50": statistics.median(rel_times),
        "peak_rss_mb": peak_rss_mb,
    }
    figures = {"setup_wall_s": setup_wall_s, "warmup_s": warm_s or 0.0,
               "job_s_p50": job_p50, "rows_per_s": wl.n / job_p50,
               **wl.quality(st, first_out), "failed_frac": failed / attempted}
    if trace:
        layers = layer_metrics(wl, st, tr, traced_ids, setup_ids, imputed)
        layers["trace.overhead_s"] = statistics.median(traced_times) - job_p50
        metrics = layers
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
        tr.write(spans_path, origin)
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tr.spans)} spans)")
    counts = {"attempted": attempted, "failed": failed, "job_times": sorted(times),
              "calibration_s": statistics.median(calibrations + setup_calibrations),
              "traced_jobs": len(traced_times)}
    return metrics, figures, counts, (st, first_out)


def main(argv=None):
    ap = argparse.ArgumentParser(description="traitclust pipeline benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("fit_large", "elbow_density", "rescore_cli"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="respondents per input, overriding the workload's size (smoke test)")
    ap.add_argument("--write-pins", action="store_true",
                    help="record this run's output digests in pins.json (default seed and size)")
    args = ap.parse_args(argv)

    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, n=args.n)
    pinned = args.seed == DEFAULT_SEED and args.n is None
    all_pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins = all_pins.get(wl.name) if pinned and not args.write_pins else None
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        metrics, figures, counts, (st, out) = run(
            wl, args.seed, args.seconds, args.trace, workdir, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_pins:
        if not pinned or counts["failed"]:
            print("perfbench: pins need the default seed and size and a clean run", file=sys.stderr)
            return 1
        all_pins[wl.name] = wl.digests(st, out)
        PINS.write_text(json.dumps(all_pins, indent=2, sort_keys=True) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    times = counts["job_times"]
    print(f"perfbench {wl.name}: seed {args.seed}, n {wl.n}, {len(times)} timed jobs"
          f" + {counts['traced_jobs']} traced + 1 warm-up, {counts['failed']} of"
          f" {counts['attempted']} failed" + (", digests pinned" if pins else ""))
    print(f"  job seconds: min {times[0]:.4f}, median {statistics.median(times):.4f},"
          f" max {times[-1]:.4f} over {len(times)} jobs;"
          f" calibration loop {counts['calibration_s']:.4f} s")
    for name, unit in {**units, **UNBOUNDED}.items():
        value = metrics[name] if name in units else figures[name]
        print(f"  {name:<34} {value:>16.6f} {unit}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
