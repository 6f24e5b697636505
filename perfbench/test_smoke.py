"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_N = 120


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--n", str(TINY_N))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = lines[:-1]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in table), m["name"]
    for name, unit in run.UNBOUNDED.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in table)
    if trace and workload == "rescore_cli":
        # Every planted missing cell comes back from the parse as an answer.
        assert result["metrics"]["survey.imputed_cells"]["value"] == round(TINY_N * 50 * 0.02)


def _corrupt_first(job):
    """Wrap a job so that, on its first call only, the first report it
    emits is off by half a point."""
    calls = []

    def corrupted(st, tr):
        out = job(st, tr)
        calls.append(1)
        if len(calls) > 1:
            return out
        text = out.emitted[0]
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            first = doc["dimensions"][0]
            doc["percent"][first] += 0.5
            text = json.dumps(doc)
        else:
            lines = text.split("\n")
            name, value = lines[1].rsplit(None, 1)
            lines[1] = f"{name} {float(value) + 0.5:.3f}"
            text = "\n".join(lines)
        out.emitted[0] = text
        return out
    return corrupted


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_a_corrupted_report_counts_as_one_failed_job(workload):
    run.import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](ROOT, n=TINY_N)
    wl.job = _corrupt_first(wl.job)
    workdir = run.OUT_DIR / f"smoke-{os.getpid()}"
    try:
        _, figures, counts, _ = run.run(wl, 3, 0.1, 0, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert counts["attempted"] >= 1 + run.MIN_JOBS
    assert counts["failed"] == 1
    assert figures["failed_frac"] == 1 / counts["attempted"]


def test_fails_without_the_program():
    bare = run.OUT_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "fit_large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
