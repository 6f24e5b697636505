"""The benchmark's traced probes still run against the library.

perfbench/ sits outside the test paths, so this imports its workloads and,
for each at a small size, runs one set-up, one checked job and every probe
that ``perfbench/run.py --trace 1`` makes. perfbench/ is only read.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

N = 120


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_job_and_every_probe_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](PERFBENCH.parent, n=N)
    tr = spans.Tracer()
    st = wl.setup(3, tr, tmp_path)
    out = wl.job(st, tr)
    assert wl.check(st, out, tr) == []

    parsed, parse_s = wl.probe_parse(st, tr)
    assert parsed.dataset.n == N and parse_s > 0
    assert workloads.probe_dataset_build(parsed, tr) > 0
    fits, model = workloads.probe_fits(wl.reference_fits(st), parsed.dataset, tr)
    assert fits["kmodes.converged_frac"] == 1.0
    assert fits["kmodes.distance_evals"] > 0
    assert workloads.probe_simple_matching(parsed.dataset, model.modes, tr) > 0
    if wl.CLI:
        # Every planted missing cell comes back from the parse as an answer.
        assert wl.probe_library(st, tr) == round(N * 50 * workloads.MISSING_SHARE)
    assert all(s[3] is not None for s in tr.spans)
