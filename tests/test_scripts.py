"""Smoke tests: the example scripts run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["applicant_pipeline.py"],
    pytest.param(["applicant_pipeline.py", "--k", "3"], id="applicant_pipeline.py-k3"),
    ["synthetic_elbow.py", "--n", "60", "--noise", "0", "0.15", "--k-max", "6",
     "--restarts", "2"],
    ["src_lines.py"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
