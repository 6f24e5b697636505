"""Smoke tests: the example scripts run to completion against the package."""

import os
import re
import shlex
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
    ["reach.py"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    proc = _run_python(str(REPO_ROOT / "scripts" / argv[0]), *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_the_quick_start_prints_what_its_command_prints():
    # README's Quick start: a Python block, then "the same flow as one
    # command" in the shell block under it.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.split("## Quick start", 1)[1]
    code, command = re.search(r"```python\n(.*?)```.*?```sh\n(.*?)```", start, re.S).groups()
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["traitclust", "report"]
    library = _run_python("-c", code)
    cli = _run_python("-m", "traitclust", *argv[1:])
    assert library.returncode == cli.returncode == 0, library.stderr + cli.stderr
    assert library.stdout == cli.stdout


def _run_python(*argv):
    """Python on argv in the repository root, with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], env=env, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120)
