"""Which lines of the package its callers run, traced line by line.

Runs the package's callers in this process under a ``sys.settrace`` line
tracer, started before ``traitclust`` is imported so its module-level lines
count too:

* every CLI command, on both files in data/ and on a generated ``ocean50``
  input, and ``python -m traitclust`` once;
* ``score``, ``report --aggregate mean`` and ``report --k 2``, under both
  missing policies, on a Likert 1..10 input with missing code -1 and padded
  cells such as " 3", whose cells of two characters send every block from
  the block path to the per-line parse and its per-cell checks, and whose
  codes the fit encodes in first-appearance order;
* ``score`` under both missing policies on the generated ``ocean50`` input
  with the missing code in every seventh row, a padded cell " 3" in a row
  that starts no block and, mid-file, an id that holds a quoted comma: the
  block path converts the other blocks, dropping rows under ``--missing
  drop``, and leaves the blocks of those two rows to the per-line parse;
* both example scripts, at small sizes;
* for each perfbench workload, one set-up, one checked job and every probe
  at n=120, as tests/test_bench_probes.py runs them (perfbench/ is only
  read: no bytecode is written).

Temporary files go to a temporary directory. For each file of
src/traitclust it prints the executable lines (those of its code objects),
how many no caller ran, and those lines. Exits 1 if a caller fails.

    python3 scripts/reach.py
"""

import contextlib
import io
import json
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "traitclust"
PERFBENCH = ROOT / "perfbench"
DATA = ROOT / "data"
_PREFIX = str(PACKAGE) + "/"
_ran = {}  # file name -> set of line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_PREFIX):
        return None
    _ran.setdefault(path, set()).add(frame.f_lineno)
    return _local


def _executable(path: Path) -> set:
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _cli(*argv, stdin=""):
    """cli.main(argv) with ``stdin`` as standard input; fails unless it exits 0."""
    from traitclust.cli import main

    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(list(argv))
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"traitclust {' '.join(argv)} exited {code}: {err.getvalue()}")


def _run_as_main(argv, run):
    """Run a script or module as __main__ with ``argv``; fails unless it exits 0."""
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run()
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"{' '.join(argv)} exited {exc.code}") from None
    finally:
        sys.argv = saved


def _cli_callers(tmp: Path):
    ocean = str(tmp / "ocean50.csv")
    _cli("schema", "--list")
    for name in ("ocean50", "scenario", "scenario3", "iwp"):
        _cli("schema", name)
    _cli("gen", "--schema", "ocean50", "--n", "200", "--seed", "3", "--noise", "0.15", "-o", ocean)
    _cli("gen", "--schema", "scenario", "--n", "20", "--mixture", "0.5,0.5,0,0,0",
         "--delimiter", ";")
    inputs = [(str(DATA / "scenario_applicants.csv"), "scenario3", "3"),
              (str(DATA / "iwp_employees.csv"), "scenario3", "2"),
              (ocean, "ocean50", "5")]
    for i, (path, schema, k) in enumerate(inputs):
        parse = ("-i", path, "--schema", schema)
        model, rep = str(tmp / f"model{i}.json"), str(tmp / f"report{i}.json")
        for fmt in ("text", "json"):
            _cli("score", *parse, "--format", fmt)
            _cli("elbow", *parse, "--k-max", k, "--format", fmt)
        _cli("score", *parse, "--missing", "impute")
        _cli("elbow", *parse, "--k-max", k, "--init", "density", "--restarts", "2")
        _cli("fit", *parse, "--k", k, "--seed", "1", "--restarts", "3", "-o", model)
        _cli("fit", *parse, "--k", k, "--init", "density", "-o", model)
        for fmt in ("json", "text", "piedata"):
            _cli("report", *parse, "--k", k, "--format", fmt)
            _cli("report", *parse, "--model", model, "--format", fmt)
            _cli("report", *parse, "--aggregate", "mean", "--format", fmt)
        _cli("report", *parse, "--k", k, "--restarts", "2", "-o", rep)
        _cli("report", "-i", "-", "--schema", schema, "--model", model,
             stdin=Path(path).read_text(encoding="utf-8"))
        for fmt in ("json", "text", "piedata"):
            _cli("fuse", rep, str(tmp / "report0.json"), "--w", "0.3", "--format", fmt)
    _wide_cell_callers(tmp)
    _block_callers(tmp, Path(ocean))
    _run_as_main(["traitclust", "schema", "--list"],
                 lambda: runpy.run_module("traitclust", run_name="__main__"))


def _wide_cell_callers(tmp: Path):
    schema, path = tmp / "likert10.json", tmp / "likert10.csv"
    schema.write_text(json.dumps({
        "name": "likert10", "dimensions": ["A", "B"], "likert_min": 1, "likert_max": 10,
        "missing_code": -1,
        "items": [{"column": f"Q{i}", "dimension": "AB"[i % 2],
                   "keying": "negative" if i == 3 else "positive"} for i in range(4)]}))
    path.write_text("id,Q0,Q1,Q2,Q3\na,10,3,-1,7\nb, 3,9,2,-1\nc,1, 3,10,4\n"
                    "d,3,3,3,3\ne, 3,-1, 3,8\nf,1,2,3,4\n")
    for missing in ("drop", "impute"):
        parse = ("-i", str(path), "--schema", str(schema), "--missing", missing)
        _cli("score", *parse)
        _cli("report", *parse, "--aggregate", "mean")
        _cli("report", *parse, "--k", "2")


def _block_callers(tmp: Path, ocean: Path):
    lines = ocean.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(1, len(lines), 7):
        rid, _, rest = lines[i].partition(",")
        lines[i] = f"{rid},0{rest[1:]}"
    lines[40] = lines[40][:-2] + " 3\n"
    mid = len(lines) // 2
    lines[mid] = '"quoted,id"' + lines[mid][lines[mid].index(","):]
    path = tmp / "ocean50-blocks.csv"
    path.write_text("".join(lines), encoding="utf-8")
    for missing in ("drop", "impute"):
        _cli("score", "-i", str(path), "--schema", "ocean50", "--missing", missing)


def _script_callers():
    scripts = ROOT / "scripts"
    for argv in (["applicant_pipeline.py"], ["applicant_pipeline.py", "--k", "3"],
                 ["synthetic_elbow.py", "--n", "60", "--noise", "0", "0.15",
                  "--k-max", "6", "--restarts", "2"]):
        path = str(scripts / argv[0])
        _run_as_main([path, *argv[1:]], lambda: runpy.run_path(path, run_name="__main__"))


def _perfbench_callers(tmp: Path, n=120):
    sys.path.insert(0, str(PERFBENCH))
    import spans
    import workloads

    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](ROOT, n=n)
        tr = spans.Tracer()
        workdir = tmp / name
        workdir.mkdir()
        st = wl.setup(3, tr, workdir)
        out = wl.job(st, tr)
        problems = wl.check(st, out, tr)
        if problems:
            raise RuntimeError(f"perfbench {name}: {problems}")
        parsed, _ = wl.probe_parse(st, tr)
        workloads.probe_dataset_build(parsed, tr)
        _, model = workloads.probe_fits(wl.reference_fits(st), parsed.dataset, tr)
        workloads.probe_simple_matching(parsed.dataset, model.modes, tr)
        if wl.CLI:
            wl.probe_library(st, tr)


def _ranges(lines):
    """Sorted line numbers as ``a-b`` runs."""
    runs, lines = [], sorted(lines)
    for no in lines:
        if runs and no == runs[-1][1] + 1:
            runs[-1][1] = no
        else:
            runs.append([no, no])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.dont_write_bytecode = True  # leaves perfbench/ as it was
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_global)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _cli_callers(Path(tmp))
            _script_callers()
            _perfbench_callers(Path(tmp))
    except Exception:  # a caller failed: the trace is incomplete
        sys.settrace(None)
        traceback.print_exc()
        return 1
    sys.settrace(None)
    total_exec = total_unrun = 0
    print(f"{'exec':>5} {'unrun':>5}  file: lines no caller ran")
    for path in sorted(PACKAGE.glob("*.py")):
        executable = _executable(path)
        unrun = executable - _ran.get(str(path), set())
        total_exec += len(executable)
        total_unrun += len(unrun)
        print(f"{len(executable):>5} {len(unrun):>5}  {path.name}: {_ranges(unrun)}")
    print(f"{total_exec:>5} {total_unrun:>5}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
