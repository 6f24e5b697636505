"""Byte mutations of the CLI's input files give a result or one error line.

An ocean50 input, its schema file, a model fitted on it and a report of a
fit on it are mutated by overwriting, deleting and splicing bytes. Each
mutation goes through every command that reads the mutated file: a parse
under both missing policies, a report through ``fuse`` in both argument
positions beside an ``--aggregate mean`` report, under every format. The
exit code is 0, 1 or 2, nothing escapes ``cli.main``, and a non-zero exit
writes nothing to stdout and exactly one ``error:`` line to stderr. The
examples are derandomized, so every run tests the same inputs. A report
whose metadata digits are overwritten, which fuse does not read, fuses to
the unmutated report's bytes.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from traitclust import dump_schema, generate_synthetic, load_schema
from traitclust.cli import main

# Every command that parses an input; only "report --model" reads the model.
_COMMANDS = [
    ("score",),
    ("fit", "--k", "2"),
    ("elbow", "--k-max", "3"),
    ("report", "--k", "2"),
    ("report", "--model", "{model}"),
    ("report", "--aggregate", "mean"),
]
# fuse reads two reports; the mutated one goes first, then second.
_FUSES = [("fuse", *pair, "--format", fmt)
          for pair in (("{report}", "{mean}"), ("{mean}", "{report}"))
          for fmt in ("json", "text", "piedata")]
# Bytes that move a parse or a JSON decode somewhere: digits (0 is the
# missing code), separators, quotes, JSON punctuation, a byte-order mark's
# first byte and bytes that are not UTF-8.
_BYTES = [*b'0123456789,;"\n\r -+.eE{}[]:', 0xEF, 0xFF, 0x00, 0x80]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The paths of the four files that are mutated, and their unmutated
    bytes, and the path of the --aggregate mean report that fuse reads
    beside a mutated report. The input holds no missing answer, so the
    model covers its rows under either policy."""
    tmp = tmp_path_factory.mktemp("fuzz")
    schema = load_schema("ocean50")
    paths = {"input": tmp / "in.csv", "schema": tmp / "schema.json",
             "model": tmp / "model.json", "report": tmp / "report.json"}
    mean = tmp / "mean.json"
    paths["input"].write_text(generate_synthetic(10, schema, seed=5, noise=0.3).to_csv())
    paths["schema"].write_text(dump_schema(schema))
    parse = ["-i", str(paths["input"]), "--schema", str(paths["schema"])]
    for argv in (["fit", *parse, "--k", "2", "-o", str(paths["model"])],
                 ["report", *parse, "--k", "2", "-o", str(paths["report"])],
                 ["report", *parse, "--aggregate", "mean", "-o", str(mean)]):
        assert _run(argv) == (0, "", "")
    return paths, {name: path.read_bytes() for name, path in paths.items()}, mean


@st.composite
def _mutated(draw, base):
    """``base`` with one to three overwrites, deletions or splices (a copy
    of one stretch inserted at another place)."""
    out = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["overwrite", "delete", "splice"]))
        at = draw(st.integers(0, len(out)))
        if kind == "overwrite":
            out[at:at + 1] = bytes([draw(st.one_of(st.sampled_from(_BYTES),
                                                   st.integers(0, 255)))])
        elif kind == "delete":
            del out[at:at + draw(st.integers(1, 8))]
        else:
            start = draw(st.integers(0, len(out)))
            out[at:at] = out[start:start + draw(st.integers(1, 16))]
    return bytes(out)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_mutated_file_gives_a_result_or_one_error_line(files, data):
    paths, originals, mean = files
    target = data.draw(st.sampled_from(sorted(originals)), label="target")
    mutated = data.draw(_mutated(originals[target]), label="mutated")
    for name, path in paths.items():
        path.write_bytes(mutated if name == target else originals[name])
    if target == "report":
        runs = [[arg.format(report=paths["report"], mean=mean) for arg in command]
                for command in _FUSES]
    else:
        commands = [c for c in _COMMANDS if "--model" in c] if target == "model" else _COMMANDS
        runs = [[command[0], "-i", str(paths["input"]), "--schema", str(paths["schema"]),
                 "--missing", missing,
                 *(arg.format(model=paths["model"]) for arg in command[1:])]
                for command in commands for missing in ("drop", "impute")]
    for argv in runs:
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code:
            assert out == "", argv
            assert err.startswith("error: ") and err.endswith("\n"), (argv, err)
            assert err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("fields", [("k",), ("seed",), ("k", "seed")])
def test_fuse_reads_no_metadata(files, fields):
    # The drawn mutations rarely reach fuse's success path. Overwriting a
    # digit of the report's metadata k or seed does, as fuse does not read
    # metadata: every run writes the bytes of the unmutated report's run.
    paths, originals, mean = files
    mutated = bytearray(originals["report"])
    for field in fields:
        at = mutated.index(f'"{field}": '.encode()) + len(field) + 4
        assert chr(mutated[at]).isdigit() and mutated[at] != ord("7")
        mutated[at] = ord("7")
    for command in _FUSES:
        argv = [arg.format(report=paths["report"], mean=mean) for arg in command]
        paths["report"].write_bytes(originals["report"])
        expected = _run(argv)
        assert expected[0] == 0 and expected[2] == "", (argv, expected)
        paths["report"].write_bytes(mutated)
        assert _run(argv) == expected, argv
