"""Fuzz the three JSON documents the CLI reads: schema, cluster model and
percent report. Each example changes one field of a valid document to
another JSON value or deletes it. The library must accept the document or
reject it with a ValueError subclass; the CLI must exit 0, or exit 1 or 2
with nothing on stdout and one ``error:`` line on stderr."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from traitclust import documents, dump_schema, load_schema, parse_report, parse_responses
from traitclust.cli import main

from conftest import APPLICANT_CSV

FIXTURE = str(APPLICANT_CSV)

REPORT = {
    "kind": "percent_report",
    "dimensions": ["North", "South"],
    "percent": {"North": 40.0, "South": 60.0},
    "provenance": "external",
    "metadata": {"source": "interview"},
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from([2**64, 10**400])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)


def _paths(node, prefix=()):
    """Every key or index path inside a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc):
    """A copy of doc with one field deleted or set to another JSON value."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code, out, err):
    if code != 0:
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _library(load):
    """Run a library reader; a rejection must be a ValueError subclass."""
    try:
        load()
    except ValueError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@pytest.fixture(scope="module")
def model_doc(workdir):
    path = workdir / "valid-model.json"
    assert _run("fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
                "--seed", "42", "--restarts", "20", "-o", str(path))[0] == 0
    return json.loads(path.read_text())


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_schema_documents(workdir, data):
    path = workdir / "schema.json"
    path.write_text(json.dumps(_mutate(data, json.loads(dump_schema(load_schema("iwp"))))))
    _library(lambda: load_schema(str(path)))
    _check_outcome(*_run("schema", str(path)))


@pytest.fixture(scope="module")
def dataset():
    return parse_responses(APPLICANT_CSV.read_text(), load_schema("scenario3")).dataset


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_model_documents(workdir, model_doc, dataset, data):
    path = workdir / "model.json"
    text = json.dumps(_mutate(data, model_doc))
    path.write_text(text)
    _library(lambda: documents.load_model(text, dataset.row_ids, len(dataset.attrs),
                                          "scenario3"))
    _check_outcome(*_run("report", "-i", FIXTURE, "--schema", "scenario3",
                         "--model", str(path)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_report_documents(workdir, data):
    a, b = workdir / "a.json", workdir / "b.json"
    text = json.dumps(_mutate(data, REPORT))
    a.write_text(text)
    b.write_text(json.dumps(REPORT))
    _library(lambda: parse_report(text))
    _check_outcome(*_run("fuse", str(a), str(b)))


@pytest.mark.parametrize("text, detail", [
    ("[" * 200_000, "nested too deeply"),
    ('{"n": ' + "1" * 5000 + "}", "Exceeds the limit"),
], ids=["deep", "digits"])
def test_an_undecodable_document_is_invalid_json(tmp_path, text, detail):
    schema = tmp_path / "schema.json"
    schema.write_text(text)
    for load, what in ((lambda: load_schema(str(schema)), f"schema {str(schema)!r}"),
                       (lambda: parse_report(text), "report"),
                       (lambda: documents.load_model(text, (), 0), "model")):
        with pytest.raises(ValueError) as info:
            load()
        assert str(info.value).startswith(f"invalid {what} JSON: {detail}")
