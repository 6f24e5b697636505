"""End-to-end tests for the command line interface, run in-process."""

import csv
import hashlib
import io
import itertools
import json

import pytest

from traitclust import (
    DegenerateProfileError, FitConfig, cli, dump_schema, elbow_scan,
    emit_report, fit, generate_synthetic, kmodes, label_clusters, load_schema,
    parse_responses, personality_percentages, score_profile, score_profiles, survey,
)
from traitclust.cli import main

from conftest import APPLICANT_CSV, EMPLOYEE_CSV

FIXTURE = str(APPLICANT_CSV)
# report's source and fit flags, in the order a refusal names them.
_REPORT_FLAGS = ("--model", "--k", "--seed", "--restarts", "--init")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def scenario3_model(tmp_path_factory):
    """A k=2 model of the applicant file under scenario3."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "2",
                 "-o", str(path)]) == 0
    return path


class TestSchemaCommand:
    def test_list_presets(self, capsys):
        code, out, err = run(capsys, "schema", "--list")
        assert code == 0
        assert out.splitlines() == ["ocean50", "scenario", "scenario3", "iwp"]

    def test_dump_preset(self, capsys):
        code, out, _ = run(capsys, "schema", "ocean50")
        assert code == 0
        assert out == dump_schema(load_schema("ocean50"))

    def test_no_arguments_is_an_error(self, capsys):
        code, out, err = run(capsys, "schema")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "schema", "big7")
        assert code == 1
        assert "big7" in err

    @pytest.mark.parametrize("field, value", [
        ("likert_min", None), ("likert_max", 4.5), ("items", 5), ("name", 3)])
    def test_mistyped_document_is_one_line_error(self, capsys, tmp_path, field, value):
        doc = json.loads(dump_schema(load_schema("iwp")))
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "schema", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err


class TestGenCommand:
    def test_deterministic_output(self, capsys):
        args = ("gen", "--schema", "scenario", "--n", "20", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 21

    def test_writes_to_a_file(self, capsys, tmp_path):
        target = tmp_path / "gen.csv"
        code, out, _ = run(capsys, "gen", "--schema", "scenario3", "--n", "5",
                           "-o", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 6

    def test_mixture_weights_reach_the_generator(self, capsys):
        code, out, _ = run(capsys, "gen", "--schema", "scenario", "--n", "15",
                           "--mixture", "1,0,0,0,0", "--seed", "2")
        assert code == 0
        schema = load_schema("scenario")
        result = parse_responses(out, schema)
        for row in result.table.rows:
            profile = score_profile(row, schema)
            assert max(profile.percent, key=profile.percent.get) == "Openness"

    def test_bad_mixture_string(self, capsys):
        code, out, err = run(capsys, "gen", "--schema", "scenario", "--n", "5",
                             "--mixture", "lots")
        assert code == 1
        assert out == ""
        assert "--mixture" in err

    @pytest.mark.parametrize("mixture", ["1,nan,0,0,0", "1,inf,0,0,0"])
    def test_non_finite_mixture_weight(self, capsys, mixture):
        code, out, err = run(capsys, "gen", "--schema", "scenario", "--n", "3",
                             "--mixture", mixture)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "finite" in err

    def test_custom_delimiter_round_trips_through_score(self, capsys, tmp_path):
        target = tmp_path / "gen.csv"
        run(capsys, "gen", "--schema", "scenario3", "--n", "8",
            "--delimiter", ";", "-o", str(target))
        code, out, _ = run(capsys, "score", "-i", str(target), "--schema",
                           "scenario3", "--delimiter", ";")
        assert code == 0
        assert len(out.splitlines()) == 9


class TestScoreCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "score", "-i", FIXTURE, "--schema", "scenario3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("id,raw:Openness")
        assert lines[1].startswith("DIYA B,")

    def test_json_profiles(self, capsys):
        code, out, _ = run(capsys, "score", "-i", FIXTURE, "--schema", "scenario3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "profiles"
        assert len(doc["profiles"]) == 9
        first = doc["profiles"][0]
        assert first["id"] == "DIYA B"
        assert first["raw"]["Conscientiousness"] == 2

    def test_schema_with_missing_code_inside_the_likert_range(self, capsys, tmp_path):
        doc = json.loads(dump_schema(load_schema("scenario3")))
        doc["missing_code"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "score", "-i", FIXTURE, "--schema", str(bad))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "missing_code 3" in err

    def test_reads_stdin(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("Q1\n3\n"))
        schema_path = tmp_path / "tiny.json"
        schema_path.write_text(json.dumps({
            "name": "tiny", "dimensions": ["D"],
            "items": [{"column": "Q1", "dimension": "D"}],
        }))
        code, out, _ = run(capsys, "score", "--schema", str(schema_path))
        assert code == 0
        assert "100.000" in out


    def test_ids_and_dimensions_holding_the_delimiter_round_trip(self, capsys, tmp_path):
        schema = tmp_path / "comma.json"
        schema.write_text(json.dumps({
            "name": "comma", "dimensions": ["A, x", "B"],
            "items": [{"column": "Q1", "dimension": "A, x"},
                      {"column": "Q2", "dimension": "B"}],
        }))
        answers = tmp_path / "answers.csv"
        answers.write_text('who,Q1,Q2\n"Smith, J",5,1\nLee,2,4\n')
        code, out, _ = run(capsys, "score", "-i", str(answers), "--schema", str(schema))
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["id", "raw:A, x", "raw:B", "pct:A, x", "pct:B"],
            ["Smith, J", "5", "1", "83.333", "16.667"],
            ["Lee", "2", "4", "33.333", "66.667"],
        ]
        code, out, _ = run(capsys, "report", "-i", str(answers), "--schema", str(schema),
                           "--aggregate", "mean", "--format", "piedata")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["dimension", "percentage"], ["A, x", "58.333"], ["B", "41.667"]]


class TestFitCommand:
    def test_model_document(self, capsys):
        code, out, _ = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3",
                           "--k", "3", "--seed", "42", "--restarts", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "cluster_model"
        assert doc["k"] == 3
        assert doc["n"] == 9
        assert doc["cost"] == 6.0
        assert set(doc["assignments"]) == {
            "DIYA B", "ANUSHREE D", "DHARSHIKA V", "MONISHA S", "SNEHA K",
            "PRIYA M", "DIVYA", "YAMUNA C", "BANUPRIYA C",
        }

    def test_infeasible_k_exits_2_and_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "model.json"
        code, out, err = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3",
                             "--k", "10", "-o", str(target))
        assert code == 2
        assert out == ""
        assert "exceeds" in err
        assert not target.exists()

    def test_an_unknown_init_is_refused_with_one_argparse_line(self, capsys):
        code, out, err = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3",
                             "--k", "2", "--init", "kmeanspp")
        assert (code, out) == (1, "")
        assert err == ("error: argument --init: invalid choice: 'kmeanspp' "
                       "(choose from 'random_rows', 'density')\n")

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_is_one_line_error(self, capsys, tmp_path, target):
        path = tmp_path / "no" / "model.json" if target == "missing_dir" else tmp_path
        code, out, err = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3",
                             "--k", "2", "-o", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_perfbench_loader_call_returns_the_fitted_model(self, capsys, tmp_path):
        # perfbench's rescore_cli job calls cli._load_model(path, dataset)
        model_path = tmp_path / "model.json"
        code, _, _ = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
                         "--seed", "42", "--restarts", "20", "-o", str(model_path))
        assert code == 0
        dataset = parse_responses(APPLICANT_CSV.read_text(), load_schema("scenario3")).dataset
        fitted = kmodes.fit(dataset, kmodes.FitConfig(k=3, seed=42, restarts=20))
        assert cli._load_model(str(model_path), dataset) == fitted

    def test_missing_input_file(self, capsys):
        code, out, err = run(capsys, "fit", "-i", "/no/such/file.csv",
                             "--schema", "scenario3", "--k", "2")
        assert code == 1
        assert out == ""

    def test_gamma_flag_validation(self, capsys):
        # --policy and --gamma are gone from every command
        for command, k_flag in (("fit", "--k"), ("elbow", "--k-max"), ("report", "--k")):
            for flag, value in (("--policy", "mixed"), ("--policy", "weighted"),
                                ("--policy", "simple"), ("--gamma", "2")):
                code, out, err = run(capsys, command, "-i", FIXTURE, "--schema", "scenario3",
                                     k_flag, "2", flag, value)
                assert (code, out) == (1, "")
                assert err.count("\n") == 1 and flag in err


class TestReportCommand:
    def test_repeated_runs_are_byte_identical(self, capsys):
        args = ("report", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
                "--seed", "42", "--restarts", "20")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_persisted_model_reproduces_the_direct_report(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
            "--seed", "42", "--restarts", "20", "-o", str(model_path))
        code, direct, _ = run(capsys, "report", "-i", FIXTURE, "--schema",
                              "scenario3", "--k", "3", "--seed", "42",
                              "--restarts", "20")
        assert code == 0
        code, reused, _ = run(capsys, "report", "-i", FIXTURE, "--schema",
                              "scenario3", "--model", str(model_path))
        assert code == 0
        assert reused == direct

    def test_mean_aggregate_needs_no_k(self, capsys):
        code, out, _ = run(capsys, "report", "-i", FIXTURE, "--schema",
                           "scenario3", "--aggregate", "mean")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["aggregate"] == "mean"
        assert doc["metadata"]["n"] == 9

    def test_share_aggregate_requires_k_or_model(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema",
                             "scenario3", "-o", str(target))
        assert code == 1
        assert out == ""
        assert "--k" in err
        assert not target.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--aggregate", "mean", "--k", "3"), "--k does not apply to --aggregate mean"),
        (("--aggregate", "mean", "--model", "MODEL"),
         "--model does not apply to --aggregate mean"),
        (("--model", "MODEL", "--k", "3"), "--k does not apply to --model"),
    ])
    def test_flags_the_report_would_ignore_are_refused(self, capsys, tmp_path, scenario3_model,
                                                       flags, message):
        target = tmp_path / "report.json"
        flags = [str(scenario3_model) if f == "MODEL" else f for f in flags]
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema", "scenario3",
                             *flags, "-o", str(target))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--model", "MODEL", "--seed", "9", "--restarts", "50", "--init", "density"),
         "--seed, --restarts, --init do not apply to --model"),
        (("--model", "MODEL", "--seed", "0"), "--seed does not apply to --model"),
        (("--model", "MODEL", "--init", "random_rows"), "--init does not apply to --model"),
        (("--aggregate", "mean", "--restarts", "1"),
         "--restarts does not apply to --aggregate mean"),
        (("--aggregate", "mean", "--seed", "3", "--init", "density"),
         "--seed, --init do not apply to --aggregate mean"),
    ])
    def test_fit_flags_without_a_fit_are_refused(self, capsys, tmp_path, scenario3_model,
                                                 flags, message):
        target = tmp_path / "report.json"
        flags = [str(scenario3_model) if f == "MODEL" else f for f in flags]
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema", "scenario3",
                             *flags, "-o", str(target))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("aggregate", [(), ("--aggregate", "mean")])
    @pytest.mark.parametrize("given", [
        given for size in range(len(_REPORT_FLAGS) + 1)
        for given in itertools.combinations(_REPORT_FLAGS, size)])
    def test_a_refusal_names_exactly_the_flags_that_do_not_apply(
            self, capsys, tmp_path, scenario3_model, aggregate, given):
        # --model applies only to shares, and --k and the fit flags only to a
        # fit: with --aggregate mean none applies, with --model none but it.
        if aggregate:
            idle, where = given, "--aggregate mean"
        else:
            idle = given[1:] if given[:1] == ("--model",) else ()
            where = "--model"
        values = {"--model": str(scenario3_model), "--k": "2", "--seed": "3",
                  "--restarts": "2", "--init": "density"}
        target = tmp_path / "report.json"
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema", "scenario3",
                             *aggregate, *(a for flag in given for a in (flag, values[flag])),
                             "-o", str(target))
        if idle:
            verb = "does" if len(idle) == 1 else "do"
            message = f"error: {', '.join(idle)} {verb} not apply to {where}\n"
        elif not aggregate and not {"--model", "--k"} & set(given):
            message = "error: --k is required unless --model or --aggregate mean is given\n"
        else:
            assert (code, out, err) == (0, "", "")
            assert json.loads(target.read_text())["kind"] == "percent_report"
            return
        assert (code, out, err) == (1, "", message)
        assert not target.exists()

    def test_report_k_fits_with_seed_0_one_restart_and_random_rows(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
            "-o", str(model_path))
        base = ("report", "-i", FIXTURE, "--schema", "scenario3")
        code, implicit, _ = run(capsys, *base, "--k", "3")
        assert code == 0
        explicit = run(capsys, *base, "--k", "3", "--seed", "0", "--restarts", "1",
                       "--init", "random_rows")
        assert explicit == (0, implicit, "")
        assert run(capsys, *base, "--model", str(model_path)) == (0, implicit, "")

    def test_fit_flags_left_out_stay_unset_and_fit_with_fitconfig_defaults(self, capsys):
        parser = cli.build_parser()
        common = ["--schema", "scenario3"]
        for argv in (["fit", "--k", "2"], ["elbow", "--k-max", "3"], ["report"]):
            args = parser.parse_args(argv + common)
            assert (args.seed, args.restarts, args.init) == (None, None, None)
        defaults = ("--seed", "0", "--restarts", "1", "--init", "random_rows")
        for argv in (["fit", "--k", "3"], ["elbow", "--k-max", "4"]):
            implicit = run(capsys, *argv, "-i", FIXTURE, *common)
            assert implicit[0] == 0
            assert run(capsys, *argv, "-i", FIXTURE, *common, *defaults) == implicit

    def test_piedata_format(self, capsys):
        code, out, _ = run(capsys, "report", "-i", FIXTURE, "--schema",
                           "scenario3", "--k", "3", "--seed", "42",
                           "--restarts", "20", "--format", "piedata")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dimension,percentage"
        assert len(lines) == 6

    @pytest.mark.parametrize("field, value", [
        ("k", 2),
        ("config_k", 2),
        ("modes", [[1, 1, 1], [2, 2, 2]]),
        ("modes", [[1, 1, 1], [2, 2, 2], [3, 3]]),
        ("assignment", 3),
        ("assignment", -1),
        ("k", float("inf")),
        ("epochs_run", float("inf")),
        ("config_seed", float("inf")),
        ("policy_mode", "mixed"),
        ("k_and_config_k", 3.5),
        ("config_seed", True),
        ("config_max_epochs", 100.5),
        ("config_restarts", "1"),
        ("epochs_run", 2.5),
        ("assignment", True),
        ("assignment", 1.0),
        ("converged", "no"),
        ("cost", "6.0"),
        ("modes", [[1, 1, "a"], [2, 2, 2], [3, 3, 3]]),
        ("modes", [[1, 1, True], [2, 2, 2], [3, 3, 3]]),
        ("policy_mode", "weighted"),
        ("n", 10),
        ("n", 8),
        ("n", "9"),
    ])
    def test_inconsistent_model_document(self, capsys, tmp_path, field, value):
        model_path = tmp_path / "model.json"
        run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
            "--seed", "42", "-o", str(model_path))
        doc = json.loads(model_path.read_text())
        if field == "k_and_config_k":
            doc["k"] = doc["config"]["k"] = value
        elif field.startswith("config_"):
            doc["config"][field.removeprefix("config_")] = value
        elif field == "policy_mode":
            doc["config"]["policy"]["mode"] = value
        elif field == "assignment":
            # cluster 0 keeps other members, so only the value can fail the load
            doc["assignments"]["ANUSHREE D"] = value
        else:
            doc[field] = value
        model_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema",
                             "scenario3", "--model", str(model_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if field == "policy_mode":
            assert err == f"error: malformed model document: unknown policy mode {value!r}\n"

    def test_model_with_gamma_settings_still_loads(self, capsys, tmp_path):
        # Older model documents also carry gamma settings under
        # config.policy; they are ignored.
        model_path = tmp_path / "model.json"
        run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
            "--seed", "42", "--restarts", "20", "-o", str(model_path))
        doc = json.loads(model_path.read_text())
        assert doc["config"]["policy"] == {"mode": "simple"}
        doc["config"]["policy"].update(gamma_mode="auto", gamma_value=1.0)
        model_path.write_text(json.dumps(doc))
        _, direct, _ = run(capsys, "report", "-i", FIXTURE, "--schema", "scenario3",
                           "--k", "3", "--seed", "42", "--restarts", "20")
        code, reused, err = run(capsys, "report", "-i", FIXTURE, "--schema",
                                "scenario3", "--model", str(model_path))
        assert (code, err) == (0, "")
        assert reused == direct

    def test_model_from_another_schema_is_rejected(self, capsys, tmp_path):
        # scenario and iwp read the same columns, so only the model's
        # schema field tells them apart
        csv_path, model_path = tmp_path / "responses.csv", tmp_path / "model.json"
        run(capsys, "gen", "--schema", "scenario", "--n", "20", "--seed", "1",
            "-o", str(csv_path))
        run(capsys, "fit", "-i", str(csv_path), "--schema", "scenario", "--k", "2",
            "-o", str(model_path))
        code, _, _ = run(capsys, "report", "-i", str(csv_path), "--schema", "scenario",
                         "--model", str(model_path))
        assert code == 0
        code, out, err = run(capsys, "report", "-i", str(csv_path), "--schema", "iwp",
                             "--model", str(model_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "scenario" in err and "iwp" in err

    @pytest.mark.parametrize("change, message", [
        ("subset", "model was fitted on 9 rows, but the input has 8"),
        ("superset", "model was fitted on 9 rows, but the input has 10"),
        ("subset_with_n", "model assigns 9 rows, but the input has 8"),
        ("superset_with_n", "model has no assignment for row 'NEW ONE'"),
    ])
    def test_model_must_cover_exactly_the_input_rows(self, capsys, tmp_path, change,
                                                     message):
        model_path, csv_path = tmp_path / "model.json", tmp_path / "responses.csv"
        run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
            "--seed", "42", "--restarts", "20", "-o", str(model_path))
        lines = APPLICANT_CSV.read_text().splitlines(keepends=True)
        if change.startswith("subset"):
            del lines[-1]
        else:
            lines.append("NEW ONE,AID999,3,3,3\n")
        csv_path.write_text("".join(lines))
        if change.endswith("_with_n"):
            doc = json.loads(model_path.read_text())
            doc["n"] = len(lines) - 1
            model_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "-i", str(csv_path), "--schema",
                             "scenario3", "--model", str(model_path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_malformed_model_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "cluster_model", "config": {}}))
        code, out, err = run(capsys, "report", "-i", FIXTURE, "--schema",
                             "scenario3", "--model", str(bad))
        assert code == 1
        assert "malformed" in err


@pytest.mark.parametrize("missing", ["drop", "impute"])
def test_a_model_of_other_rows_is_refused_before_scoring(capsys, monkeypatch, tmp_path,
                                                          missing):
    # report --model loads and checks the model right after the parse, so a
    # model that does not match the input is refused before any scoring.
    schema = load_schema("ocean50")
    lines = generate_synthetic(40, schema, seed=3, noise=0.2).to_csv().splitlines(keepends=True)
    # Missing cells in two rows; every kept cell, imputed or not, lies in
    # [1, 5], so the fitted modes pass the model's range check.
    lines[1], lines[2] = (line.replace(",3,", ",0,", 2) for line in lines[1:3])
    matching, other = tmp_path / "matching.csv", tmp_path / "other.csv"
    matching.write_text("".join(lines))
    other.write_text("".join(lines[:-1]))
    parse = ("--schema", "ocean50", "--missing", missing)
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "fit", "-i", str(matching), *parse, "--k", "3", "-o", model_path) == (
        0, "", "")
    direct = run(capsys, "report", "-i", str(matching), *parse, "--k", "3")
    assert direct[0] == 0
    assert run(capsys, "report", "-i", str(matching), *parse, "--model", model_path) == direct

    def unreachable(*args):
        raise AssertionError("scored before the model was checked")

    monkeypatch.setattr(cli, "score_profiles", unreachable)
    n = 39 if missing == "impute" else 37
    assert run(capsys, "report", "-i", str(other), *parse, "--model", model_path) == (
        1, "", f"error: model was fitted on {n + 1} rows, but the input has {n}\n")


def test_report_and_score_run_without_datasets_or_profiles(capsys, monkeypatch, tmp_path):
    # report --model, report --aggregate mean and score work on columns: a
    # CategoricalDataset or a TraitProfile built on the way is a fall-back
    # to the per-row path.
    model_path = tmp_path / "model.json"
    run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "3",
        "--seed", "42", "--restarts", "20", "-o", str(model_path))
    commands = [
        ("report", "--model", str(model_path)),
        ("report", "--model", str(model_path), "--format", "text"),
        ("report", "--aggregate", "mean"),
        ("score",),
        ("score", "--format", "json"),
    ]
    expected = [run(capsys, *argv, "-i", FIXTURE, "--schema", "scenario3")
                for argv in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("the report path built a per-row object")

    # Every dataset, from_values' and from_raw's too, runs __post_init__.
    monkeypatch.setattr(kmodes.CategoricalDataset, "__post_init__", refuse)
    monkeypatch.setattr(survey.TraitProfile, "__init__", refuse)
    for argv, before in zip(commands, expected):
        assert before[0] == 0
        assert run(capsys, *argv, "-i", FIXTURE, "--schema", "scenario3") == before


@pytest.mark.parametrize("missing", ["drop", "impute"])
def test_only_a_fit_builds_the_row_tuples(capsys, monkeypatch, tmp_path, missing):
    # A parsed table holds its byte table until its rows are read. score,
    # report --model and report --aggregate mean never read them, nor does
    # the scoring step of report --k, which scores before it fits.
    schema = load_schema("ocean50")
    lines = generate_synthetic(40, schema, seed=3, noise=0.2).to_csv().splitlines(keepends=True)
    lines[1], lines[2] = (line.replace(",3,", ",0,", 2) for line in lines[1:3])
    data = tmp_path / "in.csv"
    data.write_text("".join(lines))
    parse = ("-i", str(data), "--schema", "ocean50", "--missing", missing)
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "fit", *parse, "--k", "3", "-o", model_path) == (0, "", "")
    tables, scored = [], []

    def parse_responses(*args, **kwargs):
        result = survey.parse_responses(*args, **kwargs)
        tables.append(result.table)
        return result

    def score_profiles(table, schema):
        scored.append("rows" in vars(table))
        return survey.score_profiles(table, schema)

    monkeypatch.setattr(cli, "parse_responses", parse_responses)
    monkeypatch.setattr(cli, "score_profiles", score_profiles)
    for argv, fits in [(("score",), False), (("score", "--format", "json"), False),
                       (("report", "--model", model_path), False),
                       (("report", "--aggregate", "mean"), False),
                       (("report", "--k", "3"), True)]:
        tables.clear(), scored.clear()
        assert run(capsys, *argv, *parse)[0] == 0
        (table,) = tables
        assert scored == [False]
        assert ("rows" in vars(table)) is fits is not ("_codes" in vars(table))


class TestElbowCommand:
    def test_json_curve(self, capsys):
        code, out, _ = run(capsys, "elbow", "-i", FIXTURE, "--schema", "scenario3",
                           "--k-max", "4", "--restarts", "10")
        assert code == 0
        # default format is text
        assert "selected k" in out
        code, out, _ = run(capsys, "elbow", "-i", FIXTURE, "--schema", "scenario3",
                           "--k-max", "4", "--restarts", "10", "--format", "json")
        doc = json.loads(out)
        assert doc["kind"] == "elbow"
        assert [k for k, _ in doc["curve"]] == [1, 2, 3, 4]
        assert isinstance(doc["selected_k"], int)

    @pytest.mark.parametrize("flags, message", [
        (("--k-max", "4", "--epsilon", "2"), "epsilon must lie in (0, 1), got 2.0"),
        (("--k-max", "4", "--epsilon", "nan"), "epsilon must lie in (0, 1), got nan"),
        (("--k-min", "3", "--k-max", "3"), "elbow curve needs at least two points"),
    ])
    def test_selection_arguments_are_rejected_before_any_fit(self, capsys, monkeypatch,
                                                             flags, message):
        def no_fit(*args):
            raise AssertionError("the scan ran a fit")

        monkeypatch.setattr(kmodes, "_fit_once", no_fit)
        code, out, err = run(capsys, "elbow", "-i", FIXTURE, "--schema", "scenario3", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_k_max_above_n_exits_2(self, capsys):
        code, out, err = run(capsys, "elbow", "-i", FIXTURE, "--schema",
                             "scenario3", "--k-max", "50")
        assert code == 2
        assert out == ""

    def test_a_huge_k_max_exits_2_before_a_config_per_k(self, capsys, ten_configs):
        # The rows are counted before the scan builds one config per k.
        assert run(capsys, "elbow", "-i", FIXTURE, "--schema", "scenario3",
                   "--k-max", "1000000000") == (
            2, "", "error: k=1000000000 exceeds the number of rows (9)\n")


class TestFuseCommand:
    def _write_report(self, path, north, provenance="questionnaire"):
        doc = {
            "kind": "percent_report",
            "dimensions": ["North", "South"],
            "percent": {"North": north, "South": 100.0 - north},
            "provenance": provenance,
        }
        path.write_text(json.dumps(doc))

    def test_fuses_two_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(a, 100.0)
        self._write_report(b, 0.0, provenance="external")
        code, out, _ = run(capsys, "fuse", str(a), str(b), "--w", "0.25")
        assert code == 0
        doc = json.loads(out)
        assert doc["percent"] == {"North": 25.0, "South": 75.0}
        assert doc["provenance"] == "fused"

    def test_writes_to_a_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(a, 60.0)
        self._write_report(b, 40.0)
        target = tmp_path / "fused.json"
        code, out, _ = run(capsys, "fuse", str(a), str(b), "-o", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["provenance"] == "fused"

    def test_rejects_a_null_percentage(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(a, 50.0)
        self._write_report(b, 50.0)
        a.write_text(a.read_text().replace("50.0", "null", 1))
        code, out, err = run(capsys, "fuse", str(a), str(b))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rejects_duplicate_dimensions(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(b, 50.0)
        a.write_text(json.dumps({
            "kind": "percent_report", "dimensions": ["North", "North"],
            "percent": {"North": 100.0}, "provenance": "external",
        }))
        code, out, err = run(capsys, "fuse", str(a), str(b), "--format", "piedata")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "duplicate dimensions" in err

    def test_rejects_non_report_input(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"kind": "something_else"}))
        b = tmp_path / "b.json"
        self._write_report(b, 50.0)
        code, out, err = run(capsys, "fuse", str(a), str(b))
        assert code == 1
        assert out == ""


@pytest.mark.parametrize("argv, digest", [
    (("fit", "--k", "3", "--seed", "42", "--restarts", "20"),
     "996becfa1904e141d787c657aa6ec5dede9c5e19fba3175a1d62810740636781"),
    (("elbow", "--k-max", "4", "--restarts", "10", "--format", "json"),
     "349b9c8e487f3bdef38b05555f40a3e32c3bdbe9b3105c2b2e927f70f8d876d7"),
    (("score", "--format", "json"),
     "be80b44a237775f350197b028986b157c7121bb5b492d6ff2a3e1878ba850418"),
], ids=["fit", "elbow", "score"])
def test_json_documents_are_byte_frozen(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "-i", FIXTURE, "--schema", "scenario3")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# data/iwp_employees.csv, the employee side of the paper's data, holds
# Scenario 1-3 only: it parses under scenario3, not under iwp (Scenario 1-5).
@pytest.mark.parametrize("argv, digest", [
    (("score",), "cb9ae8c91a6a6031cdb15d216210baa75d0bb5a39174c5b65a4658f5165e4f8c"),
    (("report", "--k", "2"), "351cc0f901a289f1675520f47de26d3c01d9cc4af1d8321d5365c25471b864f0"),
], ids=["score", "report"])
def test_the_employee_file_is_byte_frozen_under_scenario3(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "-i", str(EMPLOYEE_CSV), "--schema", "scenario3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestMissingHandling:
    CSV = "who,Q1\na,2\nb,0\nc,5\n"

    def _schema_file(self, tmp_path):
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps({
            "name": "tiny", "dimensions": ["D"],
            "items": [{"column": "Q1", "dimension": "D"}],
        }))
        return str(p)

    def test_drop_removes_the_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.CSV))
        code, out, _ = run(capsys, "score", "--schema", self._schema_file(tmp_path),
                           "--missing", "drop")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_impute_keeps_the_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.CSV))
        code, out, _ = run(capsys, "score", "--schema", self._schema_file(tmp_path),
                           "--missing", "impute")
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("argv", [
        ("fit", "--k", "1"), ("elbow", "--k-max", "2"), ("report", "--k", "1"),
    ], ids=lambda argv: argv[0])
    def test_an_input_whose_every_row_is_dropped_cannot_be_fitted(
            self, capsys, tmp_path, monkeypatch, argv):
        # 0 is the missing code, so --missing drop leaves no row
        monkeypatch.setattr("sys.stdin", io.StringIO("who,Q1\na,0\nb,0\n"))
        code, out, err = run(capsys, *argv, "--schema", self._schema_file(tmp_path))
        assert (code, out, err) == (1, "", "error: cannot fit an empty dataset\n")


def test_an_all_zero_row_is_refused_by_the_library_and_the_cli_alike(capsys, tmp_path):
    # With likert_min 0 a row of zeros scores 0 on every dimension, so its
    # percentages are undefined.
    doc = {"name": "zero-floor", "dimensions": ["A", "B"], "likert_min": 0,
           "likert_max": 2, "missing_code": -1,
           "items": [{"column": "Q1", "dimension": "A"}, {"column": "Q2", "dimension": "B"}]}
    schema = load_schema(doc)
    rows = [(1, 2), (0, 0), (2, 0)]
    message = "all raw scores are zero; percentages are undefined"
    with pytest.raises(DegenerateProfileError) as one:
        score_profile(rows[1], schema)
    assert str(one.value) == message
    (tmp_path / "zero.json").write_text(json.dumps(doc))
    text = "who,Q1,Q2\n" + "".join(f"r{i},{a},{b}\n" for i, (a, b) in enumerate(rows))
    (tmp_path / "in.csv").write_text(text)
    # A parsed table names the row by its id.
    with pytest.raises(DegenerateProfileError) as named:
        score_profiles(parse_responses(text, schema).table, schema)
    assert str(named.value) == f"row 'r1': {message}"
    parse = ("-i", str(tmp_path / "in.csv"), "--schema", str(tmp_path / "zero.json"))
    for argv in (("score",), ("score", "--format", "json"), ("report", "--aggregate", "mean")):
        assert run(capsys, *argv, *parse) == (1, "", f"error: row 'r1': {message}\n")


@pytest.mark.parametrize("marked", ["input", "schema", "model"])
def test_a_utf8_byte_order_mark_changes_no_output(capsys, tmp_path, marked):
    # Spreadsheet exports often open a file with the bytes EF BB BF. The
    # input's first column is a schema column, which a kept mark would hide.
    paths = {name: tmp_path / f"{name}.txt" for name in ("input", "schema", "model")}
    paths["input"].write_text("Q1,who,Q2\n5,a,1\n2,b,4\n4,c,2\n1,d,5\n", encoding="utf-8")
    paths["schema"].write_text(json.dumps({
        "name": "pair", "dimensions": ["A", "B"],
        "items": [{"column": "Q1", "dimension": "A"}, {"column": "Q2", "dimension": "B"}],
    }), encoding="utf-8")
    argv = ("-i", str(paths["input"]), "--schema", str(paths["schema"]))
    assert run(capsys, "fit", *argv, "--k", "2", "-o", str(paths["model"]))[0] == 0
    report = ("report", *argv, "--model", str(paths["model"]), "--format", "text")
    code, plain, _ = run(capsys, *report)
    assert code == 0
    paths[marked].write_text("\ufeff" + paths[marked].read_text(encoding="utf-8"),
                             encoding="utf-8")
    assert paths[marked].read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(capsys, *report) == (0, plain, "")


def test_answers_of_eight_and_above_run_through_the_cli_as_through_the_library(
        capsys, tmp_path):
    # Likert 1..10 puts codes past the byte layout, so the rows take the
    # BitEncoder's first-appearance layout. fit, report --model and elbow
    # give what the library gives in process.
    dims = ["A", "B", "C"]
    (tmp_path / "likert10.json").write_text(json.dumps({
        "name": "likert10", "dimensions": dims, "likert_min": 1, "likert_max": 10,
        "missing_code": 0,
        "items": [{"column": f"Q{i}", "dimension": dims[i % 3],
                   "keying": "negative" if i % 4 == 3 else "positive"} for i in range(9)]}))
    schema = load_schema(str(tmp_path / "likert10.json"))
    rows = csv.reader(io.StringIO(generate_synthetic(150, schema, seed=4, noise=0.3).to_csv()))
    # every 17th answer goes missing and is imputed
    text = "".join(",".join("0" if r and c and (r * 9 + c) % 17 == 5 else v
                            for c, v in enumerate(row)) + "\n"
                   for r, row in enumerate(rows))
    assert "0" in (v for line in text.splitlines()[1:] for v in line.split(",")[1:])
    (tmp_path / "in.csv").write_text(text)
    parsed = parse_responses(text, schema, missing_policy="impute_mode")
    assert not kmodes._encode_rows(parsed.dataset)[0].bytewise
    assert max(max(row) for row in parsed.table.rows) == 10
    config = FitConfig(k=3, seed=2, restarts=2)
    model = fit(parsed.dataset, config)
    _, percent = score_profiles(parsed.table, schema)
    expected = emit_report(personality_percentages(label_clusters(model, percent, schema)), "json")

    parse = ("-i", str(tmp_path / "in.csv"), "--schema", str(tmp_path / "likert10.json"),
             "--missing", "impute")
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "fit", *parse, "--k", "3", "--seed", "2", "--restarts", "2",
               "-o", model_path) == (0, "", "")
    assert json.loads((tmp_path / "model.json").read_text())["cost"] == model.cost
    assert run(capsys, "report", *parse, "--model", model_path) == (0, expected, "")
    assert run(capsys, "report", *parse, "--k", "3", "--seed", "2", "--restarts", "2") == (
        0, expected, "")
    code, out, err = run(capsys, "elbow", *parse, "--k-max", "4", "--seed", "2",
                         "--restarts", "2", "--format", "json")
    assert (code, err) == (0, "")
    curve = elbow_scan(parsed.dataset, 1, 4, seed=2, restarts=2)
    assert json.loads(out)["curve"] == [[k, cost] for k, cost in curve]
    assert dict(curve)[3] == model.cost


_PARSED = ("-i", FIXTURE, "--schema", "scenario3")
_STDIN = ("-i", "-", "--schema", "scenario3")


class _UnreadStdin(io.StringIO):
    """A stdin that no refusal may read."""

    def read(self, *args):
        raise AssertionError("the refusal read stdin")


# One row per refusal: the command, the bad value, the exit code and the one
# error line. Exit 2 is a k the input cannot hold (below 1, or above its 9
# rows or 6 distinct rows); every other refusal exits 1. list.json, in the
# working directory, holds a JSON list where a document needs an object, and
# deep.json nests lists past the JSON decoder's depth. wide-header.csv and
# wide-row.csv are the input with one field over the csv module's size limit.
# likert300.json is scenario3 with a likert_max past the parse's byte table.
@pytest.mark.parametrize("argv, code, message", [
    pytest.param(("fit", *_PARSED, "--k", "0"), 2, "k must be >= 1, got 0", id="fit k=0"),
    pytest.param(("report", *_PARSED, "--k", "0"), 2, "k must be >= 1, got 0",
                 id="report k=0"),
    pytest.param(("elbow", *_PARSED, "--k-min", "0", "--k-max", "3"), 2,
                 "k must be >= 1, got 0", id="elbow k_min=0"),
    pytest.param(("elbow", *_PARSED, "--k-min", "0", "--k-max", "0"), 2,
                 "k must be >= 1, got 0", id="elbow k_max=0"),
    pytest.param(("fit", *_PARSED, "--k", "2", "--seed", "-1"), 1,
                 "seed must be an integer in [0, 2**64), got -1", id="fit seed=-1"),
    pytest.param(("gen", "--schema", "scenario3", "--n", "5", "--seed", "-1"), 1,
                 "seed must be an integer in [0, 2**64), got -1", id="gen seed=-1"),
    pytest.param(("gen", "--schema", "scenario3", "--n", "99999999999999999999"), 1,
                 "n must be <= 1000000, got 99999999999999999999", id="gen n>10**6"),
    pytest.param(("fit", *_PARSED, "--k", "10"), 2, "k=10 exceeds the number of rows (9)",
                 id="fit k>n"),
    pytest.param(("elbow", *_PARSED, "--k-max", "9"), 2,
                 "k=7 exceeds the number of distinct rows (6)", id="elbow k>distinct"),
    pytest.param(("fit", *_PARSED, "--k", "7", "--init", "density"), 2,
                 "k=7 exceeds the number of distinct rows (6)", id="fit density k>distinct"),
    pytest.param(("elbow", *_PARSED, "--k-max", "8", "--init", "density"), 2,
                 "k=7 exceeds the number of distinct rows (6)",
                 id="elbow density k>distinct"),
    pytest.param(("elbow", *_PARSED, "--k-min", "3", "--k-max", "2"), 1,
                 "need k_min <= k_max, got 3..2", id="elbow k_min>k_max"),
    pytest.param(("report", *_PARSED, "--k", "2", "--model", "model.json"), 1,
                 "--k does not apply to --model", id="report k+model"),
    pytest.param(("elbow", *_PARSED, "--k-max", "4", "--epsilon", "0"), 1,
                 "epsilon must lie in (0, 1), got 0.0", id="elbow epsilon=0"),
    pytest.param(("score", "-i", FIXTURE, "--schema", "list.json"), 1,
                 "schema 'list.json' document must be a JSON object, got list",
                 id="schema list"),
    pytest.param(("fuse", "list.json", "list.json"), 1,
                 "report document must be a JSON object, got list", id="fuse list"),
    pytest.param(("report", *_PARSED, "--model", "list.json"), 1,
                 "model document must be a JSON object, got list", id="model list"),
    pytest.param(("score", "-i", FIXTURE, "--schema", "deep.json"), 1,
                 "invalid schema 'deep.json' JSON: nested too deeply", id="schema deep"),
    pytest.param(("fuse", "deep.json", "list.json"), 1,
                 "invalid report JSON: nested too deeply", id="fuse deep"),
    pytest.param(("report", *_PARSED, "--model", "deep.json"), 1,
                 "invalid model JSON: nested too deeply", id="model deep"),
    *(pytest.param((command, "-i", f"wide-{where}.csv", "--schema", "scenario3", *more), 1,
                   f"row {line}: field larger than field limit ({csv.field_size_limit()})",
                   id=f"{command} wide {where}")
      for command, more in [("score", ()), ("fit", ("--k", "2")), ("report", ("--k", "2")),
                            ("elbow", ("--k-max", "3"))]
      for where, line in [("header", 1), ("row", 3)]),
    *(pytest.param((command, *_PARSED[:2], "--schema", "likert300.json", *more), 1,
                   "schema 'scenario3': likert_max must be <= 254, got 300",
                   id=f"{command} likert_max=300")
      for command, more in [("score", ()), ("fit", ("--k", "2")), ("report", ("--k", "2"))]),
    # stdin holds one input, so a second read would see it empty: refused
    # before either is read.
    pytest.param(("report", "-i", "-", "--schema", "scenario3", "--model", "-"), 1,
                 "--input and --model cannot both read stdin", id="report stdin twice"),
    pytest.param(("fuse", "-", "-"), 1, "reports a and b cannot both read stdin",
                 id="fuse stdin twice"),
    # A refusal that needs only the arguments comes before the input is read.
    pytest.param(("report", *_STDIN), 1,
                 "--k is required unless --model or --aggregate mean is given",
                 id="report no source, stdin"),
    *(pytest.param((command, *_STDIN, *flags), code, message, id=f"{command} {id_}, stdin")
      for command in ("fit", "report")
      for flags, code, message, id_ in [
          (("--k", "0"), 2, "k must be >= 1, got 0", "k=0"),
          (("--k", "2", "--seed", "-1"), 1,
           "seed must be an integer in [0, 2**64), got -1", "seed=-1"),
          (("--k", "2", "--restarts", "0"), 1, "restarts must be >= 1, got 0",
           "restarts=0")]),
    pytest.param(("elbow", *_STDIN, "--k-max", "4", "--epsilon", "0"), 1,
                 "epsilon must lie in (0, 1), got 0.0", id="elbow epsilon=0, stdin"),
    *(pytest.param(("elbow", *_STDIN, *flags), code, message, id=f"elbow {id_}, stdin")
      for flags, code, message, id_ in [
          (("--k-min", "0", "--k-max", "3"), 2, "k must be >= 1, got 0", "k_min=0"),
          (("--k-min", "3", "--k-max", "2"), 1, "need k_min <= k_max, got 3..2",
           "k_min>k_max"),
          (("--k-max", "3", "--seed", "-1"), 1,
           "seed must be an integer in [0, 2**64), got -1", "seed=-1"),
          (("--k-max", "3", "--restarts", "0"), 1, "restarts must be >= 1, got 0",
           "restarts=0")]),
    *(pytest.param(("report", *_PARSED, "--model", f"{key}.json"), 1,
                   f"malformed model document: {message}", id=f"model {key}")
      for key, message in [
          ("init", "unknown init strategy 'kmeanspp'"),
          ("max_epochs", "max_epochs must be >= 1, got 0"),
          ("restarts", "restarts must be >= 1, got 0"),
          ("seed", "seed must be an integer in [0, 2**64), got -1")]),
    # mode<i>-<v>.json is a model of the input whose mode i holds v.
    *(pytest.param(("report", *_PARSED, "--model", f"mode{i}-{v}.json"), 1,
                   f"model mode {i} holds {v}, outside the schema's range [1, 5]",
                   id=f"model mode {i} holds {v}")
      for i, v in [(0, 99), (1, 0), (0, 6)]),
])
def test_every_refusal_prints_one_error_line_and_no_output(
        capsys, tmp_path, monkeypatch, argv, code, message):
    # <key>.json is a model of the input whose config holds a bad <key>.
    (tmp_path / "list.json").write_text("[]\n")
    (tmp_path / "deep.json").write_text("[" * 200_000)
    (tmp_path / "likert300.json").write_text(json.dumps(
        {**survey.schema_to_dict(load_schema("scenario3")), "likert_max": 300}))
    lines = APPLICANT_CSV.read_text().splitlines(keepends=True)
    wide = "x" * (csv.field_size_limit() + 1)
    (tmp_path / "wide-header.csv").write_text("".join([lines[0].rstrip() + f",{wide}\n",
                                                       *lines[1:]]))
    (tmp_path / "wide-row.csv").write_text("".join([*lines[:2], wide + lines[2], *lines[3:]]))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", _UnreadStdin())
    assert run(capsys, "fit", *_PARSED, "--k", "2", "-o", "model.json")[0] == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    for key, value in (("init", "kmeanspp"), ("max_epochs", 0), ("restarts", 0), ("seed", -1)):
        bad = {**doc, "config": {**doc["config"], key: value}}
        (tmp_path / f"{key}.json").write_text(json.dumps(bad))
    for i, v in [(0, 99), (1, 0), (0, 6)]:
        modes = [list(mode) for mode in doc["modes"]]
        modes[i][-1] = v
        (tmp_path / f"mode{i}-{v}.json").write_text(json.dumps({**doc, "modes": modes}))
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


class TestArgumentHandling:
    def test_no_subcommand(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "cluster")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "fit", "-i", FIXTURE, "--schema", "scenario3")
        assert code == 1
        assert "--k" in err

    @pytest.mark.parametrize("delimiter", ["", ";;", "\n", "\r"])
    @pytest.mark.parametrize("argv", [
        ("score", "-i", FIXTURE, "--schema", "scenario3"),
        ("fit", "-i", FIXTURE, "--schema", "scenario3", "--k", "2"),
        ("elbow", "-i", FIXTURE, "--schema", "scenario3", "--k-max", "2"),
        ("report", "-i", FIXTURE, "--schema", "scenario3", "--k", "2"),
        ("gen", "--schema", "scenario3", "--n", "5"),
    ], ids=lambda argv: argv[0])
    def test_delimiter_must_be_one_character(self, capsys, argv, delimiter):
        code, out, err = run(capsys, *argv, "--delimiter", delimiter)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--delimiter" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["fit", "--help"]) == 0
        capsys.readouterr()
