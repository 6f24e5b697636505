"""Command line interface.

Subcommands cover the full pipeline: gen (synthetic responses), score
(per-respondent profiles), fit (persist a clustering), elbow (k selection),
report (cluster-share trait percentages), fuse (combine two reports), and
schema (inspect presets). Exit codes: 0 success, 1 input or validation
error or an output file that cannot be written, 2 infeasible clustering
configuration. Error paths write a one-line diagnostic to stderr and
nothing to the primary output.
"""

import argparse
import csv
import io
import sys
from pathlib import Path

from . import documents
from .errors import InfeasibleConfigError
from .kmodes import (
    INIT_STRATEGIES, ClusterModel, FitConfig, check_selection, elbow_scan, fit, select_k,
)
from .report import (
    emit_report,
    fuse_profiles,
    label_clusters,
    mean_percentages,
    parse_report,
    personality_percentages,
)
from .survey import (
    PRESETS,
    check_delimiter,
    dump_schema,
    generate_synthetic,
    load_schema,
    parse_responses,
    score_profiles,
)

_MISSING = {"drop": "drop_row", "impute": "impute_mode"}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _delimiter(text: str) -> str:
    try:
        return check_delimiter(text)
    except ValueError as exc:  # argparse names the flag itself
        raise argparse.ArgumentTypeError(str(exc).removeprefix("delimiter ")) from None


def _add_io(p):
    p.add_argument("--input", "-i", default="-", help="input file, or - for stdin")
    p.add_argument("--output", "-o", default="-", help="output file, or - for stdout")


def _add_parse_flags(p):
    p.add_argument("--schema", required=True, help="schema preset name or JSON file path")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (default ,)")
    p.add_argument("--missing", choices=("drop", "impute"), default="drop",
                   help="drop rows with missing answers or impute the column mode")


_FIT_FLAGS = ("seed", "restarts", "init")


def _add_fit_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--init", choices=INIT_STRATEGIES, default="random_rows")


def build_parser() -> _Parser:
    parser = _Parser(prog="traitclust",
                     description="k-modes clustering and trait reports over survey data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="cluster responses and persist the model as JSON")
    _add_io(p)
    _add_parse_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_fit_flags(p)

    p = sub.add_parser("elbow", help="scan a k range and report the selected k")
    _add_io(p)
    _add_parse_flags(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="relative-improvement threshold for k selection")
    _add_fit_flags(p)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("score", help="per-respondent raw and percentage trait profiles")
    _add_io(p)
    _add_parse_flags(p)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("report", help="population trait percentages from a clustering")
    _add_io(p)
    _add_parse_flags(p)
    p.add_argument("--k", type=int, help="number of clusters")
    _add_fit_flags(p)
    # A fit flag left out stays None, so report can refuse the ones it would
    # ignore; a fit falls back on FitConfig's defaults, which are the above.
    p.set_defaults(**dict.fromkeys(_FIT_FLAGS))
    p.add_argument("--format", choices=("json", "text", "piedata"), default="json")
    p.add_argument("--aggregate", choices=("share", "mean"), default="share",
                   help="share: dominant-cluster population shares; mean: mean profile")
    p.add_argument("--model", help="reuse a persisted fit instead of clustering again")

    p = sub.add_parser("fuse", help="convex combination of two percent reports")
    p.add_argument("a", help="first report JSON file")
    p.add_argument("b", help="second report JSON file")
    p.add_argument("--w", type=float, default=0.5, help="weight on the first report")
    p.add_argument("--format", choices=("json", "text", "piedata"), default="json")
    p.add_argument("--output", "-o", default="-")

    p = sub.add_parser("gen", help="generate synthetic responses")
    p.add_argument("--schema", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mixture", default="uniform",
                   help="'uniform' or comma-separated weights per schema dimension")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--output", "-o", default="-")

    p = sub.add_parser("schema", help="print a schema document or list presets")
    p.add_argument("name", nargs="?", help="preset name or JSON file path")
    p.add_argument("--list", action="store_true", help="list preset names")

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _parse_input(args):
    """The schema of ``--schema`` and the parse of the input under it."""
    schema = load_schema(args.schema)
    return schema, parse_responses(
        _read_input(args.input),
        schema,
        delimiter=args.delimiter,
        missing_policy=_MISSING[args.missing],
    )


def _load_model(path: str, dataset, schema_name=None) -> ClusterModel:
    """``documents.load_model`` on the file at ``path`` (``-`` for stdin),
    checked against ``dataset``."""
    return documents.load_model(_read_input(path), dataset.row_ids, len(dataset.attrs),
                                schema_name)


def _cmd_fit(args) -> str:
    config = FitConfig(k=args.k, init=args.init, seed=args.seed, restarts=args.restarts)
    schema, result = _parse_input(args)
    model = fit(result.dataset, config)
    return documents.dumps(documents.model_to_dict(model, result.dataset, schema.name))


def _cmd_elbow(args) -> str:
    if 1 <= args.k_min <= args.k_max:  # otherwise elbow_scan or FitConfig refuses
        check_selection(args.k_max - args.k_min + 1, args.epsilon)
    _, result = _parse_input(args)
    curve = elbow_scan(result.dataset, args.k_min, args.k_max,
                       seed=args.seed, restarts=args.restarts, init=args.init)
    chosen = select_k(curve, args.epsilon)
    if args.format == "json":
        return documents.dumps({
            "kind": "elbow",
            "curve": [[k, wcd] for k, wcd in curve],
            "epsilon": args.epsilon,
            "selected_k": chosen,
        })
    lines = ["k\twcd"]
    lines += [f"{k}\t{wcd:.3f}" for k, wcd in curve]
    lines.append(f"selected k = {chosen}")
    return "\n".join(lines) + "\n"


def _cmd_score(args) -> str:
    schema, result = _parse_input(args)
    raw, percent = score_profiles(result.table, schema)
    dims = schema.dimensions
    raw_rows = zip(*(raw[d] for d in dims))
    percent_rows = zip(*(percent[d] for d in dims))
    if args.format == "json":
        return documents.dumps({
            "kind": "profiles",
            "schema": schema.name,
            "dimensions": list(dims),
            "profiles": [
                {"id": str(rid), "raw": dict(zip(dims, r)), "percent": dict(zip(dims, p))}
                for rid, r, p in zip(result.table.ids, raw_rows, percent_rows)
            ],
        })
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=args.delimiter, lineterminator="\n")
    writer.writerow(["id"] + [f"raw:{d}" for d in dims] + [f"pct:{d}" for d in dims])
    for rid, r, p in zip(result.table.ids, raw_rows, percent_rows):
        writer.writerow([rid, *r, *(format(v, ".3f") for v in p)])
    return buf.getvalue()


def _cmd_report(args) -> str:
    if args.aggregate == "mean" and (args.model is not None or args.k is not None):
        raise ValueError("--model and --k do not apply to --aggregate mean")
    if args.model is not None and args.k is not None:
        raise ValueError("--k does not apply to --model, whose fit fixes k")
    given = {name: getattr(args, name) for name in _FIT_FLAGS
             if getattr(args, name) is not None}
    if given and (args.model is not None or args.aggregate == "mean"):
        flags = ", ".join(f"--{name}" for name in given)
        where = "--aggregate mean" if args.aggregate == "mean" else "--model"
        raise ValueError(f"{flags} {'does' if len(given) == 1 else 'do'} not apply to {where}")
    if args.input == args.model == "-":
        raise ValueError("--input and --model cannot both read stdin")
    if args.aggregate == "share" and args.model is None:
        if args.k is None:
            raise ValueError("--k is required unless --model or --aggregate mean is given")
        config = FitConfig(k=args.k, **given)
    schema, result = _parse_input(args)
    if args.model is not None:
        # Before scoring: the decoded document is freed before the percent
        # columns exist, and a model that does not match is refused unscored.
        model = documents.load_model(_read_input(args.model), result.table.ids,
                                     len(schema.columns), schema.name,
                                     (schema.likert_min, schema.likert_max))
    _, percent = score_profiles(result.table, schema)
    if args.aggregate == "mean":
        rep = mean_percentages(percent, schema, meta={"n": result.table.n})
    else:
        if args.model is None:
            model = fit(result.dataset, config)
        labeling = label_clusters(model, percent, schema)
        rep = personality_percentages(labeling)
    return emit_report(rep, args.format)


def _cmd_fuse(args) -> str:
    if args.a == args.b == "-":
        raise ValueError("reports a and b cannot both read stdin")
    a = parse_report(_read_input(args.a))
    b = parse_report(_read_input(args.b))
    return emit_report(fuse_profiles(a, b, w=args.w), args.format)


def _cmd_gen(args) -> str:
    schema = load_schema(args.schema)
    if args.mixture == "uniform":
        weights = None
    else:
        try:
            weights = [float(w) for w in args.mixture.split(",")]
        except ValueError:
            raise ValueError(
                f"--mixture must be 'uniform' or comma-separated numbers, got {args.mixture!r}"
            ) from None
    table = generate_synthetic(args.n, schema, weights, seed=args.seed, noise=args.noise)
    return table.to_csv(args.delimiter)


def _cmd_schema(args) -> str:
    if args.list:
        return "\n".join(PRESETS) + "\n"
    if not args.name:
        raise ValueError("give a schema preset name or file path, or --list")
    return dump_schema(load_schema(args.name))


_COMMANDS = {
    "fit": _cmd_fit,
    "elbow": _cmd_elbow,
    "score": _cmd_score,
    "report": _cmd_report,
    "fuse": _cmd_fuse,
    "gen": _cmd_gen,
    "schema": _cmd_schema,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = _COMMANDS[args.command](args)
        target = getattr(args, "output", "-")
        if target == "-":
            sys.stdout.write(out)
        else:
            Path(target).write_text(out, encoding="utf-8")
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError) as exc:  # _UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InfeasibleConfigError) else 1
    return 0
