"""Command line interface.

Subcommands cover the full pipeline: gen (synthetic responses), score
(per-respondent profiles), fit (persist a clustering), elbow (k selection),
report (cluster-share trait percentages), fuse (combine two reports), and
schema (inspect presets). Exit codes: 0 success, 1 input or validation
error, 2 infeasible clustering configuration. Error paths write a one-line
diagnostic to stderr and nothing to the primary output.
"""

import argparse
import json
import sys
from pathlib import Path

from .dissimilarity import DissimilarityPolicy, Prototype
from .errors import InfeasibleConfigError, PolicyError
from .kmodes import ClusterModel, FitConfig, check_selection, elbow_scan, fit, select_k
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
    dump_schema,
    generate_synthetic,
    load_schema,
    parse_responses,
    score_profile,
)

_MISSING = {"drop": "drop_row", "impute": "impute_mode"}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _delimiter(text: str) -> str:
    # csv takes exactly one character and raises TypeError on anything else.
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be a single character, got {text!r}")
    return text


def _add_io(p):
    p.add_argument("--input", "-i", default="-", help="input file, or - for stdin")
    p.add_argument("--output", "-o", default="-", help="output file, or - for stdout")


def _add_parse_flags(p):
    p.add_argument("--schema", required=True, help="schema preset name or JSON file path")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (default ,)")
    p.add_argument("--missing", choices=("drop", "impute"), default="drop",
                   help="drop rows with missing answers or impute the column mode")


def _add_fit_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--init", choices=("random_rows", "density"), default="random_rows")


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


def _parse_input(args, schema):
    return parse_responses(
        _read_input(args.input),
        schema,
        delimiter=args.delimiter,
        missing_policy=_MISSING[args.missing],
    )


def _model_doc(model: ClusterModel, dataset, schema) -> dict:
    cfg = model.config
    return {
        "kind": "cluster_model",
        "schema": schema.name,
        "n": dataset.n,
        "k": len(model.modes),
        "cost": model.cost,
        "epochs_run": model.epochs_run,
        "converged": model.converged,
        "config": {
            "k": cfg.k,
            "policy": {"mode": cfg.policy.mode},
            "init": cfg.init,
            "seed": cfg.seed,
            "max_epochs": cfg.max_epochs,
            "restarts": cfg.restarts,
        },
        "modes": [list(p.values) for p in model.modes],
        "assignments": {str(row.row_id): int(l)
                        for row, l in zip(dataset.rows, model.assignments)},
    }


def _int(value, what):
    # json gives bool for true/false, and bool is an int subclass.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _load_model(path: str, dataset, schema_name=None) -> ClusterModel:
    """Read a model document written by ``fit`` and check it against the
    dataset, and against ``schema_name`` when one is given. Counts, seeds,
    mode values and assignments must be JSON integers, ``cost`` a JSON
    number and ``converged`` a JSON boolean. ``config.policy.mode`` must be
    ``simple``; other keys under ``config.policy``, which older documents
    hold, are ignored."""
    try:
        doc = json.loads(_read_input(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid model JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "cluster_model":
        raise ValueError('expected a JSON object with kind "cluster_model"')
    try:
        if schema_name is not None and doc["schema"] != schema_name:
            raise ValueError(
                f"model was fitted under schema {doc['schema']!r}, not {schema_name!r}"
            )
        cfg_doc = doc["config"]
        policy = DissimilarityPolicy(mode=cfg_doc["policy"]["mode"])
        config = FitConfig(
            k=_int(cfg_doc["k"], "config.k"),
            policy=policy,
            init=cfg_doc["init"],
            seed=_int(cfg_doc["seed"], "config.seed"),
            max_epochs=_int(cfg_doc["max_epochs"], "config.max_epochs"),
            restarts=_int(cfg_doc["restarts"], "config.restarts"),
        )
        modes = tuple(
            Prototype(values=tuple(_int(v, f"a value of mode {i}") for v in vals),
                      cluster_index=i)
            for i, vals in enumerate(doc["modes"])
        )
        k = _int(doc["k"], "k")
        if not k == config.k == len(modes):
            raise ValueError(f"model k={k}, config k={config.k} and {len(modes)} modes disagree")
        m = len(dataset.attrs)
        for p in modes:
            if len(p.values) != m:
                raise ValueError(
                    f"model mode {p.cluster_index} has {len(p.values)} values, expected {m}"
                )
        amap = doc["assignments"]
        assignments = []
        for row in dataset.rows:
            key = str(row.row_id)
            if key not in amap:
                raise ValueError(f"model has no assignment for row {key!r}")
            l = _int(amap[key], f"the assignment of row {key!r}")
            if not 0 <= l < k:
                raise ValueError(f"model assigns row {key!r} to cluster {l}, outside 0..{k - 1}")
            assignments.append(l)
        converged, cost = doc["converged"], doc["cost"]
        if not isinstance(converged, bool):
            raise TypeError(f"converged must be true or false, got {converged!r}")
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise TypeError(f"cost must be a number, got {cost!r}")
        return ClusterModel(
            modes=modes,
            assignments=tuple(assignments),
            cost=float(cost),
            epochs_run=_int(doc["epochs_run"], "epochs_run"),
            converged=converged,
            config=config,
        )
    except (KeyError, TypeError, OverflowError, InfeasibleConfigError, PolicyError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc


def _cmd_fit(args) -> str:
    schema = load_schema(args.schema)
    result = _parse_input(args, schema)
    config = FitConfig(k=args.k, init=args.init, seed=args.seed, restarts=args.restarts)
    model = fit(result.dataset, config)
    return json.dumps(_model_doc(model, result.dataset, schema), indent=2, sort_keys=True) + "\n"


def _cmd_elbow(args) -> str:
    schema = load_schema(args.schema)
    result = _parse_input(args, schema)
    if 1 <= args.k_min <= args.k_max:  # otherwise elbow_scan names the bad range
        check_selection(args.k_max - args.k_min + 1, args.epsilon)
    curve = elbow_scan(result.dataset, args.k_min, args.k_max,
                       seed=args.seed, restarts=args.restarts, init=args.init)
    chosen = select_k(curve, args.epsilon)
    if args.format == "json":
        doc = {
            "kind": "elbow",
            "curve": [[k, wcd] for k, wcd in curve],
            "epsilon": args.epsilon,
            "selected_k": chosen,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = ["k\twcd"]
    lines += [f"{k}\t{wcd:.3f}" for k, wcd in curve]
    lines.append(f"selected k = {chosen}")
    return "\n".join(lines) + "\n"


def _cmd_score(args) -> str:
    schema = load_schema(args.schema)
    result = _parse_input(args, schema)
    profiles = [score_profile(row, schema) for row in result.table.rows]
    dims = schema.dimensions
    if args.format == "json":
        doc = {
            "kind": "profiles",
            "schema": schema.name,
            "dimensions": list(dims),
            "profiles": [
                {"id": str(rid), "raw": p.raw, "percent": p.percent}
                for rid, p in zip(result.table.ids, profiles)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sep = args.delimiter
    header = ["id"] + [f"raw:{d}" for d in dims] + [f"pct:{d}" for d in dims]
    lines = [sep.join(header)]
    for rid, p in zip(result.table.ids, profiles):
        cells = [str(rid)]
        cells += [str(p.raw[d]) for d in dims]
        cells += [format(p.percent[d], ".3f") for d in dims]
        lines.append(sep.join(cells))
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> str:
    schema = load_schema(args.schema)
    result = _parse_input(args, schema)
    profiles = [score_profile(row, schema) for row in result.table.rows]
    if args.aggregate == "mean":
        rep = mean_percentages(profiles, schema, meta={"n": result.table.n})
    else:
        if args.model:
            model = _load_model(args.model, result.dataset, schema.name)
        else:
            if args.k is None:
                raise ValueError("--k is required unless --model or --aggregate mean is given")
            config = FitConfig(k=args.k, init=args.init, seed=args.seed,
                               restarts=args.restarts)
            model = fit(result.dataset, config)
        labeling = label_clusters(model, profiles, schema)
        rep = personality_percentages(labeling)
    return emit_report(rep, args.format)


def _cmd_fuse(args) -> str:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        out = _COMMANDS[args.command](args)
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    target = getattr(args, "output", "-")
    if target in (None, "-"):
        sys.stdout.write(out)
    else:
        Path(target).write_text(out, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
