"""JSON documents: their one layout, decoding and field-type rule, and the
cluster model document. Schemas are read in ``survey`` and reports in
``report``; each reader raises its own error class, a ValueError subclass.
"""

import json

from .dissimilarity import Prototype
from .kmodes import ClusterModel, FitConfig

_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
          list: "a list", dict: "an object"}


def dumps(doc) -> str:
    """The document layout: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text, error, what, kind=None) -> dict:
    """Decode ``text`` into a JSON object whose ``"kind"`` is ``kind`` when
    one is given; otherwise raise ``error``, naming the document ``what``.
    One leading UTF-8 byte-order mark, which json refuses, is dropped. Too
    deep a nesting, or an integer over Python's digit limit, is invalid."""
    try:
        doc = json.loads(text.removeprefix("\ufeff"))
    except RecursionError:
        raise error(f"invalid {what} JSON: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or too many digits
        raise error(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} document must be a JSON object, got {type(doc).__name__}")
    if kind is not None and doc.get("kind") != kind:
        raise error(f"{what} document must have kind {kind!r}, got {doc.get('kind')!r}")
    return doc


def typed(value, kind, error, what):
    """``value`` if it is a JSON value of ``kind`` (str, int, bool, list, dict,
    or float: any number, returned as a float); else raise ``error``."""
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (kind is not bool and isinstance(value, bool))):
        raise error(f"{what} must be {_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise error(f"{what} is too large for a float") from None
    return value


def field(doc, key, kind, error, where, default=None):
    """``doc[key]`` checked by ``typed``. An absent key gives ``default``,
    or raises ``error`` when there is none."""
    if key not in doc:
        if default is None:
            raise error(f"{where} is missing {key!r}")
        return default
    return typed(doc[key], kind, error, f"{where}: {key!r}")


def model_to_dict(model: ClusterModel, dataset, schema_name: str) -> dict:
    """The ``cluster_model`` document of a fit of ``dataset``."""
    cfg = model.config
    return {
        "kind": "cluster_model",
        "schema": schema_name,
        "n": dataset.n,
        "k": len(model.modes),
        "cost": model.cost,
        "epochs_run": model.epochs_run,
        "converged": model.converged,
        "config": {
            "k": cfg.k,
            "policy": {"mode": cfg.policy},
            "init": cfg.init,
            "seed": cfg.seed,
            "max_epochs": cfg.max_epochs,
            "restarts": cfg.restarts,
        },
        "modes": [list(p.values) for p in model.modes],
        "assignments": {str(rid): int(l)
                        for rid, l in zip(dataset.row_ids, model.assignments)},
    }


def load_model(text, row_ids, m, schema_name=None, value_range=None) -> ClusterModel:
    """Read a model document written by ``fit`` and check it against the
    input it is applied to: ``row_ids``, unique, one per row in input order,
    and ``m`` attributes. The document's ``n`` must be the row count and its
    assignments must cover exactly those ids. When ``schema_name`` is given
    the model must have been fitted under it, and when ``value_range``,
    ``(lo, hi)``, is given, every mode value must lie in ``[lo, hi]``. Keys
    under ``config.policy`` other than ``mode``, which older documents hold,
    are ignored. Every rejection is a ValueError."""
    doc = loads(text, ValueError, "model", kind="cluster_model")
    where = "malformed model document"
    if schema_name is not None:
        schema = field(doc, "schema", str, ValueError, where)
        if schema != schema_name:
            raise ValueError(f"model was fitted under schema {schema!r}, not {schema_name!r}")
    n = field(doc, "n", int, ValueError, where)
    if n != len(row_ids):
        raise ValueError(f"model was fitted on {n} rows, but the input has {len(row_ids)}")
    cfg_doc = field(doc, "config", dict, ValueError, where)
    at = "malformed model config"
    policy = field(cfg_doc, "policy", dict, ValueError, at)
    k = field(cfg_doc, "k", int, ValueError, at)
    mode = field(policy, "mode", str, ValueError, f"{at}.policy")
    if mode != FitConfig.policy:
        raise ValueError(f"{where}: unknown policy mode {mode!r}")
    settings = {key: field(cfg_doc, key, kind, ValueError, at)
                for key, kind in (("init", str), ("seed", int), ("max_epochs", int),
                                  ("restarts", int))}
    try:
        config = FitConfig(k=k, **settings)
    except ValueError as exc:  # an InfeasibleConfigError too: the document is at fault
        raise ValueError(f"{where}: {exc}") from exc
    modes = []
    for i, vals in enumerate(field(doc, "modes", list, ValueError, where)):
        for v in typed(vals, list, ValueError, f"{where}: mode {i}"):
            typed(v, int, ValueError, f"{where}: a value of mode {i}")
        if len(vals) != m:
            raise ValueError(f"model mode {i} has {len(vals)} values, expected {m}")
        if value_range is not None:
            lo, hi = value_range
            for v in vals:
                if not lo <= v <= hi:
                    raise ValueError(f"model mode {i} holds {v}, outside the schema's range "
                                     f"[{lo}, {hi}]")
        modes.append(Prototype(values=tuple(vals)))
    k = field(doc, "k", int, ValueError, where)
    if not k == config.k == len(modes):
        raise ValueError(f"model k={k}, config k={config.k} and {len(modes)} modes disagree")
    amap = field(doc, "assignments", dict, ValueError, where)
    assignments = []
    for rid in row_ids:
        key = str(rid)
        l = amap.get(key)
        # A plain type test per row; the shared rule only names a failure.
        if type(l) is not int or not 0 <= l < k:
            if key not in amap:
                raise ValueError(f"model has no assignment for row {key!r}")
            typed(l, int, ValueError, f"{where}: the assignment of row {key!r}")
            raise ValueError(f"model assigns row {key!r} to cluster {l}, outside 0..{k - 1}")
        assignments.append(l)
    # Every input id has an assignment, so an equal count leaves no other.
    if len(amap) != n:
        raise ValueError(f"model assigns {len(amap)} rows, but the input has {n}")
    return ClusterModel(
        modes=tuple(modes),
        assignments=tuple(assignments),
        cost=field(doc, "cost", float, ValueError, where),
        epochs_run=field(doc, "epochs_run", int, ValueError, where),
        converged=field(doc, "converged", bool, ValueError, where),
        config=config,
    )
