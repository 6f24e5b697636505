"""Cluster labeling, population trait percentages, fusion, and emission.

A fitted clustering plus per-respondent trait profiles turn into a
ClusterLabeling (each cluster tagged with its dominant dimension) and then a
PercentReport (share of the population per dominant dimension). Reports from
different sources can be fused as a convex combination and emitted as JSON,
a plain-text table, or a dimension,percentage CSV for plotting.
"""

import csv
import io
import math
from dataclasses import dataclass, field

from . import documents
from .errors import AlignmentError, ReportError

PROVENANCE_QUESTIONNAIRE = "questionnaire"
PROVENANCE_EXTERNAL = "external"
PROVENANCE_FUSED = "fused"

PROVENANCES = (PROVENANCE_QUESTIONNAIRE, PROVENANCE_EXTERNAL, PROVENANCE_FUSED)

FORMATS = ("json", "text", "piedata")

SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClusterSummary:
    index: int
    size: int
    dominant: str
    mean_percent: dict


@dataclass(frozen=True)
class ClusterLabeling:
    """Per-cluster dominant dimensions over a fitted model's population."""

    dimensions: tuple[str, ...]
    clusters: tuple[ClusterSummary, ...]
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "clusters", tuple(self.clusters))


@dataclass(frozen=True)
class PercentReport:
    """Percentages per dimension, summing to 100 (within 1e-9)."""

    dimensions: tuple[str, ...]
    percent: dict
    provenance: str = PROVENANCE_QUESTIONNAIRE
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if self.provenance not in PROVENANCES:
            raise ReportError(f"unknown provenance {self.provenance!r}")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise ReportError(f"duplicate dimensions in {list(self.dimensions)}")
        if set(self.percent) != set(self.dimensions):
            raise ReportError("percent keys do not match the dimension list")
        for d, v in self.percent.items():
            if not -SUM_TOLERANCE <= v <= 100.0 + SUM_TOLERANCE:
                raise ReportError(f"percentage for {d!r} out of [0, 100]: {v}")
        total = math.fsum(self.percent.values())
        if abs(total - 100.0) > SUM_TOLERANCE:
            raise ReportError(f"percentages sum to {total!r}, expected 100")


def label_clusters(model, profiles, schema) -> ClusterLabeling:
    """Tag each cluster with the dimension whose mean member percentage is
    highest (earliest schema dimension on ties). ``profiles`` is one
    TraitProfile per assigned row, or the percent columns that
    ``score_profiles`` returns."""
    percent = _percent_columns(profiles, schema.dimensions)
    n = len(model.assignments)
    dims = schema.dimensions
    rows = len(percent[dims[0]])
    if rows != n:
        raise AlignmentError(f"{rows} profiles for {n} assigned rows")
    k = len(model.modes)
    sizes = list(map(model.assignments.count, range(k)))
    outside = n - sum(sizes)
    if outside:
        raise ReportError(f"{outside} of {n} assignments lie outside 0..{k - 1}")
    sums = {}
    for d in dims:
        # += from 0.0 in row order; sum() rounds differently from Python
        # 3.12 on.
        acc = [0.0] * k
        for l, v in zip(model.assignments, percent[d]):
            acc[l] += v
        sums[d] = acc
    summaries = []
    for l, size in enumerate(sizes):
        if size == 0:
            raise ReportError(f"cluster {l} has no members; cannot label")
        mean = {d: sums[d][l] / size for d in dims}
        dominant = max(dims, key=mean.__getitem__)
        summaries.append(
            ClusterSummary(index=l, size=size, dominant=dominant, mean_percent=mean)
        )
    meta = {
        "k": k,
        "policy": model.config.policy,
        "schema": schema.name,
        "seed": model.config.seed,
    }
    return ClusterLabeling(dimensions=dims, clusters=tuple(summaries), n=n, meta=meta)


def _percent_columns(profiles, dims) -> dict:
    """Percent columns, dimension -> one value per row, from TraitProfiles
    or passed through when ``profiles`` already is such a dict."""
    if isinstance(profiles, dict):
        return profiles
    profiles = list(profiles)
    return {d: [p.percent[d] for p in profiles] for d in dims}


def personality_percentages(labeling: ClusterLabeling) -> PercentReport:
    """Population share per dimension: the sizes of all clusters labeled
    with that dimension, as a percentage of all respondents."""
    totals = {d: 0 for d in labeling.dimensions}
    for summary in labeling.clusters:
        totals[summary.dominant] += summary.size
    percent = {d: 100.0 * totals[d] / labeling.n for d in labeling.dimensions}
    return PercentReport(
        dimensions=labeling.dimensions,
        percent=percent,
        provenance=PROVENANCE_QUESTIONNAIRE,
        meta=dict(labeling.meta),
    )


def mean_percentages(profiles, schema, meta=None) -> PercentReport:
    """Alternative aggregate: the arithmetic mean of individual percentage
    profiles (no clustering involved). ``profiles`` is a TraitProfile list
    or the percent columns that ``score_profiles`` returns."""
    dims = schema.dimensions
    percent = _percent_columns(profiles, dims)
    n = len(percent[dims[0]])
    if not n:
        raise ReportError("cannot aggregate an empty profile list")
    base = {"aggregate": "mean", "schema": schema.name}
    if meta:
        base.update(meta)
    return PercentReport(
        dimensions=dims,
        percent={d: math.fsum(percent[d]) / n for d in dims},
        provenance=PROVENANCE_QUESTIONNAIRE,
        meta=base,
    )


def fuse_profiles(a: PercentReport, b: PercentReport, w: float = 0.5) -> PercentReport:
    """Convex combination w*a + (1-w)*b of two reports over the same
    dimension set."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {w}")
    if set(a.dimensions) != set(b.dimensions):
        raise ReportError("cannot fuse reports over different dimension sets")
    percent = {d: w * a.percent[d] + (1.0 - w) * b.percent[d] for d in a.dimensions}
    return PercentReport(
        dimensions=a.dimensions,
        percent=percent,
        provenance=PROVENANCE_FUSED,
        meta={"fusion_weight": w, "sources": [a.provenance, b.provenance]},
    )


def _round3(value: float) -> str:
    return format(value, ".3f")


def _report_doc(report: PercentReport) -> dict:
    return {
        "kind": "percent_report",
        "dimensions": list(report.dimensions),
        "percent": {d: report.percent[d] for d in report.dimensions},
        "provenance": report.provenance,
        "metadata": dict(report.meta),
    }


def emit_report(obj, fmt: str = "json") -> str:
    """Serialize a PercentReport; any other object raises TypeError.

    json keeps full float precision (emit -> parse is lossless); text and
    piedata render numbers with three decimals, round-half-even. piedata is
    a two-column dimension,percentage CSV.
    """
    if fmt not in FORMATS:
        raise ReportError(f"unknown report format {fmt!r}")
    if not isinstance(obj, PercentReport):
        raise TypeError(f"cannot emit {type(obj).__name__}")
    if fmt == "json":
        return documents.dumps(_report_doc(obj))
    if fmt == "piedata":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["dimension", "percentage"])
        writer.writerows((d, _round3(obj.percent[d])) for d in obj.dimensions)
        return buf.getvalue()
    width = max(len(d) for d in obj.dimensions)
    lines = [f"trait percentages ({obj.provenance})"]
    for d in obj.dimensions:
        lines.append(f"{d:<{width}}  {_round3(obj.percent[d]):>8}")
    lines.append(f"{'total':<{width}}  {_round3(math.fsum(obj.percent.values())):>8}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> PercentReport:
    """Inverse of emit_report(..., "json") for percent reports; also accepts
    externally produced documents (provenance "external")."""
    doc = documents.loads(text, ReportError, "report", kind="percent_report")
    where = "report document"
    dims = documents.field(doc, "dimensions", list, ReportError, where)
    for d in dims:
        documents.typed(d, str, ReportError, "a dimension")
    percent = documents.field(doc, "percent", dict, ReportError, where)
    meta = documents.field(doc, "metadata", dict, ReportError, where, {})
    percent = {d: documents.typed(v, float, ReportError, f"percentage for {d!r}")
               for d, v in percent.items()}
    return PercentReport(
        dimensions=dims,
        percent=percent,
        provenance=documents.field(doc, "provenance", str, ReportError, where),
        meta=dict(meta),
    )
