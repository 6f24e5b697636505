"""Output checks that do not rely on the code under test.

Scoring, imputation, cluster majorities, the mismatch cost and the share
arithmetic are re-implemented here from the schema document and the rows
the benchmark generated, so a defect in ``traitclust`` cannot hide itself by
also breaking the check.
"""

import hashlib
import json
import math
from array import array
from collections import Counter

SUM_TOLERANCE = 1e-9
ROUND3_TOLERANCE = 0.0005 + 1e-9


class Oracle:
    """Expected results for one fixed input table."""

    def __init__(self, schema_doc, rows):
        self.dims = list(schema_doc["dimensions"])
        index = {d: i for i, d in enumerate(self.dims)}
        self.items = [(index[it["dimension"]], it.get("keying", "positive") == "positive")
                      for it in schema_doc["items"]]
        self.lo = schema_doc.get("likert_min", 1)
        self.hi = schema_doc.get("likert_max", 5)
        self.rows = rows
        self._profiles = None
        self._verified = {}

    def profiles(self):
        """Per-row trait percentages, in row order."""
        if self._profiles is None:
            lo_hi = self.lo + self.hi
            out = []
            for row in self.rows:
                raw = [0] * len(self.dims)
                for v, (d, positive) in zip(row, self.items):
                    raw[d] += v if positive else lo_hi - v
                total = math.fsum(raw)
                out.append([100.0 * r / total for r in raw])
            self._profiles = out
        return self._profiles

    def shares(self, assignments, k):
        """Population share per dimension of the clusters it dominates."""
        d_count = len(self.dims)
        sums = [[0.0] * d_count for _ in range(k)]
        sizes = [0] * k
        for pct, l in zip(self.profiles(), assignments):
            sizes[l] += 1
            acc = sums[l]
            for d in range(d_count):
                acc[d] += pct[d]
        totals = [0] * d_count
        for l in range(k):
            if not sizes[l]:
                return None
            mean = [s / sizes[l] for s in sums[l]]
            best = 0
            for d in range(d_count):
                if mean[d] > mean[best]:
                    best = d
            totals[best] += sizes[l]
        n = len(assignments)
        return {self.dims[d]: 100.0 * totals[d] / n for d in range(d_count)}

    def check_model(self, modes, assignments, cost):
        """Problems with a clustering: modes must be per-attribute member
        majorities (ties to the lowest code) and cost the mismatch total.
        Verdicts are cached by digest, since repeated jobs on one input
        return identical models."""
        key = model_digests(modes, assignments, cost)
        if key not in self._verified:
            self._verified[key] = self._check_model(modes, assignments, cost)
        return list(self._verified[key])

    def _check_model(self, modes, assignments, cost):
        k = len(modes)
        if len(assignments) != len(self.rows):
            return [f"{len(assignments)} assignments for {len(self.rows)} rows"]
        if any(not 0 <= l < k for l in assignments):
            return ["assignment out of range"]
        members = [[] for _ in range(k)]
        for row, l in zip(self.rows, assignments):
            members[l].append(row)
        problems = []
        mismatches = 0
        for l, rows in enumerate(members):
            if not rows:
                problems.append(f"cluster {l} is empty")
                continue
            mode = modes[l]
            for j, column in enumerate(zip(*rows)):
                counts = Counter(column)
                top = max(counts.values())
                majority = min(c for c, cnt in counts.items() if cnt == top)
                if mode[j] != majority:
                    problems.append(f"cluster {l} attribute {j}: mode {mode[j]}, majority {majority}")
                mismatches += len(column) - counts.get(mode[j], 0)
        if mismatches != cost:
            problems.append(f"cost {cost!r} != recomputed mismatches {mismatches}")
        return problems


def impute_column_modes(rows, missing):
    """Replace each missing cell with its column's most frequent observed
    value (lowest code on ties)."""
    columns = [list(c) for c in zip(*rows)]
    for col in columns:
        counts = Counter(v for v in col if v != missing)
        top = max(counts.values())
        fill = min(v for v, cnt in counts.items() if cnt == top)
        for i, v in enumerate(col):
            if v == missing:
                col[i] = fill
    return [tuple(r) for r in zip(*columns)]


def compare_shares(got, expected, tolerance=SUM_TOLERANCE):
    if expected is None:
        return ["model leaves a cluster empty"]
    if set(got) != set(expected):
        return [f"report dimensions {sorted(got)} != {sorted(expected)}"]
    problems = [f"{d}: reported {got[d]!r}, expected {expected[d]!r}"
                for d in expected if abs(got[d] - expected[d]) > tolerance]
    total = math.fsum(got.values())
    if abs(total - 100.0) > max(tolerance, SUM_TOLERANCE) * len(got):
        problems.append(f"shares sum to {total!r}")
    return problems


def parse_text_report(text):
    """Dimension -> value from the text layout (title, rows, total)."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 3 or not lines[0].startswith("trait percentages"):
        raise ValueError("not a text percent report")
    values = {}
    for line in lines[1:]:
        name, value = line.rsplit(None, 1)
        values[name.strip()] = float(value)
    return values


def parse_piedata(text):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "dimension,percentage":
        raise ValueError("not a piedata report")
    return {d: float(v) for d, v in (line.split(",") for line in lines[1:])}


def check_rounded(values, expected):
    """Problems with a three-decimal rendering of the expected shares; a
    ``total`` row, when present, must read 100."""
    problems = []
    total = values.pop("total", None)
    if total is not None and abs(total - 100.0) > ROUND3_TOLERANCE:
        problems.append(f"total row reads {total}")
    problems += compare_shares(values, expected, ROUND3_TOLERANCE)
    return problems


def model_digests(modes, assignments, cost):
    return (
        sha256_text(json.dumps([list(m) for m in modes])),
        hashlib.sha256(array("q", assignments).tobytes()).hexdigest(),
        repr(float(cost)),
    )


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
