"""Dissimilarity measures between data records and cluster prototypes.

Three interchangeable policies are supported:

* ``simple``    -- simple matching (Hamming) over categorical attributes,
* ``weighted``  -- frequency-weighted matching where each category carries a
                   per-cluster confidence weight,
* ``mixed``     -- Euclidean distance over numeric attributes plus a
                   gamma-scaled simple-matching term over categorical ones.

All measures are symmetric in the value vectors, invariant under bijective
recoding of category codes, and deterministic.
"""

import math
from dataclasses import dataclass, field
from statistics import pstdev

from .errors import AlignmentError, PolicyError

CATEGORICAL = "categorical"
NUMERIC = "numeric"

SIMPLE = "simple"
WEIGHTED = "weighted"
MIXED = "mixed"

POLICY_MODES = (SIMPLE, WEIGHTED, MIXED)
GAMMA_MODES = ("auto", "fixed")

DEFAULT_WEIGHT = 0.5


@dataclass(frozen=True)
class AttributeSpec:
    """Column metadata: position, kind, and (for categorical) the code list.

    ``categories`` holds the attribute's category codes in first-appearance
    order; codes are small non-negative integers, distinct within the list.
    """

    index: int
    kind: str
    name: str = ""
    categories: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"attribute {self.name or self.index}: duplicate category codes")
        for code in self.categories:
            if not isinstance(code, int) or isinstance(code, bool) or code < 0:
                raise ValueError(
                    f"attribute {self.name or self.index}: category codes must be "
                    f"non-negative integers, got {code!r}"
                )


@dataclass(frozen=True)
class Record:
    """One observation: a value per attribute plus an opaque row identifier."""

    values: tuple
    row_id: object = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Prototype:
    """A cluster representative: category codes on categorical slots, means
    on numeric slots."""

    values: tuple
    cluster_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class DissimilarityPolicy:
    """Which measure to use and how gamma is obtained for the mixed measure.

    gamma fields are only consulted when ``mode == "mixed"``.
    """

    mode: str = SIMPLE
    gamma_mode: str = "auto"
    gamma_value: float = 1.0

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise PolicyError(f"unknown policy mode {self.mode!r}")
        if self.gamma_mode not in GAMMA_MODES:
            raise PolicyError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.gamma_mode == "fixed" and self.gamma_value < 0:
            raise PolicyError(f"gamma must be >= 0, got {self.gamma_value}")


@dataclass
class CategoryWeightTable:
    """Per-(attribute, category, cluster) confidence weights in [0, 1].

    Lookups fall back to ``default_weight`` for combinations the table does
    not cover (e.g. a category never observed at fit time).
    """

    entries: dict = field(default_factory=dict)
    default_weight: float = DEFAULT_WEIGHT

    def __post_init__(self):
        if not 0.0 <= self.default_weight <= 1.0:
            raise ValueError(f"default_weight must be in [0, 1], got {self.default_weight}")
        for key, w in self.entries.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight for {key} out of [0, 1]: {w}")

    def weight(self, attr_index: int, code: int, cluster: int) -> float:
        return self.entries.get((attr_index, code, cluster), self.default_weight)


def _vector(x):
    if isinstance(x, (Record, Prototype)):
        return x.values
    return tuple(x)


def check_inputs(mode, attrs, vectors, gammas=()):
    """Raise unless the measure of policy ``mode`` is defined on these
    inputs. Every vector must hold one value per attribute (else
    AlignmentError). Simple and weighted matching need all-categorical
    attributes, and gammas must be non-negative (else PolicyError)."""
    m = len(attrs)
    for v in vectors:
        if len(v) != m:
            raise AlignmentError(f"value length {len(v)} does not match {m} attributes")
    if mode != MIXED and any(spec.kind != CATEGORICAL for spec in attrs):
        raise PolicyError(f"{mode} matching is defined for categorical attributes only")
    for g in gammas:
        if g < 0:
            raise PolicyError(f"gamma must be >= 0, got {g}")


def measure(policy, attrs, weights=None, gammas=None):
    """The distance ``d(vals, mode, l)`` from a value vector to the mode of
    cluster ``l`` under ``policy``.

    This is the one implementation of each measure; fit, nearest_mode,
    within_cluster_difference and the functions below all call it. It
    checks nothing, so callers run check_inputs once per call.

    weighted without a table measures plain matching (fit's allocation
    pass has no assignment to derive one from). mixed without per-cluster
    gammas uses the fixed gamma, or 1 under auto, for every cluster.
    """
    cat = [j for j, spec in enumerate(attrs) if spec.kind == CATEGORICAL]
    if policy.mode == MIXED:
        num = [j for j, spec in enumerate(attrs) if spec.kind == NUMERIC]
        gamma = policy.gamma_value if policy.gamma_mode == "fixed" else 1.0

        def d(vals, mode, l):
            sq = 0.0
            for j in num:
                sq += (vals[j] - mode[j]) ** 2
            t = 0
            for j in cat:
                if vals[j] != mode[j]:
                    t += 1
            return math.sqrt(sq) + (gamma if gammas is None else gammas[l]) * t

    elif policy.mode == WEIGHTED and weights is not None:
        weight = weights.weight

        def d(vals, mode, l):
            t = 0.0
            for j in cat:
                w = weight(j, vals[j], l)
                t += (1.0 - w) if vals[j] == mode[j] else w
            return t

    else:

        def d(vals, mode, l):
            t = 0
            for j in cat:
                if vals[j] != mode[j]:
                    t += 1
            return t

    return d


def policy_statistics(policy, dataset, assignments, k) -> dict:
    """The per-cluster statistics ``policy`` derives from an assignment, as
    keyword arguments for measure(): the weight table under weighted, the
    per-cluster gammas under mixed with auto gamma (a degenerate 0 becomes
    1), and none otherwise."""
    if policy.mode == WEIGHTED:
        return {"weights": compute_category_weights(dataset, assignments, k)}
    if policy.mode == MIXED and policy.gamma_mode == "auto":
        members = [[] for _ in range(k)]
        for row, l in zip(dataset.rows, assignments):
            members[l].append(row)
        return {"gammas": [compute_gamma(rows, dataset.attrs) or 1.0 for rows in members]}
    return {}


_SIMPLE_POLICY = DissimilarityPolicy(SIMPLE)
_WEIGHTED_POLICY = DissimilarityPolicy(WEIGHTED)
_MIXED_POLICY = DissimilarityPolicy(MIXED)


def simple_matching(a, b, attrs) -> int:
    """Number of categorical positions where the two vectors disagree."""
    va, vb = _vector(a), _vector(b)
    check_inputs(SIMPLE, attrs, (va, vb))
    return measure(_SIMPLE_POLICY, attrs)(va, vb, 0)


def euclidean_distance(a, b, attrs) -> float:
    """sqrt of the summed squared differences over numeric attributes."""
    va, vb = _vector(a), _vector(b)
    check_inputs(MIXED, attrs, (va, vb))
    if all(spec.kind != NUMERIC for spec in attrs):
        raise PolicyError("euclidean distance needs at least one numeric attribute")
    return measure(_MIXED_POLICY, attrs, gammas=(0.0,))(va, vb, 0)


def weighted_matching(a, z, attrs, weights: CategoryWeightTable) -> float:
    """Frequency-weighted matching against a cluster prototype.

    A match on attribute j costs ``1 - w`` and a mismatch costs ``w``, where
    ``w`` is the weight of the *record's* category in the prototype's cluster.
    Confidently owned categories (w near 1) therefore make matches cheap and
    mismatches expensive.
    """
    if not isinstance(z, Prototype):
        raise PolicyError("weighted matching needs a Prototype (the cluster identity drives weight lookup)")
    va = _vector(a)
    check_inputs(WEIGHTED, attrs, (va, z.values))
    return measure(_WEIGHTED_POLICY, attrs, weights=weights)(va, z.values, z.cluster_index)


def compute_category_weights(dataset, assignments, k: int) -> CategoryWeightTable:
    """Derive the weight table from a dataset and a cluster assignment.

    The weight of category ``a`` on attribute ``j`` in cluster ``l`` is the
    within-cluster relative frequency of ``a`` divided by its dataset-wide
    relative frequency, clamped to [0, 1]. Categories absent from a cluster
    get 0; an empty cluster takes ``default_weight`` on all its entries.
    """
    n = dataset.n
    if len(assignments) != n:
        raise AlignmentError(f"{len(assignments)} assignments for {n} rows")
    sizes = [0] * k
    for l in assignments:
        if not 0 <= l < k:
            raise ValueError(f"assignment {l} out of range for k={k}")
        sizes[l] += 1

    cat_attrs = [spec for spec in dataset.attrs if spec.kind == CATEGORICAL]
    dataset_counts = {spec.index: {} for spec in cat_attrs}
    cluster_counts = {spec.index: {} for spec in cat_attrs}
    for row, l in zip(dataset.rows, assignments):
        for spec in cat_attrs:
            code = row.values[spec.index]
            dataset_counts[spec.index][code] = dataset_counts[spec.index].get(code, 0) + 1
            key = (code, l)
            cluster_counts[spec.index][key] = cluster_counts[spec.index].get(key, 0) + 1

    entries = {}
    for spec in cat_attrs:
        j = spec.index
        for code in spec.categories:
            dcount = dataset_counts[j].get(code, 0)
            for l in range(k):
                if sizes[l] == 0:
                    w = DEFAULT_WEIGHT
                else:
                    ccount = cluster_counts[j].get((code, l), 0)
                    if ccount == 0:
                        w = 0.0
                    else:
                        w = min(1.0, (ccount / sizes[l]) / (dcount / n))
                entries[(j, code, l)] = w
    return CategoryWeightTable(entries)


def mixed_dissimilarity(a, z, attrs, gamma: float) -> float:
    """Euclidean part over numeric slots plus gamma times the categorical
    mismatch count. gamma = 0 ignores categorical attributes entirely."""
    va, vz = _vector(a), _vector(z)
    check_inputs(MIXED, attrs, (va, vz), (gamma,))
    return measure(_MIXED_POLICY, attrs, gammas=(gamma,))(va, vz, 0)


def compute_gamma(cluster_rows, attrs) -> float:
    """Mean, over numeric attributes, of the population standard deviation
    of the attribute's values within the cluster.

    A single-row or constant cluster yields 0.0; callers substitute 1 when
    using the result as a mixing coefficient.
    """
    numeric = [j for j, spec in enumerate(attrs) if spec.kind == NUMERIC]
    if not numeric:
        raise PolicyError("gamma is undefined without numeric attributes")
    rows = list(cluster_rows)
    if not rows:
        return 0.0
    stds = [pstdev([_vector(r)[j] for r in rows]) for j in numeric]
    return math.fsum(stds) / len(stds)
