"""Dissimilarity measures between data records and cluster prototypes.

Every attribute is categorical, and two interchangeable policies are
supported:

* ``simple``    -- simple matching (Hamming) over the attributes,
* ``weighted``  -- frequency-weighted matching where each category carries a
                   per-cluster confidence weight.

``simple`` runs on BitEncoder masks (one bit per attribute and code), so a
distance is one AND and one popcount.

All measures are symmetric in the value vectors, invariant under bijective
recoding of category codes, and deterministic.
"""

from collections import Counter
from dataclasses import dataclass, field

from .errors import AlignmentError, PolicyError

CATEGORICAL = "categorical"

SIMPLE = "simple"
WEIGHTED = "weighted"

POLICY_MODES = (SIMPLE, WEIGHTED)

DEFAULT_WEIGHT = 0.5


@dataclass(frozen=True)
class AttributeSpec:
    """Column metadata: position, kind, and the category code list.

    ``kind`` must be ``"categorical"``, the only kind there is. ``categories``
    holds the attribute's category codes in first-appearance order; codes are
    small non-negative integers, distinct within the list.
    """

    index: int
    kind: str
    name: str = ""
    categories: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind != CATEGORICAL:
            raise ValueError(
                f"unknown attribute kind {self.kind!r}; only {CATEGORICAL!r} is supported"
            )
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
    """A cluster representative: one category code per attribute."""

    values: tuple
    cluster_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class DissimilarityPolicy:
    """Which measure to use: ``simple`` or ``weighted``."""

    mode: str = SIMPLE

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise PolicyError(f"unknown policy mode {self.mode!r}")


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


def check_inputs(attrs, vectors):
    """Raise AlignmentError unless every vector holds one value per
    attribute."""
    m = len(attrs)
    for v in vectors:
        if len(v) != m:
            raise AlignmentError(f"value length {len(v)} does not match {m} attributes")


class BitEncoder:
    """Value vectors as Python ints with one bit per (attribute, category
    code): two vectors agree on as many attributes as their AND has set bits.

    A code takes its bit the first time it is encoded on its attribute, so a
    code outside the attribute's categories keeps the meaning it has under
    ``==``: equal codes share a bit and different codes never do. Codes must
    be hashable.
    """

    __slots__ = ("_bits", "_next")

    def __init__(self, m):
        self._bits = [{} for _ in range(m)]
        self._next = 0

    def bit(self, j, code) -> int:
        """The bit of ``code`` on attribute ``j``."""
        bits = self._bits[j]
        b = bits.get(code)
        if b is None:
            b = bits[code] = 1 << self._next
            self._next += 1
        return b

    def encode(self, vals) -> int:
        """The mask of a vector of one code per attribute."""
        try:
            return sum(map(dict.__getitem__, self._bits, vals))
        except KeyError:
            return sum(self.bit(j, v) for j, v in enumerate(vals))


def measure(policy, attrs, weights=None):
    """The distance under ``policy`` as ``(point, d)``: ``point`` turns a
    value vector into the form ``d`` takes, and ``d(x, z, l)`` is the
    distance from point ``x`` to the point ``z`` of cluster ``l``'s mode.

    This is the one implementation of each measure; fit, nearest_mode,
    within_cluster_difference and the functions below all call it. It
    checks nothing, so callers run check_inputs once per call.

    simple counts mismatches as ``m - (x & z).bit_count()`` on the masks of
    one BitEncoder; ``point`` is a fresh encoder's, so a caller encodes
    every vector it compares with the same ``point``. weighted with a table
    sums a per-attribute cost over the value vectors themselves. weighted
    without a table is simple (fit's allocation pass has no assignment to
    derive a table from).
    """
    m = len(attrs)
    if policy.mode == WEIGHTED and weights is not None:
        weight = weights.weight
        cols = list(range(m))

        def d(vals, mode, l):
            t = 0.0
            for j in cols:
                w = weight(j, vals[j], l)
                t += (1.0 - w) if vals[j] == mode[j] else w
            return t

        return tuple, d

    def d(x, z, l):
        return m - (x & z).bit_count()

    return BitEncoder(m).encode, d


def policy_statistics(policy, dataset, assignments, k) -> dict:
    """The per-cluster statistics ``policy`` derives from an assignment, as
    keyword arguments for measure(): the weight table under weighted, and
    none under simple."""
    if policy.mode == WEIGHTED:
        return {"weights": compute_category_weights(dataset, assignments, k)}
    return {}


_SIMPLE_POLICY = DissimilarityPolicy(SIMPLE)
_WEIGHTED_POLICY = DissimilarityPolicy(WEIGHTED)


def simple_matching(a, b, attrs) -> int:
    """Number of positions where the two vectors disagree."""
    va, vb = _vector(a), _vector(b)
    check_inputs(attrs, (va, vb))
    point, d = measure(_SIMPLE_POLICY, attrs)
    return d(point(va), point(vb), 0)


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
    check_inputs(attrs, (va, z.values))
    point, d = measure(_WEIGHTED_POLICY, attrs, weights=weights)
    return d(point(va), point(z.values), z.cluster_index)


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

    m = len(dataset.attrs)
    dataset_counts = [Counter(row.values[j] for row in dataset.rows) for j in range(m)]
    cluster_counts = [Counter((row.values[j], l) for row, l in zip(dataset.rows, assignments))
                      for j in range(m)]

    entries = {}
    for j, spec in enumerate(dataset.attrs):
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

