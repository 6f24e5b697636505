"""Online k-modes clustering over categorical datasets.

The fit procedure follows the classic online scheme: pick k initial modes,
allocate every row to its nearest mode while refreshing the receiving mode
after each allocation, then run reallocation epochs that move rows between
clusters (updating both affected modes immediately) until an epoch makes no
moves or the epoch budget is exhausted (Huang, "Extensions to the k-Means
Algorithm for Clustering Large Data Sets with Categorical Values", DMKD 1998).

fit and elbow_scan run through one driver, _models, which encodes every row
once as a BitEncoder mask and builds one seed pool, shared by every restart
and every k it fits. The allocation pass, every epoch and density init
count agreements ``(row & mode).bit_count()`` on those masks: the nearest
mode is the one that agrees most. Each cluster keeps its mode, the mode's
mask and its member counts incrementally from the members' masks (see
_Cluster): an add or remove touches only the attributes where the member
differs from the mode, and a remove rescans an attribute's counts only
where the other codes hold at least half the members. The final cost is the
clusters' summed mismatch counts, not a pass over the rows. An epoch
re-examines only the rows for which some mode has changed since they were
last placed or kept; every other row would stay put.

When every category code is an int in [0, 8), as Likert answers and the
missing code 0 are, the masks use BitEncoder's byte layout: one byte per
attribute, one-hot. The allocation pass then counts most of its adds in
batches. A code replaces a mode code only once the other codes of its
attribute hold half the members (``2 * rest[j] >= size``), so after an add
that leaves a cluster of S members with at most R differing from the mode
on any attribute, the next p adds cannot change the mode while
``p < S - 2R``: each add grows the size by one and any rest by at most
one. Rows that join inside that window are placed against the same masks
as before; their counts wait, and one C-level ``bytes.count`` per code and
attribute adds them before the cluster's next counted add (see
_Cluster.room and absorb). None of this changes any result.

A fit is a pure function of the immutable dataset and the config, so
_models keeps every model it computes in a memo on the dataset
(CategoricalDataset._fits) and returns it for an equal config: the refit at
the k an elbow scan selected costs a dictionary lookup. The memo holds one
model, an assignment tuple of n ints, per config fitted, for the life of
the dataset.

Everything is deterministic for a given dataset and config: rows are visited
in dataset order, distance ties go to the lowest cluster index, mode ties to
the lowest category code, and restart r draws its seeds with seed + r.

Convergence (an epoch with zero moves) is guaranteed: every accepted move
strictly decreases the objective, which takes finitely many values. The
model's ``converged`` flag is false only when max_epochs cuts a run short.
The tests check both properties on the reference fit in tests/oracle.py,
which recounts the objective around every move, visits every row in every
epoch and batches nothing; _fit_once must equal it bit for bit.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, repeat
from operator import ge, itemgetter
from typing import ClassVar

from .dissimilarity import (
    CATEGORICAL,
    AttributeSpec,
    BitEncoder,
    Prototype,
    _vector,
    check_inputs,
)
from .errors import AlignmentError, InfeasibleConfigError

INIT_STRATEGIES = ("random_rows", "density")


@dataclass(frozen=True)
class CategoricalDataset:
    """An immutable table of value tuples, one opaque id per row beside
    them (``row_ids``, by default the ordinals), one name per column
    (``names``, by default ``attr{j}``; without rows they give the width),
    and one AttributeSpec per column, derived from the rows: its name and
    its categories, the codes the column holds in first-appearance order.
    A cell equal to an earlier code of its column (``1.0`` or ``True``
    after ``1``) reads as that code; a column's first occurrence of each
    code must be a non-negative int."""

    rows: tuple[tuple, ...]
    names: tuple[str, ...] = None
    row_ids: tuple = None
    attrs: tuple[AttributeSpec, ...] = field(init=False)

    def __post_init__(self):
        rows, names = tuple(map(tuple, self.rows)), self.names
        m = len(rows[0]) if rows else len(names or ())
        if not set(map(len, rows)) <= {m}:
            r = next(r for r in rows if len(r) != m)
            raise AlignmentError(f"ragged input row of length {len(r)}, expected {m}")
        names = tuple(f"attr{j}" for j in range(m)) if names is None else tuple(names)
        if len(names) != m:
            raise AlignmentError(f"{len(names)} names for {m} attributes")
        row_ids = tuple(range(len(rows)) if self.row_ids is None else self.row_ids)
        if len(row_ids) != len(rows):
            raise AlignmentError(f"{len(row_ids)} row ids for {len(rows)} rows")
        # One transposition; dict.fromkeys keeps first-appearance order.
        columns = zip(*rows) if rows else [()] * m
        attrs = tuple(AttributeSpec(name, tuple(dict.fromkeys(col)))
                      for name, col in zip(names, columns))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "attrs", attrs)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def _fits(self) -> dict:
        """The models fit and elbow_scan computed on this dataset, keyed by
        their FitConfig. The dataset is immutable and a fit deterministic,
        so an entry stays valid for the dataset's life; it costs one model,
        an assignment tuple of n ints, per config fitted. Not a field, so
        equality, hashing and repr ignore it."""
        return {}

    @classmethod
    def from_values(cls, rows, kinds=None, names=None, row_ids=None):
        """``CategoricalDataset(rows, names, row_ids)``, after checking that
        ``kinds``, if given, holds one ``"categorical"`` per attribute.
        Without names, the names default to ``attr{j}`` for each kind."""
        if kinds is not None:
            kinds = list(kinds)
            for kind in kinds:
                if kind != CATEGORICAL:
                    raise ValueError(
                        f"unknown attribute kind {kind!r}; only {CATEGORICAL!r} is supported")
            names = [f"attr{j}" for j in range(len(kinds))] if names is None else list(names)
            if len(names) != len(kinds):
                raise AlignmentError("kinds/names do not match the attribute count")
        return cls(rows, names, row_ids)

    @classmethod
    def from_raw(cls, rows, names=None, row_ids=None):
        """Ingest raw labels: each attribute's values are recoded to dense
        codes 0..c-1 in first-appearance order. The coding depends only on
        that order, so any per-attribute bijective relabeling of the input
        gives the identical dataset, and every downstream result is
        invariant under recoding."""
        rows = [tuple(r) for r in rows]
        # One code map per position, so that a ragged row keeps its length
        # for the constructor to refuse.
        code_maps = [{} for _ in range(max(map(len, rows), default=0))]
        encoded = [tuple(codes.setdefault(v, len(codes)) for codes, v in zip(code_maps, r))
                   for r in rows]
        return cls(encoded, names, row_ids)


def check_int(name, value):
    """Raise ValueError unless ``value`` is a plain int. bool is an int
    subclass, and an equal float would share a memoised model's key."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FitConfig:
    """Everything that determines a clustering run. ``policy`` names the
    measure, simple matching, which is the only one: a constant, no setting."""

    policy: ClassVar[str] = "simple"
    k: int
    init: str = "random_rows"
    seed: int = 0
    max_epochs: int = 100
    restarts: int = 1

    def __post_init__(self):
        for name in ("k", "restarts", "max_epochs", "seed"):
            check_int(name, getattr(self, name))
        if self.k < 1:
            raise InfeasibleConfigError(f"k must be >= 1, got {self.k}")
        if self.init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class ClusterModel:
    """A fitted clustering: one prototype per cluster, one cluster per row."""

    modes: tuple[Prototype, ...]
    assignments: tuple[int, ...]
    cost: float
    epochs_run: int
    converged: bool
    config: FitConfig

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "assignments", tuple(self.assignments))


def _encode_rows(dataset):
    """A BitEncoder for the dataset and the mask of every row under it."""
    encoder = BitEncoder(len(dataset.attrs), [spec.categories for spec in dataset.attrs])
    return encoder, encoder.encode_rows(dataset.rows)


def _density_seeds(dataset, k, codes):
    """Seed 1 is the row whose values are, summed over attributes, the most
    frequent in the dataset; later seeds greedily minimize the agreement
    with the nearest seed chosen so far, which `nearest` holds per row (the
    farthest row). Ties take the lowest row index. codes are the rows' masks
    under one BitEncoder. Each step depends only on the seeds before it, so
    for every k <= K the k seeds are the first k of the K seeds (the prefix
    property).
    """
    rows = dataset.rows
    freq = [Counter(col) for col in zip(*rows)]
    scores = [sum(map(dict.__getitem__, freq, vals)) for vals in rows]
    chosen = [scores.index(max(scores))]
    nearest = [0] * len(rows)
    while len(chosen) < k:
        z = codes[chosen[-1]]
        nearest = [max(a, (x & z).bit_count()) for a, x in zip(nearest, codes)]
        chosen.append(nearest.index(min(nearest)))
    return [rows[i] for i in chosen]


def _seed_pool(dataset, codes, init, k_min, k_max):
    """The draws ``(k, seed, restarts) -> [initial modes]`` at any k in
    [k_min, k_max]: the distinct modes (tuples of k rows) that restarts
    seed..seed+restarts-1 draw, in restart order. Under random_rows restart
    r samples k distinct rows seeded with r; under density all draw the
    first k of the k_max density seeds (the seeds at k, by their prefix
    property), one draw. Either way the k seeds are distinct rows (a
    farthest row differs from every seed before it), as Huang's k-modes
    starts, so under both inits a k_max above the distinct rows raises
    InfeasibleConfigError, naming the first infeasible k, before any draw."""
    distinct = list(dict.fromkeys(dataset.rows))
    if k_max > len(distinct):
        raise InfeasibleConfigError(
            f"k={max(k_min, len(distinct) + 1)} exceeds the number of distinct "
            f"rows ({len(distinct)})"
        )
    if init == "density":
        seeds = tuple(_density_seeds(dataset, k_max, codes))
        return lambda k, seed, restarts: [seeds[:k]]
    return lambda k, seed, restarts: list(dict.fromkeys(
        tuple(random.Random(r).sample(distinct, k)) for r in range(seed, seed + restarts)))


def init_modes(dataset, k: int, strategy: str = "random_rows", seed: int = 0):
    """Pick k initial prototypes.

    random_rows samples k distinct rows without replacement (seeded);
    density starts from the highest-frequency row and then spreads out.
    """
    FitConfig(k=k, init=strategy, seed=seed)
    codes = _encode_rows(dataset)[1] if strategy == "density" else None
    (seeds,) = _seed_pool(dataset, codes, strategy, k, k)(k, seed, 1)
    return list(map(Prototype, seeds))


def _nearest(x, masks):
    """The index of the mask that agrees most with x, and that agreement.
    Strict improvement only, so ties go to the lowest index."""
    # Faster than max and index on a list of agreements: 0.82 vs 1.47 us (k=5, CPython 3.11).
    best_l, best_a = 0, -1
    for l, z in enumerate(masks):
        a = (x & z).bit_count()
        if a > best_a:
            best_l, best_a = l, a
    return best_l, best_a


class _Cluster:
    """Incremental per-cluster state over the rows' BitEncoder masks: the
    member count, the current mode (its codes, its mask, and per attribute
    the bit position of its code), and per attribute j the number of
    members whose code differs from the mode code (``rest[j]``). Every
    other code keeps its member count at its bit position; the mode code
    of j counts ``size - rest[j]``.

    add and remove take a member's mask. Only the set bits of
    ``x & ~mask`` change a count: the attributes where the member differs
    from the mode, found one at a time with ``bit_length``. The cost is
    thus proportional to those attributes, not to m.

    The mode always equals the majority of the members with ties to the
    lowest code. An add can only promote a code it adds, so it compares
    that code's new count with the mode code's. A remove that agrees with
    the mode on j leaves the mode code ``size - rest[j]`` members, which
    no other code (at most ``rest[j]``) can reach unless
    ``2 * rest[j] >= size``. One C-level pass over rest finds those
    attributes, and only they are rescanned. Whenever a mode code changes,
    the mask swaps the old code's bit for the new one's.

    Under a bytewise encoder the allocation pass may skip add for the next
    room() members and hand them to absorb in one batch: no add among them
    could have changed the mode, so counting them together leaves the
    state an add per member would.

    The encoder must already hold every code the cluster will see: the
    counts have one slot per bit the encoder had assigned when the cluster
    was built. _models encodes every row before it builds any cluster.
    """

    __slots__ = ("size", "mode", "mask", "rest", "_pos", "_counts",
                 "_attr_of", "_code_of", "_positions")

    def __init__(self, seed_values, encoder):
        self.size = 0
        self.mode = list(seed_values)
        bits = list(map(encoder.bit, range(len(self.mode)), self.mode))
        self.mask = sum(bits)
        self._pos = [b.bit_length() - 1 for b in bits]
        self.rest = [0] * len(self.mode)
        self._counts = [0] * len(encoder.code_of)
        self._attr_of = encoder.attr_of
        self._code_of = encoder.code_of
        self._positions = encoder.positions

    def _promote(self, j, p, n, top):
        # The code at bit p, with n members, replaces the mode code of j,
        # which has top members and joins the other codes.
        q = self._pos[j]
        self._counts[q], self._counts[p] = top, 0
        self.rest[j] += top - n
        self.mask ^= (1 << q) ^ (1 << p)
        self._pos[j] = p
        self.mode[j] = self._code_of[p]

    def add(self, x):
        self.size += 1
        size, counts, rest, mode = self.size, self._counts, self.rest, self.mode
        attr_of, code_of = self._attr_of, self._code_of
        d = x & ~self.mask
        while d:
            p = d.bit_length() - 1
            d ^= 1 << p
            j = attr_of[p]
            n = counts[p] + 1
            counts[p] = n
            r = rest[j] = rest[j] + 1
            top = size - r
            if n > top or (n == top and code_of[p] < mode[j]):
                self._promote(j, p, n, top)

    def remove(self, x):
        self.size -= 1
        size, counts, rest, attr_of = self.size, self._counts, self.rest, self._attr_of
        d = x & ~self.mask
        while d:
            p = d.bit_length() - 1
            d ^= 1 << p
            counts[p] -= 1
            rest[attr_of[p]] -= 1
        pos = self._pos
        for j in compress(range(len(rest)), map(ge, rest, repeat((size + 1) // 2))):
            if x >> pos[j] & 1:
                self._rescan(j, size - rest[j])

    def room(self):
        """How many more adds cannot change the mode: after p more adds
        the size is ``size + p`` and ``rest[j] <= max(rest) + p``, and a
        code can replace the mode code of j only once ``2 * rest[j] >=
        size``, so every add is safe while ``p < size - 2 * max(rest)``."""
        return self.size - 2 * max(self.rest, default=0) - 1

    def absorb(self, xs):
        """Count the members xs, masks under a bytewise encoder that room
        showed cannot change the mode. Byte j of such a mask is the one-hot
        byte of the member's code on j, so column j of the joined masks
        counts each code at C level."""
        m = len(self.rest)
        chunk = b"".join([x.to_bytes(m, "little") for x in xs])
        self.size += len(xs)
        counts, rest, pos = self._counts, self.rest, self._pos
        for j, ps in enumerate(self._positions):
            col = chunk[j::m]
            q = pos[j]
            for p in ps:
                if p != q:
                    n = col.count(1 << (p & 7))
                    counts[p] += n
                    rest[j] += n

    def _majority(self, j, top):
        # The bit position of the code of j with the most members, the
        # lowest code among the maxima, and its count. The mode code has top
        # members.
        counts, code_of = self._counts, self._code_of
        best_p = self._pos[j]
        best_n = top
        for p in self._positions[j]:
            n = counts[p]
            if n > best_n or (n == best_n and code_of[p] < code_of[best_p]):
                best_p, best_n = p, n
        return best_p, best_n

    def _rescan(self, j, top):
        # The mode code of j, with top members, yields to the majority code.
        p, n = self._majority(j, top)
        if p != self._pos[j]:
            self._promote(j, p, n, top)


def _total(m, points, masks, assignments):
    """Summed distance of every point to its cluster's mode, m attributes
    less their agreement each. Exact in float: the sum is at most n * m."""
    return float(sum(m - (x & masks[l]).bit_count() for x, l in zip(points, assignments)))


def _fit_once(encoder, codes, seeds, max_epochs):
    """One online k-modes run over the rows' masks from the initial modes
    ``seeds``, distinct rows (see _seed_pool), so that no cluster is ever
    empty: (modes, assignments, epochs_run, converged, cost)."""
    k = len(seeds)
    clusters = [_Cluster(v, encoder) for v in seeds]
    # masks are ints, refreshed whenever an add or remove changes one.
    masks = [c.mask for c in clusters]
    assign = [0] * len(codes)
    # changes counts the updates that altered an entry of masks. seen[i] is
    # the count under which row i was last found at its nearest mode, taken
    # before its own add or move. A row with seen[i] == changes faces the
    # very masks under which it stayed or was placed, so _nearest would give
    # the same answer and it would stay.
    changes = 0
    seen = [0] * len(codes)

    # Initial allocation pass. Under a bytewise encoder each counted add
    # opens a window of c.room() adds, which cannot change the mode: a row
    # that joins inside it is placed and stamped as usual and its mask is
    # queued, for absorb to count before the cluster's next counted add or
    # at the end of the pass.
    windows = encoder.bytewise
    queues = [[] for _ in range(k)]
    room = [0] * k

    def flush(l):
        clusters[l].absorb(queues[l])
        queues[l] = []

    for i, x in enumerate(codes):
        l, _ = _nearest(x, masks)
        assign[i] = l
        seen[i] = changes
        if room[l] > 0:
            room[l] -= 1
            queues[l].append(x)
            continue
        if queues[l]:
            flush(l)
        c = clusters[l]
        c.add(x)
        if c.mask != masks[l]:
            masks[l] = c.mask
            changes += 1
        if windows:
            room[l] = c.room()
    for l in range(k):
        if queues[l]:
            flush(l)

    # The seeds are distinct, so no cluster ends the pass empty: the row that
    # would complete a mode's drift onto an empty cluster's seed agrees more
    # with that seed than with the mode, so it does not join the mode.

    # Reallocation epochs. A row moves only when some mode is strictly
    # closer (agrees on more attributes) than its current one (equidistant
    # rows stay put, which is what makes every accepted move strictly
    # decrease the live cost). No move empties a cluster: a cluster of one
    # row has that row as its mode, which agrees on all m attributes, so no
    # mode is strictly closer. A row whose stamp is current is skipped: no
    # mask has changed since it was placed or last stayed.
    epochs_run = 0
    converged = False
    for epoch in range(1, max_epochs + 1):
        epochs_run = epoch
        moves = 0
        for i, x in enumerate(codes):
            if seen[i] == changes:
                continue
            s = assign[i]
            t, at = _nearest(x, masks)
            seen[i] = changes
            if at <= (x & masks[s]).bit_count():
                continue
            cs, ct = clusters[s], clusters[t]
            cs.remove(x)
            ct.add(x)
            if cs.mask != masks[s] or ct.mask != masks[t]:
                masks[s], masks[t] = cs.mask, ct.mask
                changes += 1
            assign[i] = t
            moves += 1
        if moves == 0:
            converged = True
            break

    # rest[j] counts the members that differ from their mode on j, so the
    # rests sum to the objective: O(k * m) instead of _total's O(n * k).
    cost = float(sum(sum(c.rest) for c in clusters))
    protos = tuple(Prototype(values=tuple(c.mode)) for c in clusters)
    return protos, tuple(assign), epochs_run, converged, cost


def _models(dataset, config, k_min, k_max):
    """The model of config at each k in [k_min, k_max], in order: the
    memo's (see CategoricalDataset._fits), else fitted and added to it. The
    rows are checked against k_max before any per-k config is built. The k
    the memo lacks share one encoding of the rows and one seed pool (see
    _seed_pool). Restart r fits the seeds drawn with seed + r and the lowest
    cost wins, the earliest on ties. A restart that draws an earlier one's
    seeds would repeat that fit and lose the tie, so the pool yields it
    once: a density fit, whose draw ignores the seed, runs once. The tests
    hold every _fit_once run equal to tests/oracle.py's reference_fit."""
    if dataset.n < 1:
        raise ValueError("cannot fit an empty dataset")
    if k_max > dataset.n:
        raise InfeasibleConfigError(f"k={k_max} exceeds the number of rows ({dataset.n})")
    configs = [replace(config, k=k) for k in range(k_min, k_max + 1)]
    memo = dataset._fits
    missing = [c for c in configs if c not in memo]
    if missing:
        encoder, codes = _encode_rows(dataset)
        draws = _seed_pool(dataset, codes, config.init, missing[0].k, missing[-1].k)
        for c in missing:
            runs = (_fit_once(encoder, codes, seeds, c.max_epochs)
                    for seeds in draws(c.k, c.seed, c.restarts))
            modes, assignments, epochs_run, converged, cost = min(runs, key=itemgetter(4))
            memo[c] = ClusterModel(modes, assignments, cost, epochs_run, converged, c)
    return [memo[c] for c in configs]


def fit(dataset, config: FitConfig) -> ClusterModel:
    """Cluster the dataset through _models, the driver elbow_scan shares:
    restart r fits the seeds drawn with seed + r and the lowest cost wins
    (earliest restart on ties); a restart that repeats an earlier draw is
    skipped, so a density fit runs once, and its model's config keeps the
    requested restarts. Under either init a k above the dataset's distinct
    rows raises InfeasibleConfigError: the k seeds are distinct rows.

    The model is kept in the dataset's memo, and a later fit or elbow_scan
    with an equal config returns it, carrying its own config. That each
    accepted move strictly lowers the objective is checked by the tests,
    through the row-by-row reference fit in tests/oracle.py.
    """
    model = _models(dataset, config, config.k, config.k)[0]
    return model if model.config is config else replace(model, config=config)


def within_cluster_difference(dataset, modes, assignments, policy=None) -> float:
    """Total simple-matching distance of every row to its cluster's
    prototype. ``policy`` takes a fit's ``config.policy``; simple matching
    is the only measure, so it changes nothing."""
    modes = list(map(_vector, modes))
    k = len(modes)
    if len(assignments) != dataset.n:
        raise AlignmentError(
            f"{len(assignments)} assignments for {dataset.n} rows"
        )
    for l in assignments:
        check_int("assignment", l)
        if not 0 <= l < k:
            raise ValueError(f"assignment {l} out of range for k={k}")
    check_inputs(dataset.attrs, modes)
    encoder, codes = _encode_rows(dataset)
    masks = [encoder.encode(z) for z in modes]
    return _total(len(dataset.attrs), codes, masks, assignments)


def elbow_scan(dataset, k_min, k_max, seed=0, restarts=1, init="random_rows"):
    """Fit every k in [k_min, k_max] and return the (k, cost) curve, each
    cost equal to that of ``fit`` at k bit for bit.

    All arguments, and the number of distinct rows, are checked before any
    fit; FitConfig refuses a k below 1, as in fit. The scan is one call of
    _models, the driver fit uses: every k the dataset's memo lacks shares
    one encoding of the rows and one seed pool (density seeds are derived
    once, at the largest such k; see _seed_pool). A scan whose every k is
    in the memo encodes nothing.
    """
    check_int("k_min", k_min)
    check_int("k_max", k_max)
    if k_min > k_max:
        raise ValueError(f"need k_min <= k_max, got {k_min}..{k_max}")
    config = FitConfig(k=k_min, seed=seed, restarts=restarts, init=init)
    return [(model.config.k, model.cost) for model in _models(dataset, config, k_min, k_max)]


def check_selection(points: int, epsilon: float) -> None:
    """Raise ValueError unless select_k can pick a k from a curve of
    ``points`` points with this epsilon; callers may check before a scan."""
    if points < 2:
        raise ValueError("elbow curve needs at least two points")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def select_k(curve, epsilon: float = 0.05) -> int:
    """Smallest k whose step to k+1 improves the cost by less than epsilon
    (relative); k_max if every step keeps paying off. A zero-cost point is
    returned as soon as it is seen. Every k must be a plain int, and every
    cost an int or float (not a bool), finite and >= 0."""
    curve = list(curve)
    check_selection(len(curve), epsilon)
    for k, wcd in curve:
        check_int("k", k)
        if isinstance(wcd, bool) or not isinstance(wcd, (int, float)) or not 0 <= wcd < math.inf:
            raise ValueError(f"elbow curve cost at k={k} must be finite and >= 0, got {wcd!r}")
    ks = [k for k, _ in curve]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("elbow curve k values must be strictly ascending")
    tiny = 1e-12
    for i, (k, wcd) in enumerate(curve):
        if wcd <= tiny:
            return k
        if i + 1 < len(curve):
            drop = (wcd - curve[i + 1][1]) / wcd
            if drop < epsilon:
                return k
    return curve[-1][0]
