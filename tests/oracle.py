"""Brute-force and row-by-row references for the clustering, parsing,
scoring and labeling tests.

Deliberately independent of the package under test: plain lists, plain
loops. Partitions are enumerated as restricted-growth strings, which walks
every set partition of n rows into exactly k non-empty blocks once (cluster
labels do not matter because the cost function is label-invariant).
allocation_pass and reference_fit run Huang's online k-modes one row at a
time, with plain Hamming distances and majority modes recounted from the
members: no masks, no skipped rows, no batches. The fit's incremental
cluster state, its epoch skip and its batched allocation pass must end
where they do, bit for bit.
"""

import csv
import io


def hamming(a, b):
    return sum(1 for x, z in zip(a, b) if x != z)


def majority_value(values):
    """Most frequent value, lowest value on ties."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


def partition_cost(rows, assignment, k):
    """Best achievable cost of this partition: per-cluster majority modes,
    then the summed mismatch of each row against its cluster's mode."""
    clusters = [[] for _ in range(k)]
    for row, label in zip(rows, assignment):
        clusters[label].append(row)
    total = 0
    for members in clusters:
        if not members:
            continue
        m = len(members[0])
        mode = [majority_value([row[j] for row in members]) for j in range(m)]
        total += sum(hamming(row, mode) for row in members)
    return total


def iter_partitions(n, k):
    """Yield every assignment of n rows to exactly k non-empty, unlabeled
    blocks (restricted growth strings with maximum k - 1)."""
    if k > n or k < 1:
        return
    assignment = [0] * n

    def extend(i, used):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                yield tuple(assignment)
            return
        for label in range(min(used, k - 1) + 1):
            assignment[i] = label
            yield from extend(i + 1, max(used, label + 1))

    yield from extend(1, 1)


def optimal_cost(rows, k):
    """Exhaustive minimum partition cost over exactly k non-empty clusters."""
    best = None
    for assignment in iter_partitions(len(rows), k):
        cost = partition_cost(rows, assignment, k)
        if best is None or cost < best:
            best = cost
    return best


class ReferenceParseError(Exception):
    """reference_parse rejected its input; the message is the one
    parse_responses must raise its ParseError with."""


def _records(reader):
    """The rows of a csv reader. A csv.Error, such as a line break in an
    unquoted field, becomes the error parse_responses raises for it."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ReferenceParseError(f"row {reader.line_num}: {exc}") from None


def reference_parse(text, columns, likert_min, likert_max, missing_code,
                    delimiter=",", missing_policy="drop_row"):
    """Parse survey CSV text one cell at a time: int() and a range check per
    schema cell in row-major order, ids from the first non-schema column
    (else the row ordinal), then either drop every row holding the missing
    code or impute each column's most frequent observed value (lowest on
    ties). Returns (id_name, ids, rows, categories, (rows_read, rows_kept,
    rows_dropped)), where categories lists each column's codes in order of
    first appearance among the kept rows.
    """
    lo, hi, miss = likert_min, likert_max, missing_code
    reader = _records(csv.reader(io.StringIO(text), delimiter=delimiter))
    try:
        header = next(reader)
    except StopIteration:
        raise ReferenceParseError("empty input: no header row") from None
    missing_cols = [c for c in columns if c not in header]
    if missing_cols:
        raise ReferenceParseError(
            f"header is missing schema columns: {', '.join(missing_cols)}")
    for col in columns:
        if header.count(col) > 1:
            raise ReferenceParseError(f"header repeats schema column {col!r}")
    positions = [header.index(col) for col in columns]
    id_pos = None
    for p, name in enumerate(header):
        if name not in columns:
            id_pos = p
            break
    id_name = header[id_pos] if id_pos is not None else "row_id"

    ids, rows = [], []
    lineno = 1
    for cells in reader:
        lineno += 1
        if not cells:
            continue
        if len(cells) != len(header):
            raise ReferenceParseError(
                f"row {lineno}: expected {len(header)} cells, found {len(cells)}")
        row = []
        for col, pos in zip(columns, positions):
            cell = cells[pos]
            try:
                v = int(cell)
            except ValueError:
                raise ReferenceParseError(
                    f"row {lineno}, column {col!r}: non-integer value {cell!r}") from None
            if not (lo <= v <= hi or v == miss):
                raise ReferenceParseError(
                    f"row {lineno}, column {col!r}: value {v} outside [{lo}, {hi}] "
                    f"and not the missing code {miss}")
            row.append(v)
        rid = cells[id_pos] if id_pos is not None else str(len(ids))
        if rid in ids:
            raise ReferenceParseError(f"row {lineno}: duplicate id {rid!r}")
        ids.append(rid)
        rows.append(row)
    rows_read = len(rows)

    if missing_policy == "impute_mode":
        for c, col in enumerate(columns):
            if not any(row[c] == miss for row in rows):
                continue
            observed = [row[c] for row in rows if row[c] != miss]
            if not observed:
                raise ReferenceParseError(
                    f"column {col!r}: every value is missing, cannot impute")
            fill = majority_value(observed)
            for row in rows:
                if row[c] == miss:
                    row[c] = fill
    else:
        kept = [(rid, row) for rid, row in zip(ids, rows) if miss not in row]
        ids = [rid for rid, _ in kept]
        rows = [row for _, row in kept]

    categories = []
    for c in range(len(columns)):
        seen = []
        for row in rows:
            if row[c] not in seen:
                seen.append(row[c])
        categories.append(tuple(seen))
    report = (rows_read, len(rows), rows_read - len(rows))
    return (id_name, tuple(ids), tuple(tuple(row) for row in rows),
            tuple(categories), report)


def reference_score(row, schema):
    """Raw scores of one answer row, {dimension: sum} in the schema's
    dimension order, one item at a time: a positive item adds its answer v,
    a negative one likert_min + likert_max - v."""
    raw = {d: 0 for d in schema.dimensions}
    for item, v in zip(schema.items, row):
        if item.keying == "positive":
            raw[item.dimension] += v
        else:
            raw[item.dimension] += schema.likert_min + schema.likert_max - v
    return raw


def reference_cluster_means(percents, assignments, k, dims):
    """Per cluster, (size, {dimension: mean percentage}) with every sum
    taken by += from 0.0 in row order, or None for an empty cluster."""
    sums = [{d: 0.0 for d in dims} for _ in range(k)]
    sizes = [0] * k
    for percent, label in zip(percents, assignments):
        sizes[label] += 1
        for d in dims:
            sums[label][d] += percent[d]
    return [(sizes[l], {d: sums[l][d] / sizes[l] for d in dims}) if sizes[l] else None
            for l in range(k)]


def allocation_pass(rows, seeds):
    """Huang's allocation pass, one row at a time: each row joins the mode
    it differs from on the fewest attributes (the lowest cluster on ties),
    and that mode becomes its members' majority per attribute (the lowest
    code on ties) before the next row is placed. A cluster without members
    keeps its seed. Returns (modes, assignments, cost)."""
    modes = [list(seed) for seed in seeds]
    counts = [[{} for _ in seed] for seed in seeds]
    assignments = []
    for row in rows:
        distances = [hamming(row, mode) for mode in modes]
        label = distances.index(min(distances))
        assignments.append(label)
        for j, v in enumerate(row):
            column = counts[label][j]
            column[v] = column.get(v, 0) + 1
            top = max(column.values())
            modes[label][j] = min(code for code, c in column.items() if c == top)
    cost = sum(hamming(row, modes[label]) for row, label in zip(rows, assignments))
    return [tuple(mode) for mode in modes], assignments, cost


def reference_fit(rows, seeds, max_epochs):
    """Huang's online k-modes from the initial modes ``seeds``, one row at a
    time: allocation_pass, then up to max_epochs reallocation epochs. An
    epoch visits every row and moves it to the nearest mode (the lowest
    cluster on ties) only when that mode is strictly closer than its own;
    both modes then become their members' majority. A run converges at an
    epoch without a move. The library seeds distinct rows and repairs no
    empty cluster, so this asserts that the allocation pass leaves every
    cluster a member, that every accepted move strictly lowers the
    objective, and that no move empties a cluster. Returns (modes,
    assignments, epochs_run, converged, cost) as tuples and a float cost."""
    modes, assignments, _ = allocation_pass(rows, seeds)

    def cost():
        return sum(hamming(row, modes[l]) for row, l in zip(rows, assignments))

    def move(i, t):
        s = assignments[i]
        assignments[i] = t
        for l in (s, t):
            members = [row for row, a in zip(rows, assignments) if a == l]
            modes[l] = tuple(majority_value(column) for column in zip(*members))

    empty = set(range(len(seeds))) - set(assignments)
    assert not empty, f"the allocation pass left clusters {sorted(empty)} empty"
    epochs_run, converged = 0, False
    for epoch in range(1, max_epochs + 1):
        epochs_run, moves = epoch, 0
        for i, row in enumerate(rows):
            distances = [hamming(row, mode) for mode in modes]
            t, s = distances.index(min(distances)), assignments[i]
            if distances[t] >= distances[s]:
                continue
            assert assignments.count(s) > 1, f"moving row {i} would empty cluster {s}"
            before = cost()
            move(i, t)
            moves += 1
            after = cost()
            assert after < before, f"moving row {i} took the cost from {before} to {after}"
        if not moves:
            converged = True
            break
    return tuple(modes), tuple(assignments), epochs_run, converged, float(cost())
