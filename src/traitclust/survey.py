"""Questionnaire schemas, response parsing, trait scoring, and synthesis.

A schema names a set of trait dimensions and maps each survey column to one
dimension with a positive or negative keying. Scoring sums Likert answers
per dimension, reversing negatively keyed items as likert_min + likert_max
- value, then normalizes the raw totals to percentages summing to 100.
"""

import csv
import io
import math
import random
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from importlib import resources
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

from . import documents
from .errors import AlignmentError, DegenerateProfileError, ParseError, SchemaError
from .kmodes import CategoricalDataset, FitConfig, check_int

POSITIVE = "positive"
NEGATIVE = "negative"

PRESETS = ("ocean50", "scenario", "scenario3", "iwp")

MISSING_POLICIES = ("drop_row", "impute_mode")
# A missing answer's code in the byte table that parse_responses fills: above
# every Likert code, as SurveySchema bounds likert_max below it.
_MISSING_BYTE = 255
# What score_profile raises for a row whose raw scores are all zero, and
# score_profiles after the row's id.
_DEGENERATE = "all raw scores are zero; percentages are undefined"
# The memoryview format of a lane that score_profiles sums, by its width in
# bytes, smallest first.
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# The characters of input that parse_responses hands to io.StringIO at a
# time, rounded up to a line end; StringIO copies them at 4 bytes each.
_BLOCK = 8192


def check_delimiter(delimiter) -> str:
    """``delimiter`` if it is one character other than a line break: csv
    takes exactly one character, and a line break would split every
    record. Else raise ValueError."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in "\r\n":
        raise ValueError(
            f"delimiter must be one character, not a line break, got {delimiter!r}")
    return delimiter


def _picker(indices):
    """An itemgetter for the indices that returns a sequence even for zero
    or one index (a slice of the argument then)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(slice(0, 0))


@dataclass(frozen=True)
class SurveyItem:
    """One survey column: which dimension it loads on and in which direction."""

    column: str
    dimension: str
    keying: str = POSITIVE
    text: str = ""


@dataclass(frozen=True)
class SurveySchema:
    name: str
    dimensions: tuple[str, ...]
    items: tuple[SurveyItem, ...]
    likert_min: int = 1
    likert_max: int = 5
    missing_code: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "items", tuple(self.items))
        if not self.dimensions:
            raise SchemaError(f"schema {self.name!r}: no dimensions")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise SchemaError(f"schema {self.name!r}: duplicate dimensions")
        if not self.items:
            raise SchemaError(f"schema {self.name!r}: no items")
        seen = set()
        dims = set(self.dimensions)
        for item in self.items:
            if item.column in seen:
                raise SchemaError(f"schema {self.name!r}: duplicate column {item.column!r}")
            seen.add(item.column)
            if item.dimension not in dims:
                raise SchemaError(
                    f"schema {self.name!r}: item {item.column!r} references unknown "
                    f"dimension {item.dimension!r}"
                )
            if item.keying not in (POSITIVE, NEGATIVE):
                raise SchemaError(
                    f"schema {self.name!r}: item {item.column!r} has invalid keying "
                    f"{item.keying!r}"
                )
        if self.likert_min >= self.likert_max:
            raise SchemaError(
                f"schema {self.name!r}: likert_min must be below likert_max"
            )
        if self.likert_min < 0:
            raise SchemaError(f"schema {self.name!r}: likert_min must be >= 0")
        if self.likert_max >= _MISSING_BYTE:
            raise SchemaError(f"schema {self.name!r}: likert_max must be <= "
                              f"{_MISSING_BYTE - 1}, got {self.likert_max}")
        if self.likert_min <= self.missing_code <= self.likert_max:
            raise SchemaError(
                f"schema {self.name!r}: missing_code {self.missing_code} lies inside "
                f"the Likert range [{self.likert_min}, {self.likert_max}]"
            )
        # Derived once, and kept out of the fields so equality, hashing,
        # repr and the schema document are unchanged: the column names, and
        # per dimension the positive and negative item indices plus the
        # reversal constant len(negative) * (likert_min + likert_max).
        object.__setattr__(self, "columns", tuple(item.column for item in self.items))
        span = self.likert_min + self.likert_max
        plan = []
        for d in self.dimensions:
            pos = [i for i, item in enumerate(self.items)
                   if item.dimension == d and item.keying == POSITIVE]
            neg = [i for i, item in enumerate(self.items)
                   if item.dimension == d and item.keying == NEGATIVE]
            plan.append((_picker(pos), _picker(neg), len(neg) * span))
        object.__setattr__(self, "_score_plan", tuple(plan))


@dataclass(frozen=True)
class ResponseTable:
    """Parsed (or generated) answers: one id and one int row per respondent.
    Only a table that ``parse_responses`` returned can be scored in bulk by
    ``score_profiles``: it carries the parse's proof, ``_proven``, which is
    not a field. It holds its codes as an n × m byte table, ``_codes``, in
    place of ``rows`` until ``rows`` is first read (directly or by ``==``,
    ``hash``, ``repr``, ``to_csv`` or ``dataclasses.replace``), which builds
    the row tuples and drops the byte table: one form at a time."""

    ids: tuple
    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    id_name: str = "row_id"

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if len(self.ids) != len(self.rows):
            raise AlignmentError(f"{len(self.ids)} ids for {len(self.rows)} rows")
        m = len(self.columns)
        if not set(map(len, self.rows)) <= {m}:
            rid, row = next((rid, row) for rid, row in zip(self.ids, self.rows)
                            if len(row) != m)
            raise AlignmentError(f"row {rid!r} has {len(row)} cells, expected {m}")

    def __getattr__(self, name):
        # Only on a failed lookup, as of ``rows`` on a parsed table. It reads
        # __dict__ alone: pickle and copy look names up before they fill it.
        # ``rows`` is set, first build kept, before ``_codes`` goes, so
        # threads that race here all return the same rows.
        table = vars(self)
        codes = table.get("_codes") if name == "rows" else None
        if codes is not None:
            table.setdefault("rows", tuple(zip(*[iter(codes)] * len(self.columns))))
            table.pop("_codes", None)
        if name != "rows" or "rows" not in table:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return table["rows"]

    @property
    def n(self) -> int:
        return len(self.ids)

    def to_csv(self, delimiter: str = ",") -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=check_delimiter(delimiter), lineterminator="\n")
        writer.writerow([self.id_name, *self.columns])
        for rid, row in zip(self.ids, self.rows):
            writer.writerow([rid, *row])
        return buf.getvalue()


@dataclass(frozen=True)
class TraitProfile:
    """Raw per-dimension sums and their percentage normalization."""

    raw: dict
    percent: dict


@dataclass(frozen=True)
class ParseReport:
    rows_read: int
    rows_kept: int
    rows_dropped: int


@dataclass(frozen=True)
class ParseResult:
    table: ResponseTable
    report: ParseReport

    @cached_property
    def dataset(self) -> CategoricalDataset:
        """The table as a categorical dataset, built on first access (only a
        fit needs it). It reads the table's rows, which builds them, and
        shares the row tuples and ids."""
        table = self.table
        return CategoricalDataset(table.rows, table.columns, table.ids)


def _schema_from_dict(doc) -> SurveySchema:
    name = documents.field(doc, "name", str, SchemaError, "schema document")
    where = f"schema {name!r}"
    dimensions = documents.field(doc, "dimensions", list, SchemaError, where)
    for d in dimensions:
        if not isinstance(d, str):
            raise SchemaError(f"{where}: dimensions must be strings, got {d!r}")
    items = []
    for entry in documents.field(doc, "items", list, SchemaError, where):
        documents.typed(entry, dict, SchemaError, f"{where}: an item")
        column = documents.field(entry, "column", str, SchemaError, f"{where} item")
        at = f"{where} item {column!r}"
        items.append(SurveyItem(
            column=column,
            dimension=documents.field(entry, "dimension", str, SchemaError, at),
            keying=documents.field(entry, "keying", str, SchemaError, at, POSITIVE),
            text=documents.field(entry, "text", str, SchemaError, at, ""),
        ))
    return SurveySchema(
        name=name,
        dimensions=tuple(dimensions),
        items=tuple(items),
        likert_min=documents.field(doc, "likert_min", int, SchemaError, where, 1),
        likert_max=documents.field(doc, "likert_max", int, SchemaError, where, 5),
        missing_code=documents.field(doc, "missing_code", int, SchemaError, where, 0),
    )


def load_schema(source) -> SurveySchema:
    """Load a schema from a preset name, a JSON file path, or a dict."""
    if isinstance(source, dict):
        return _schema_from_dict(source)
    if isinstance(source, (str, Path)):
        name = str(source)
        if name in PRESETS:
            text = resources.files("traitclust").joinpath(f"schemas/{name}.json").read_text("utf-8")
        else:
            path = Path(name)
            if not path.is_file():
                raise SchemaError(f"unknown schema preset or missing file: {name!r}")
            text = path.read_text("utf-8")
        return _schema_from_dict(documents.loads(text, SchemaError, f"schema {name!r}"))
    raise SchemaError(f"cannot load a schema from {type(source).__name__}")


def schema_to_dict(schema: SurveySchema) -> dict:
    doc = asdict(schema)
    doc["dimensions"], doc["items"] = list(doc["dimensions"]), list(doc["items"])
    return doc


def dump_schema(schema: SurveySchema) -> str:
    return documents.dumps(schema_to_dict(schema))


def parse_responses(text: str, schema: SurveySchema, delimiter: str = ",",
                    missing_policy: str = "drop_row") -> ParseResult:
    """Parse delimited text, one str, into a ResponseTable (and, on demand,
    its categorical dataset).

    The header must contain every schema column; extra columns are ignored.
    The first non-schema column, if any, supplies row ids (otherwise the row
    ordinal does). Missing answers (== schema.missing_code) are either
    dropped with their row or imputed with the column's most frequent
    observed value (the lowest on ties), per missing_policy. Likert answers
    are kept verbatim as the dataset's category codes. The delimiter must
    pass check_delimiter.
    One leading UTF-8 byte-order mark, which spreadsheet exports often
    write, is dropped.

    A row of one-digit cells is converted at C level, by the comma rule
    stated where it is checked; other rows by per-cell checks. Every kept
    row goes into one byte table, a missing answer as byte 255, in which
    imputation fills each column. The table keeps a copy of it in place of
    its rows, which are built from it when first read; ``score_profiles``
    and ``n`` read none.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}")
    check_delimiter(delimiter)
    # removeprefix returns the text itself, uncopied, when it has no mark.
    text = text.removeprefix("\ufeff")
    reader = csv.reader(_lines(text), delimiter=delimiter)
    try:  # a csv.Error, such as a field over the csv module's size limit
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input: no header row")

        columns = schema.columns
        wanted = set(columns)
        missing_cols = [c for c in columns if c not in header]
        if missing_cols:
            raise ParseError(f"header is missing schema columns: {', '.join(missing_cols)}")
        for col in columns:
            if header.count(col) > 1:
                raise ParseError(f"header repeats schema column {col!r}")
        positions = [header.index(col) for col in columns]
        id_pos = next((p for p, name in enumerate(header) if name not in wanted), None)
        id_name = header[id_pos] if id_pos is not None else "row_id"
        pick = _picker(positions)

        lo, hi, miss = schema.likert_min, schema.likert_max, schema.missing_code
        drop = missing_policy == "drop_row"
        m = len(columns)
        # A row of one-digit cells is converted by a few C-level calls. Its
        # cells joined by "," must be 2m - 1 characters long and, encoded (a
        # non-ASCII character as one "?"), hold a digit the per-cell check
        # accepts at each even position. The m - 1 separators, which are not
        # digits, then fill the m - 1 odd positions, so each cell is one of
        # those digits; a join without separators would take ("", "11", "1")
        # for three cells. The length is tested first, so a row of wider cells
        # costs only the join. A digit's code is its value, or _MISSING_BYTE
        # for the missing code.
        ok = bytes(d for d in b"0123456789" if lo <= d - 48 <= hi or d - 48 == miss)
        value = bytes.maketrans(b"0123456789",
                                bytes(_MISSING_BYTE if d == miss else d for d in range(10)))
        width = 2 * m - 1
        # Every cell string the per-cell check has accepted, mapped to its
        # code, so any other row of known strings is converted in one pass:
        # without it, a Likert 1..10 input parses in twice the time.
        known = {}
        # The kept rows' codes, row after row; imputation fills them column
        # by column after the read.
        codes = bytearray()
        ids = []
        seen_ids = set()
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"row {lineno}: expected {len(header)} cells, found {len(cells)}"
                )
            picked = pick(cells)
            joined = ",".join(picked)
            if len(joined) == width and not (
                    digits := joined.encode("ascii", "replace")[::2]).translate(None, ok):
                row = digits.translate(value)
            else:
                try:
                    row = bytes(map(known.__getitem__, picked))
                except KeyError:
                    row = _checked_cells(picked, columns, lineno, lo, hi, miss)
                    known.update(zip(picked, row))
            rid = cells[id_pos] if id_pos is not None else str(len(seen_ids))
            if rid in seen_ids:
                raise ParseError(f"row {lineno}: duplicate id {rid!r}")
            seen_ids.add(rid)
            # A dropped row has had its cells and id checked; it is not held.
            if drop and _MISSING_BYTE in row:
                continue
            ids.append(rid)
            codes.extend(row)
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None

    if not drop:
        _impute_codes(codes, columns, lo, hi)

    # No rows, which ResponseTable.__getattr__ builds on first read: the
    # codes as bytes, not the bytearray, and the proof score_profiles
    # requires: each kept cell of these columns, in this order, passed the
    # per-cell check for [lo, hi] and is not the missing code (dropped, or
    # imputed with an observed answer). Not fields, so equality, hashing and
    # repr ignore them and dataclasses.replace drops them.
    table = object.__new__(ResponseTable)
    vars(table).update(ids=tuple(ids), columns=columns, id_name=id_name,
                       _codes=bytes(codes), _proven=(columns, lo, hi))
    report = ParseReport(
        rows_read=len(seen_ids),
        rows_kept=len(ids),
        rows_dropped=len(seen_ids) - len(ids),
    )
    return ParseResult(table=table, report=report)


def _lines(text):
    """The lines of ``text``, each ending at "\\n" and keeping it (the last
    may have none), as iterating ``io.StringIO(text)`` yields them: each
    block given to StringIO starts a line, and none holds the whole text.
    ``str.splitlines`` would also split on "\\r", U+2028 and others."""
    start, find = 0, text.find
    while start < len(text):
        end = find("\n", start + _BLOCK) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def _checked_cells(cells, columns, lineno, lo, hi, miss):
    """Convert one row's schema cells with int() and the range check to
    bytes, a missing answer as _MISSING_BYTE, raising for the first bad
    cell."""
    row = []
    for col, cell in zip(columns, cells):
        try:
            v = int(cell)
        except ValueError:
            raise ParseError(
                f"row {lineno}, column {col!r}: non-integer value {cell!r}"
            ) from None
        if not (lo <= v <= hi or v == miss):
            raise ParseError(
                f"row {lineno}, column {col!r}: value {v} outside [{lo}, {hi}] "
                f"and not the missing code {miss}"
            )
        row.append(_MISSING_BYTE if v == miss else v)
    return bytes(row)


def _impute_codes(codes, columns, lo, hi):
    """Replace every missing answer (_MISSING_BYTE) of the bytearray
    ``codes``, whose rows are len(columns) codes each, in place with its
    column's most frequent observed code (ties to the lowest). Column j is
    the stride codes[j::m], whose codes bytes.count counts at C level
    without transposing."""
    m = len(columns)
    for j, col in enumerate(columns):
        cells = codes[j::m]
        if _MISSING_BYTE in cells:
            counts = list(map(cells.count, range(lo, hi + 1)))
            top = max(counts)
            if not top:
                raise ParseError(f"column {col!r}: every value is missing, cannot impute")
            codes[j::m] = cells.replace(bytes([_MISSING_BYTE]), bytes([lo + counts.index(top)]))


def score_profile(values, schema: SurveySchema) -> TraitProfile:
    """Sum answers into per-dimension raw scores (reversing negative items)
    and attach their percentages, which sum to 100. All-zero raw scores
    raise DegenerateProfileError."""
    values = tuple(values)
    if len(values) != len(schema.items):
        raise AlignmentError(
            f"{len(values)} answers for {len(schema.items)} schema items"
        )
    lo, hi = schema.likert_min, schema.likert_max
    for item, v in zip(schema.items, values):
        if not isinstance(v, int) or not lo <= v <= hi:
            raise ValueError(
                f"item {item.column!r}: answer {v!r} outside the Likert range "
                f"[{lo}, {hi}] (impute or drop missing values before scoring)"
            )
    raw = dict(zip(schema.dimensions, [
        sum(pos(values)) + reversal - sum(neg(values))
        for pos, neg, reversal in schema._score_plan
    ]))
    total = float(sum(raw.values()))
    if total == 0:
        raise DegenerateProfileError(_DEGENERATE)
    return TraitProfile(raw=raw, percent={d: 100.0 * v / total for d, v in raw.items()})


def score_profiles(table: ResponseTable, schema: SurveySchema):
    """Score every row of a table that ``parse_responses`` returned under a
    schema with this schema's columns, in order, and Likert range. Returns
    ``(raw, percent)``, each a dict from dimension to a list with one value
    per row, equal to what ``score_profile`` gives row by row (``float.hex``
    for percentages).

    The parse's proof stands for ``score_profile``'s check, so no row is
    checked again. Any other input, such as a list of rows or a table built
    by hand or with ``dataclasses.replace``, raises ValueError: score such
    rows with ``score_profile``. A row whose raw scores are all zero raises
    DegenerateProfileError naming the row by its id.

    The raw scores follow score_profile's rule in lanes (SIMD within a
    register). The lanes are read from the byte table the parse left on
    the table, or, if its rows were read first (by a fit), from one built
    from them and freed before the lanes are read back; no row tuple is
    built. Each column of the byte table is read as one int with a
    ``_lane_width(schema)``-byte lane per row. A dimension's raw scores are
    its reversal constant in every lane, plus its positive columns, minus
    its negative ones. Big-int arithmetic is exact, so an intermediate may
    carry across lanes; each final value fits its lane."""
    if getattr(table, "_proven", None) != (schema.columns, schema.likert_min,
                                           schema.likert_max):
        raise ValueError(
            f"score_profiles needs a table parse_responses returned under schema "
            f"{schema.name!r} (its columns and Likert range); score other rows "
            f"with score_profile")
    n, m = table.n, len(schema.columns)
    w = _lane_width(schema)
    # A lane's low byte, as int.from_bytes and the cast read it.
    low = 0 if sys.byteorder == "little" else w - 1

    def lanes(cells):
        """The n byte codes ``cells`` as one int, one w-byte lane each."""
        wide = bytearray(w * n)
        wide[low::w] = cells
        return int.from_bytes(wide, sys.byteorder)

    def values(lane_sum):
        return memoryview(lane_sum.to_bytes(w * n, sys.byteorder)).cast(
            _LANE_FORMATS[w]).tolist()

    # The parse proved every code an int in [likert_min, likert_max], and
    # SurveySchema bounds likert_max below 255, so each fits a byte.
    codes = getattr(table, "_codes", None)
    if codes is None:
        codes = bytearray(chain.from_iterable(table.rows))
    ones = lanes(bytes([1]) * n)
    sums = {d: reversal * ones
            for d, (_, _, reversal) in zip(schema.dimensions, schema._score_plan)}
    for j, item in enumerate(schema.items):
        column = lanes(codes[j::m])
        sums[item.dimension] += column if item.keying == POSITIVE else -column
    del codes
    totals = values(sum(sums.values()))
    if 0 in totals:
        raise DegenerateProfileError(f"row {table.ids[totals.index(0)]!r}: {_DEGENERATE}")
    raw = {d: values(lane_sum) for d, lane_sum in sums.items()}
    percent = {d: [100.0 * v / total for v, total in zip(col, totals)]
               for d, col in raw.items()}
    return raw, percent


def _lane_width(schema: SurveySchema) -> int:
    """The smallest lane width, in bytes, that holds len(columns) *
    likert_max: each raw score and each row's total is at most that."""
    top = len(schema.columns) * schema.likert_max
    return next(w for w in _LANE_FORMATS if top < 256 ** w)


def generate_synthetic(n: int, schema: SurveySchema, weights=None, seed: int = 0,
                       noise: float = 0.0) -> ResponseTable:
    """Draw n respondents, each with a latent dominant dimension sampled from
    the mixture ``weights`` (None for uniform, else a sequence with one
    weight per schema dimension, in order), answering that dimension's
    positive items at likert_max and its negative items at likert_min (and
    the converse on every other dimension). With noise > 0, each answer is replaced by a uniform Likert
    draw with that probability. Deterministic for a given seed. n must be a
    plain int in [1, 10**6], seed one in [0, 2**64), as FitConfig requires.
    """
    check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 10**6:  # built in memory: about 0.7 MB per 1000 noisy ocean50 rows
        raise ValueError(f"n must be <= 1000000, got {n}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    FitConfig(k=1, seed=seed)  # refuses a bad seed in FitConfig's words
    dims = schema.dimensions
    if weights is None:
        ws = [1.0 / len(dims)] * len(dims)
    else:
        ws = [float(w) for w in weights]
        if len(ws) != len(dims):
            raise ValueError(f"{len(ws)} mixture weights for {len(dims)} dimensions")
    if not all(math.isfinite(w) for w in ws):
        raise ValueError(f"mixture weights must be finite numbers, got {ws}")
    if any(w < 0 for w in ws):
        raise ValueError("mixture weights must be non-negative")
    if abs(math.fsum(ws) - 1.0) > 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {math.fsum(ws)}")

    # A respondent answers the dominant dimension's items in their keyed
    # direction and every other item against it, so the noise-free answers
    # depend only on the dominant dimension: one tuple per dimension.
    lo, hi = schema.likert_min, schema.likert_max
    answers = [tuple(hi if (item.dimension == d) == (item.keying == POSITIVE) else lo
                     for item in schema.items)
               for d in dims]
    # The dominant dimension is the first whose cumulative weight exceeds
    # the draw, else the last.
    cumulative = list(accumulate(ws))
    last = len(dims) - 1
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = answers[min(bisect_right(cumulative, rng.random()), last)]
        if noise > 0.0:  # from a list, so the tuple is allocated at its size
            row = tuple([rng.randint(lo, hi) if rng.random() < noise else v for v in row])
        rows.append(row)
    return ResponseTable(
        ids=tuple(map(str, range(n))),
        columns=schema.columns,
        rows=tuple(rows),
        id_name="respondent_id",
    )
