"""Attributes, prototypes and the dissimilarity between them.

Every attribute is categorical, and there is one measure, simple matching,
which BitEncoder defines. It is symmetric in the value vectors, invariant
under bijective recoding of category codes, and deterministic.
"""

from dataclasses import dataclass

from .errors import AlignmentError

CATEGORICAL = "categorical"


@dataclass(frozen=True)
class AttributeSpec:
    """Column metadata: a name and the category code list. An attribute's
    position in its dataset is its index, and every attribute is
    categorical, so no field records either.

    ``categories`` holds the attribute's category codes in first-appearance
    order; codes are small non-negative integers, distinct within the list.
    """

    name: str = ""
    categories: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"attribute {self.name!r}: duplicate category codes")
        for code in self.categories:
            if not isinstance(code, int) or isinstance(code, bool) or code < 0:
                raise ValueError(
                    f"attribute {self.name!r}: category codes must be "
                    f"non-negative integers, got {code!r}"
                )


@dataclass(frozen=True)
class Prototype:
    """A cluster representative: one category code per attribute."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


def _vector(x):
    return x.values if isinstance(x, Prototype) else tuple(x)


def check_inputs(attrs, vectors):
    """Raise AlignmentError unless every vector holds one value per
    attribute."""
    m = len(attrs)
    for v in vectors:
        if len(v) != m:
            raise AlignmentError(f"value length {len(v)} does not match {m} attributes")


# Byte c is 1 << c for c < 8: bytes(row).translate(ONEHOT) one-hot codes a
# row of small codes one byte per attribute.
ONEHOT = bytes(1 << c if c < 8 else 0 for c in range(256))


class BitEncoder:
    """Value vectors as Python ints with one bit per (attribute, category
    code): two vectors agree on as many attributes as their AND has set bits.
    This defines the measure. The simple-matching (Hamming) distance of two
    vectors of m codes is the number of attributes on which they disagree,
    ``m - (encode(a) & encode(b)).bit_count()`` under one encoder.

    Two layouts give the same distances. ``BitEncoder(m, categories)``, when
    every attribute's categories are ints in [0, 8) (Likert answers and the
    usual missing code 0), is *bytewise*: code c of attribute j is bit
    ``8j + c``, so a mask's byte j is the one-hot byte of its code and
    encode_rows builds every mask at C level. Otherwise, and for
    ``BitEncoder(m)``, a code takes the next free bit the first time it is
    encoded on its attribute. Either way a code the encoder has not seen
    (such as one a mode holds and no row does) takes a fresh bit on first
    encounter, so every code keeps the meaning it has under ``==``: equal
    codes share a bit and different codes never do. Codes must be hashable.
    Bit ``p`` is ``1 << p``; ``attr_of[p]`` and ``code_of[p]`` name its
    attribute and code, and ``positions[j]`` lists the bit positions of
    attribute j's codes.
    """

    __slots__ = ("_bits", "attr_of", "code_of", "positions", "bytewise")

    def __init__(self, m, categories=None):
        self.bytewise = categories is not None and all(
            type(c) is int and 0 <= c < 8 for cats in categories for c in cats)
        if self.bytewise:
            self._bits = [{c: 1 << (8 * j + c) for c in cats} for j, cats in enumerate(categories)]
            self.attr_of = [j for j in range(m) for _ in range(8)]
            self.code_of = list(range(8)) * m
            self.positions = [[8 * j + c for c in cats] for j, cats in enumerate(categories)]
        else:
            self._bits = [{} for _ in range(m)]
            self.attr_of = []
            self.code_of = []
            self.positions = [[] for _ in range(m)]

    def bit(self, j, code) -> int:
        """The bit of ``code`` on attribute ``j``."""
        bits = self._bits[j]
        b = bits.get(code)
        if b is None:
            p = len(self.code_of)
            b = bits[code] = 1 << p
            self.attr_of.append(j)
            self.code_of.append(code)
            self.positions[j].append(p)
        return b

    def encode(self, vals) -> int:
        """The mask of a vector of one code per attribute."""
        try:
            return sum(map(dict.__getitem__, self._bits, vals))
        except KeyError:
            return sum(self.bit(j, v) for j, v in enumerate(vals))

    def encode_rows(self, rows) -> list:
        """The masks of rows whose every code is one of its attribute's
        categories, as encode would give them."""
        if self.bytewise:
            try:
                return [int.from_bytes(bytes(row).translate(ONEHOT), "little") for row in rows]
            except TypeError:  # a cell that equals its code but is no int, such as 1.0
                pass
        return list(map(self.encode, rows))


def simple_matching(a, b, attrs) -> int:
    """Number of positions where the two vectors disagree."""
    va, vb = _vector(a), _vector(b)
    check_inputs(attrs, (va, vb))
    encode = BitEncoder(len(attrs)).encode
    return len(attrs) - (encode(va) & encode(vb)).bit_count()
