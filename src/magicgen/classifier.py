"""Dudeney/Trigg classification of order-4 normal magic squares.

The values 1..16 split into 8 complement pairs summing to 17.  Drawing a
link between the two grid positions of each pair gives a diagram whose
orientation-independent shape is the square's Dudeney type.  The
classifier canonicalizes that pair geometry (minimum encoding over the 8
grid symmetries), discovers the classes from a full catalog through
groups._grouped, the grouping pass behind every partition of squares,
and names them from DUDENEY_CLASSES, the one table of the census:

* Each row is a numeral, its population and its Trigg letter; the
  catalog total, the class count and TRIGG_LETTERS follow from it.
* In numeral order, each row names the next class of its population in
  the grouping pass's order, that of their smallest member's canonical
  text encoding.  Downstream results do not depend on that choice.
* Class VI splits VI''/VI' by whether some broken diagonal sums to 34.
  magic_broken_diagonal_counts counts those diagonals in the sums
  squares._line_sums takes for a whole catalog.

The census is the one classification path: DudeneyCensus files each
square's label under its cells once, and pipeline.classify_catalog,
trigg_members and trigg_populations all read that table.  The paper's
supervised classifier is reproduced, with held-out figures, in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from .groups import EncodingOrder, _grouped, in_encoding_order
from .squares import Square, _line_sums, _tables, encode_square, is_normal_magic, magic_constant

PairingSignature = tuple[tuple[int, int], ...]

# Dudeney's (1917) census: numeral, population, Trigg letter, in numeral
# order.  Trigg's letters group the classes by population.
DUDENEY_CLASSES = (
    ("I", 384, "A"), ("II", 384, "A"), ("III", 384, "A"),
    ("IV", 768, "B"), ("V", 768, "B"), ("VI", 2432, "B"),
    ("VII", 448, "C"), ("VIII", 448, "C"), ("IX", 448, "C"), ("X", 448, "C"),
    ("XI", 64, "D"), ("XII", 64, "D"),
)
TRIGG_LETTERS = tuple(dict.fromkeys(letter for _, _, letter in DUDENEY_CLASSES))

VI_SPLIT_PLAIN = "VI'"
VI_SPLIT_BROKEN = "VI''"


@dataclass(frozen=True)
class ClassLabel:
    """Dudeney numeral, Trigg letter, and the VI sub-split when it applies."""

    dudeney: str
    trigg: str
    vi_split: str | None = None


# Per grid symmetry, the sorted image of every cell pair (a, b), indexed
# a * 16 + b, built on the first signature; a signature is the least sorted
# image of the 8 pairs (v, 17 - v).  The 8 symmetries are closed under
# inverses, so reading their cell maps as "cell i moves to map[i]" gives
# the same 8 images.
@lru_cache(maxsize=None)
def _pair_images4() -> tuple[list[tuple[int, int]], ...]:
    return tuple(
        [tuple(sorted((m[a], m[b]))) for a in range(16) for b in range(16)]
        for m in (image(range(16)) for image in _tables(4).dihedral)
    )


def signature(square: Square) -> PairingSignature:
    """Canonical complement-pair geometry, invariant under the 8 grid symmetries."""
    if square.order != 4:
        raise ValueError(f"signatures are defined for order 4, got {square.order}")
    at = square.cells.index
    pairs = itemgetter(*[at(v) * 16 + at(17 - v) for v in range(1, 9)])
    return min(tuple(sorted(pairs(images))) for images in _pair_images4())


def magic_broken_diagonal_counts(squares: Sequence[Square]) -> list[int]:
    """Per order-4 square, how many broken diagonals sum to the magic constant,
    counted in the diagonal sums _line_sums takes for every square at once."""
    sums = _line_sums([sq.cells for sq in squares], _tables(4).broken_getters)
    mu = magic_constant(4)
    return [diagonals.count(mu) for diagonals in sums]


@dataclass(frozen=True)
class SignatureClass:
    """One signature's squares, in ascending encoding order."""

    signature: PairingSignature
    members: tuple[Square, ...]

    @property
    def population(self) -> int:
        return len(self.members)


def discover_classes(catalog: Iterable[Square]) -> tuple[SignatureClass, ...]:
    """Partition a complete order-4 catalog by signature.

    Returns the classes in ascending order of their first (smallest)
    member's encoding, each listing its members in encoding order.  Raises
    if the catalog is not the full census: a repeated or non-magic square,
    or other than 7040 squares in 12 classes.

    A signature is a minimum over the grid symmetries, so it is computed
    once per dihedral orbit and given to all 8 images.  Those images are
    magic whenever the square is, so checking the squares that get labelled
    checks them all.
    """

    def label(sq: Square) -> tuple[PairingSignature, list[tuple[int, ...]]]:
        if not is_normal_magic(sq):
            raise ValueError(f"catalog holds a non-magic square {encode_square(sq)}")
        return signature(sq), [image(sq.cells) for image in _tables(4).dihedral]

    buckets = _grouped(catalog, label, "catalog")
    total = sum(map(len, buckets.values()))
    expected = sum(population for _, population, _ in DUDENEY_CLASSES)
    if total != expected:
        raise ValueError(f"incomplete catalog: {total} squares, expected {expected}")
    if len(buckets) != len(DUDENEY_CLASSES):
        raise ValueError(
            f"expected {len(DUDENEY_CLASSES)} signature classes, found {len(buckets)}"
        )
    return tuple(SignatureClass(sig, tuple(members)) for sig, members in buckets.items())


def assign_labels(
    classes: Sequence[SignatureClass],
) -> dict[PairingSignature, ClassLabel]:
    """Name the discovered classes: each DUDENEY_CLASSES row, in numeral
    order, takes the next class of its population in input order
    (discover_classes' smallest-member order, as the numerals require)."""
    observed = sorted(c.population for c in classes)
    if observed != sorted(population for _, population, _ in DUDENEY_CLASSES):
        raise ValueError(
            f"population multiset {observed} does not match the Dudeney census"
        )
    by_pop: dict[int, list[SignatureClass]] = {}
    for cls in classes:
        by_pop.setdefault(cls.population, []).append(cls)
    return {
        by_pop[population].pop(0).signature: ClassLabel(numeral, letter)
        for numeral, population, letter in DUDENEY_CLASSES
    }


def with_vi_split(label: ClassLabel, broken_diagonals: int) -> ClassLabel:
    """Attach VI'' (some broken diagonal sums to 34) or VI' to a class-VI label."""
    if label.dudeney != "VI":
        return label
    split = VI_SPLIT_BROKEN if broken_diagonals else VI_SPLIT_PLAIN
    return ClassLabel(label.dudeney, label.trigg, split)


@dataclass(frozen=True)
class DudeneyCensus:
    """Discovered classes plus labels for the complete order-4 catalog.

    catalog holds the classes' squares in ascending encoding order: the
    one sort by encoding a census makes.  label_by_cells, built once from
    classes and labels, gives each square's label by its cells; it is the
    one per-square label table, which trigg_members, trigg_populations and
    pipeline.classify_catalog all read.
    """

    classes: tuple[SignatureClass, ...]
    labels: dict[PairingSignature, ClassLabel]
    catalog: EncodingOrder
    label_by_cells: dict[tuple[int, ...], ClassLabel] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        label_by_cells = {
            sq.cells: self.labels[cls.signature] for cls in self.classes for sq in cls.members
        }
        object.__setattr__(self, "label_by_cells", label_by_cells)

    @classmethod
    def from_catalog(cls, catalog: Iterable[Square]) -> "DudeneyCensus":
        ordered = in_encoding_order(catalog)
        classes = discover_classes(ordered)
        return cls(classes, assign_labels(classes), ordered)

    def trigg_members(self, letter: str) -> EncodingOrder:
        """The Trigg class's squares, in ascending encoding order."""
        label = self.label_by_cells
        return EncodingOrder(sq for sq in self.catalog if label[sq.cells].trigg == letter)

    def trigg_populations(self) -> dict[str, int]:
        return dict(Counter(label.trigg for label in self.label_by_cells.values()))
