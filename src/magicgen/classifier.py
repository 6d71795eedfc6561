"""Dudeney/Trigg classification of order-4 normal magic squares.

The values 1..16 split into 8 complement pairs summing to 17.  Drawing a
link between the two grid positions of each pair gives a diagram whose
orientation-independent shape is the square's Dudeney type; exactly 12
shapes occur across the 7040 squares.  The classifier canonicalizes that
pair geometry (minimum encoding over the 8 grid symmetries), discovers
the 12 classes from a full catalog, and names them:

* Trigg letters follow class population: the three 384-classes are A,
  {768, 768, 2432} are B, the four 448-classes are C, the two 64-classes
  are D.
* Dudeney numerals I..XII order population groups as above; within a
  same-population group, classes are sorted by their smallest member's
  canonical text encoding.  Downstream results do not depend on the
  within-group order.
* Class VI (the 2432 class) splits VI''/VI' by whether some broken
  diagonal sums to 34.

The census is the one classification path: pipeline.classify_catalog
labels each square by the class that holds it.  The paper's supervised
classifier is reproduced, with held-out figures, in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .squares import (
    Square,
    broken_diagonal_sums,
    encode_square,
    grid_symmetries,
    is_normal_magic,
    magic_constant,
)

PairingSignature = tuple[tuple[int, int], ...]

ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")

TRIGG_OF_DUDENEY: dict[str, str] = (
    {r: "A" for r in ROMAN[:3]}
    | {r: "B" for r in ROMAN[3:6]}
    | {r: "C" for r in ROMAN[6:10]}
    | {r: "D" for r in ROMAN[10:]}
)

# Class populations as first counted by Dudeney (1917).
DUDENEY_POPULATIONS = (384, 384, 384, 768, 768, 2432, 448, 448, 448, 448, 64, 64)

VI_SPLIT_PLAIN = "VI'"
VI_SPLIT_BROKEN = "VI''"


@dataclass(frozen=True)
class ClassLabel:
    """Dudeney numeral, Trigg letter, and the VI sub-split when it applies."""

    dudeney: str
    trigg: str
    vi_split: str | None = None


# Per grid symmetry, the sorted image of every cell pair (a, b), indexed
# a * 16 + b; a signature is the least sorted image of the 8 pairs
# (v, 17 - v).  The 8 symmetries are closed under inverses, so reading
# their cell maps as "cell i moves to map[i]" gives the same 8 images.
_PAIR_IMAGES4 = tuple(
    [tuple(sorted((m[a], m[b]))) for a in range(16) for b in range(16)]
    for m in (t.cell_map() for t in grid_symmetries(4))
)


def signature(square: Square) -> PairingSignature:
    """Canonical complement-pair geometry, invariant under the 8 grid symmetries."""
    if square.order != 4:
        raise ValueError(f"signatures are defined for order 4, got {square.order}")
    at = square.cells.index
    pairs = itemgetter(*[at(v) * 16 + at(17 - v) for v in range(1, 9)])
    return min(tuple(sorted(pairs(images))) for images in _PAIR_IMAGES4)


def count_magic_broken_diagonals(square: Square) -> int:
    """How many of the square's broken diagonals sum to the magic constant."""
    mu = magic_constant(square.order)
    return sum(1 for s in broken_diagonal_sums(square) if s == mu)


@dataclass(frozen=True)
class SignatureClass:
    signature: PairingSignature
    members: tuple[Square, ...]

    @property
    def population(self) -> int:
        return len(self.members)

    @cached_property
    def min_encoding(self) -> str:
        return min(encode_square(sq) for sq in self.members)


def discover_classes(catalog: Iterable[Square]) -> tuple[SignatureClass, ...]:
    """Partition a complete order-4 catalog by signature.

    Returns the classes sorted by their smallest member encoding.  Raises
    if the catalog is not the full census: a repeated or non-magic square,
    or other than 7040 squares in 12 classes.

    A signature is a minimum over the grid symmetries, so it is computed
    once per dihedral orbit and given to all 8 images.
    """
    buckets: dict[PairingSignature, list[Square]] = {}
    seen: set[tuple[int, ...]] = set()
    signature_of: dict[tuple[int, ...], PairingSignature] = {}
    images = [itemgetter(*t.cell_map()) for t in grid_symmetries(4)]
    for sq in catalog:
        if sq.cells in seen:
            raise ValueError(f"catalog repeats the square {encode_square(sq)}")
        if not is_normal_magic(sq):
            raise ValueError(f"catalog holds a non-magic square {encode_square(sq)}")
        seen.add(sq.cells)
        sig = signature_of.get(sq.cells)
        if sig is None:
            sig = signature(sq)
            signature_of.update((image(sq.cells), sig) for image in images)
        buckets.setdefault(sig, []).append(sq)
    total = len(seen)
    if total != 7040:
        raise ValueError(f"incomplete catalog: {total} squares, expected 7040")
    if len(buckets) != 12:
        raise ValueError(f"expected 12 signature classes, found {len(buckets)}")
    classes = [SignatureClass(sig, tuple(members)) for sig, members in buckets.items()]
    classes.sort(key=lambda c: c.min_encoding)
    return tuple(classes)


def assign_labels(
    classes: Sequence[SignatureClass],
) -> dict[PairingSignature, ClassLabel]:
    """Name the 12 discovered classes (population groups, then smallest member)."""
    observed = sorted(c.population for c in classes)
    if observed != sorted(DUDENEY_POPULATIONS):
        raise ValueError(
            f"population multiset {observed} does not match the Dudeney census"
        )
    by_pop: dict[int, list[SignatureClass]] = {}
    for cls in classes:
        by_pop.setdefault(cls.population, []).append(cls)
    for group in by_pop.values():
        group.sort(key=lambda c: c.min_encoding)

    ordered = by_pop[384] + by_pop[768] + by_pop[2432] + by_pop[448] + by_pop[64]
    labels: dict[PairingSignature, ClassLabel] = {}
    for numeral, cls in zip(ROMAN, ordered):
        labels[cls.signature] = ClassLabel(numeral, TRIGG_OF_DUDENEY[numeral])
    return labels


def with_vi_split(label: ClassLabel, broken_diagonals: int) -> ClassLabel:
    """Attach VI'' (some broken diagonal sums to 34) or VI' to a class-VI label."""
    if label.dudeney != "VI":
        return label
    split = VI_SPLIT_BROKEN if broken_diagonals else VI_SPLIT_PLAIN
    return ClassLabel(label.dudeney, label.trigg, split)


class DudeneyCensus:
    """Discovered classes plus labels for the complete order-4 catalog."""

    def __init__(
        self,
        classes: tuple[SignatureClass, ...],
        labels: dict[PairingSignature, ClassLabel],
    ) -> None:
        self.classes = classes
        self.labels = labels

    @classmethod
    def from_catalog(cls, catalog: Iterable[Square]) -> "DudeneyCensus":
        classes = discover_classes(catalog)
        return cls(classes, assign_labels(classes))

    def trigg_members(self, letter: str) -> tuple[Square, ...]:
        members: list[Square] = []
        for cls in self.classes:
            if self.labels[cls.signature].trigg == letter:
                members.extend(cls.members)
        return tuple(members)

    def trigg_populations(self) -> dict[str, int]:
        pops: dict[str, int] = {}
        for cls in self.classes:
            letter = self.labels[cls.signature].trigg
            pops[letter] = pops.get(letter, 0) + cls.population
        return pops

