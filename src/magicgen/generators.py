"""Orbit decomposition of square classes and the generator census.

Each orbit's generator is its member with the smallest encode_square
text, and a partition lists its orbits in generator order.  Both
decompositions below are one grouping pass that files the subject's
squares under a label in ascending encoding order, so each orbit's first
square is its generator.  They differ only in the label:

* decompose(): orbits of the class's own symmetry group (the triples
  preserving the class as a set).  Self-contained and self-certifying,
  but finer than the published census.

* symmetric_closure_partition(): equivalence classes of "some candidate
  (row perm, col perm, transpose) triple maps one square to the other",
  labelled by groups.canonical_key, the closed-form smallest image.  It
  reproduces the published generator counts exactly (95 for order 4,
  with Trigg class histograms A: 3x384, B: 12x192 + 4x96 + 10x64 +
  20x32, C: 12x64 + 32x32, D: 2x64), so the census headlines it.
  census() checks that no such class spans two Trigg classes: the
  generators' keys must be distinct across all four.

Both are OrbitPartitions: disjoint orbits covering the subject, each led
by its encoding minimum.  The closure view's generators are pairwise
non-symmetric even under the full universe of triples.

class_census() computes both for one class of squares: census() runs it
on each Trigg class, and the pipeline on the whole order-3 catalog.  Both
then compare the closure histograms with the published ones through
compared_census().
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .classifier import DudeneyCensus
from .groups import Orbit, TransformationGroup, canonical_key, symmetry_group
from .squares import Square, encode_square, grid_symmetries

# Published census targets: orbit-size histogram under symmetric closure
# per class letter (the four order-4 Trigg classes, and "order3", the
# whole order-3 catalog).
REFERENCE_HISTOGRAMS: dict[str, dict[int, int]] = {
    "A": {384: 3},
    "B": {192: 12, 96: 4, 64: 10, 32: 20},
    "C": {64: 12, 32: 32},
    "D": {64: 2},
    "order3": {8: 1},
}


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint orbits covering a subject set, one generator per orbit."""

    subject_name: str
    orbits: tuple[Orbit, ...]

    @property
    def size_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(o.size for o in self.orbits).items(), reverse=True))

    @property
    def total(self) -> int:
        return sum(o.size for o in self.orbits)

    def generators(self) -> tuple[Square, ...]:
        """Every orbit's generator; _grouped makes orbits in generator order."""
        return tuple(o.generator for o in self.orbits)


def _grouped(
    subject: Iterable[Square],
    label: Callable[[Square], Hashable],
    subject_name: str,
) -> OrbitPartition:
    """The subject's squares grouped by label, one orbit per label.

    Squares are taken in ascending encoding order, so each orbit's first
    square is its generator and orbits come in generator order.  A
    repeated square raises ValueError.
    """
    parts: dict[Hashable, list[Square]] = {}
    previous = None
    for sq in sorted(subject, key=encode_square):
        if sq.cells == previous:
            raise ValueError(f"subject repeats the square {encode_square(sq)}")
        previous = sq.cells
        parts.setdefault(label(sq), []).append(sq)
    if not parts:
        raise ValueError("subject is empty")
    orbits = (Orbit(frozenset(members), members[0]) for members in parts.values())
    return OrbitPartition(subject_name, tuple(orbits))


def decompose(
    subject: Iterable[Square],
    group: TransformationGroup,
    subject_name: str = "",
) -> OrbitPartition:
    """Partition the subject into orbits of its symmetry group.

    The first square of an orbit met in encoding order is mapped through
    every group member, and its images are labelled with it.  The subject
    must be exactly the set the group was built over.
    """
    label_of: dict[tuple[int, ...], tuple[int, ...]] = {}

    def label(sq: Square) -> tuple[int, ...]:
        src = sq.cells
        if src not in label_of:
            if src not in group.subject:
                raise ValueError("subject square missing from the group's subject set")
            images = {image(src) for image in group._images}
            if not images <= group.subject:
                raise ValueError("a group image leaves the subject")
            label_of.update(dict.fromkeys(images, src))
        return label_of[src]

    partition = _grouped(subject, label, subject_name)
    if partition.total != len(group.subject):
        raise ValueError(
            f"subject has {partition.total} squares, "
            f"group was built over {len(group.subject)}"
        )
    return partition


def symmetric_closure_partition(
    subject: Iterable[Square],
    subject_name: str = "",
) -> OrbitPartition:
    """Partition the subject into classes of mutually symmetric squares.

    Squares are labelled by canonical_key.  Whether a magic image escapes
    the subject is not checked here: census() checks that across the
    Trigg classes.

    Keys are computed once per dihedral orbit: a square's key is every
    triple image's key, so it is given to all grid_symmetries images.
    """
    key_of: dict[tuple[int, ...], str] = {}
    images: dict[int, list[itemgetter]] = {}

    def label(sq: Square) -> str:
        key = key_of.get(sq.cells)
        if key is None:
            key = canonical_key(sq)
            n = sq.order
            if n not in images:
                images[n] = [itemgetter(*t.cell_map()) for t in grid_symmetries(n)]
            key_of.update((image(sq.cells), key) for image in images[n])
        return key

    return _grouped(subject, label, subject_name)


@dataclass(frozen=True)
class Discrepancy:
    """A difference between the computed census and the published targets."""

    subject: str
    field: str
    expected: str
    computed: str


@dataclass(frozen=True)
class ClassCensus:
    """Everything computed for one Trigg class."""

    letter: str
    population: int
    group: TransformationGroup
    group_partition: OrbitPartition
    closure_partition: OrbitPartition

    @property
    def group_order(self) -> int:
        return len(self.group)

    @property
    def pair_view_order(self) -> int:
        return len(self.group.pair_view())

    def subgroup_split(self) -> tuple[tuple[str, int, int], ...]:
        """Named subsets per closure orbit size, e.g. B-1..B-4 (size desc)."""
        hist = self.closure_partition.size_histogram
        if len(hist) <= 1:
            return ()
        return tuple(
            (f"{self.letter}-{rank}", size, count)
            for rank, (size, count) in enumerate(hist.items(), start=1)
        )


@dataclass(frozen=True)
class GeneratorCensus:
    classes: tuple[ClassCensus, ...]
    discrepancies: tuple[Discrepancy, ...]

    @property
    def total_generators(self) -> int:
        return sum(len(c.closure_partition.orbits) for c in self.classes)



def class_census(letter: str, members: Sequence[Square], name: str) -> ClassCensus:
    """Symmetry group and both orbit partitions of one class of squares."""
    group = symmetry_group(members)
    group_part = decompose(members, group, name)
    closure_part = symmetric_closure_partition(members, name)
    return ClassCensus(letter, len(members), group, group_part, closure_part)


def compared_census(classes: Sequence[ClassCensus]) -> GeneratorCensus:
    """The classes as a GeneratorCensus, checked against the published census.

    A closure histogram that differs from the REFERENCE_HISTOGRAMS entry
    for its class letter is recorded as a discrepancy.
    """
    discrepancies = []
    for cls in classes:
        expected = REFERENCE_HISTOGRAMS[cls.letter]
        got = cls.closure_partition.size_histogram
        if got != expected:
            name = cls.closure_partition.subject_name
            discrepancies.append(
                Discrepancy(name, "orbit_histogram", repr(expected), repr(got))
            )
    return GeneratorCensus(tuple(classes), tuple(discrepancies))


def census(dudeney: DudeneyCensus) -> GeneratorCensus:
    """Per-Trigg-class groups and decompositions for the full order-4 census."""
    classes = [
        class_census(letter, dudeney.trigg_members(letter), f"trigg_{letter}")
        for letter in "ABCD"
    ]
    # The catalog behind a DudeneyCensus is complete, so every magic image
    # of a member lies in some Trigg class; it lies in another class iff
    # two classes hold generators with one key.
    owner: dict[str, str] = {}
    for cls in classes:
        for orb in cls.closure_partition.orbits:
            prior = owner.setdefault(canonical_key(orb.generator), cls.letter)
            if prior != cls.letter:
                raise ValueError(
                    f"symmetric squares lie in Trigg classes {prior} and "
                    f"{cls.letter}: {encode_square(orb.generator)}"
                )
    return compared_census(classes)
