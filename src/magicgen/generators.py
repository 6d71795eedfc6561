"""Orbit decomposition of square classes and the generator census.

Each orbit's generator is its member with the smallest encode_square
text, and a partition lists its orbits in generator order.

* decompose(): orbits of the class's own symmetry group (the triples
  preserving the class as a set).  Self-contained and self-certifying,
  but finer than the published census.  It goes through groups._grouped,
  the grouping pass that also files the Dudeney classes: squares come in
  ascending encoding order, so each orbit's first square is its
  generator.

* symmetric_closure_partition(): equivalence classes of "some candidate
  (row perm, col perm, transpose) triple maps one square to the other",
  labelled by groups.canonical_key, the closed-form smallest image.  It
  reproduces the published generator counts exactly (95 for order 4,
  with Trigg class histograms A: 3x384, B: 12x192 + 4x96 + 10x64 +
  20x32, C: 12x64 + 32x32, D: 2x64), so the census headlines it.
  A key names every triple image of its square, so each class is a union
  of whole group orbits: it merges decompose's orbits by their
  generators' keys (190 keys for order 4) and groups no square again.
  census() checks that no such class spans two Trigg classes: the keys
  the partitions were filed under must be distinct across all four.

Both are OrbitPartitions: disjoint orbits covering the subject, each led
by its encoding minimum.  The closure view's generators are pairwise
non-symmetric even under the full universe of triples.

class_census() computes both for one class of squares: census() runs it
on each Trigg class, whose squares the Dudeney census hands over already
in encoding order, and the pipeline on the whole order-3 catalog.  Both
then compare the closure histograms with the published ones through
compared_census().
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Sequence

from .classifier import TRIGG_LETTERS, DudeneyCensus
from .groups import (
    Orbit,
    TransformationGroup,
    _grouped,
    canonical_key,
    symmetry_group,
)
from .squares import Square, encode_square

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
    """Disjoint orbits covering a subject set, one generator per orbit.

    keys holds the label each orbit was filed under, in orbit order: the
    generator's cells for decompose, the canonical_key its group orbits
    merged by for symmetric_closure_partition.  A hand-built one has none.
    """

    subject_name: str
    orbits: tuple[Orbit, ...]
    keys: tuple[Hashable, ...] = ()

    @property
    def size_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(o.size for o in self.orbits).items(), reverse=True))

    @property
    def total(self) -> int:
        return sum(o.size for o in self.orbits)

    def generators(self) -> tuple[Square, ...]:
        """Every orbit's generator; orbits come in generator order."""
        return tuple(o.generator for o in self.orbits)


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
    maps = [itemgetter(*t.cell_map()) for t in group.members]

    def label(sq: Square) -> tuple[tuple[int, ...], set[tuple[int, ...]]]:
        src = sq.cells
        if src not in group.subject:
            raise ValueError("subject square missing from the group's subject set")
        images = {image(src) for image in maps}
        if not images <= group.subject:
            raise ValueError("a group image leaves the subject")
        return src, images

    parts = _grouped(subject, label, "subject")
    if not parts:
        raise ValueError("subject is empty")
    orbits = tuple(Orbit(frozenset(members), members[0]) for members in parts.values())
    partition = OrbitPartition(subject_name, orbits, tuple(parts))
    if partition.total != len(group.subject):
        raise ValueError(
            f"subject has {partition.total} squares, "
            f"group was built over {len(group.subject)}"
        )
    return partition


def symmetric_closure_partition(group_partition: OrbitPartition) -> OrbitPartition:
    """decompose's group orbits merged into classes of mutually symmetric squares.

    A canonical_key names every triple image of its square, so orbits merge
    by their generators' keys.  The first orbit of a class, in generator
    order, leads it; the members are frozenset unions, which reuse the
    orbits' stored hashes.  census() checks across the Trigg classes that
    no magic image escapes the subject.
    """
    merged: dict[str, list[Orbit]] = {}
    for orb in group_partition.orbits:
        merged.setdefault(canonical_key(orb.generator), []).append(orb)
    orbits = (
        Orbit(frozenset().union(*(o.members for o in parts)), parts[0].generator)
        for parts in merged.values()
    )
    return OrbitPartition(group_partition.subject_name, tuple(orbits), tuple(merged))


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
    """Symmetry group and both orbit partitions of one class of squares.

    decompose groups the members once (sorting them by encoding unless
    they come as an EncodingOrder), and the closure classes merge its
    orbits, one canonical_key per group orbit.
    """
    group = symmetry_group(members)
    group_part = decompose(members, group, name)
    closure_part = symmetric_closure_partition(group_part)
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
        for letter in TRIGG_LETTERS
    ]
    # The catalog behind a DudeneyCensus is complete, so every magic image
    # of a member lies in some Trigg class; it lies in another class iff
    # two classes filed closure orbits under one key.
    owner: dict[Hashable, str] = {}
    for cls in classes:
        part = cls.closure_partition
        for key, orb in zip(part.keys, part.orbits):
            prior = owner.setdefault(key, cls.letter)
            if prior != cls.letter:
                raise ValueError(
                    f"symmetric squares lie in Trigg classes {prior} and "
                    f"{cls.letter}: {encode_square(orb.generator)}"
                )
    return compared_census(classes)
