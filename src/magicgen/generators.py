"""Orbit decomposition of square classes and the generator census.

Two decompositions are computed and reported side by side:

* decompose(): orbits of the class's own symmetry group (the triples
  preserving the class as a set).  Self-contained and self-certifying,
  but finer than the published census.

* symmetric_closure_partition(): equivalence classes of "some candidate
  (row perm, col perm, transpose) triple maps one square to the other",
  found by grouping the class on groups.canonical_key, the closed-form
  smallest image.  It reproduces the published generator counts exactly
  (95 for order 4, with Trigg class histograms A: 3x384, B: 12x192 +
  4x96 + 10x64 + 20x32, C: 12x64 + 32x32, D: 2x64), so the census
  headlines it.  census() checks that no such class spans two Trigg
  classes: the generators' keys must be distinct across all four.

Both are OrbitPartitions that pass verify_partition, which checks every
generator pair for symmetry: the closure view's generators are pairwise
non-symmetric even under the full universe.

class_census() computes both for one class of squares: census() runs it
on each Trigg class, and the pipeline on the whole order-3 catalog.  Both
then compare the closure histograms with the published ones through
compared_census().
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classifier import DudeneyCensus
from .groups import (
    Orbit,
    TransformationGroup,
    canonical_key,
    orbit,
    symmetry_group,
)
from .squares import Square, Transformation, encode_square

# Published census targets: orbit-size histogram under symmetric closure
# per class letter (the four order-4 Trigg classes, and "order3", the
# whole order-3 catalog), and the order-4 generator total.
REFERENCE_HISTOGRAMS: dict[str, dict[int, int]] = {
    "A": {384: 3},
    "B": {192: 12, 96: 4, 64: 10, 32: 20},
    "C": {64: 12, 32: 32},
    "D": {64: 2},
    "order3": {8: 1},
}
REFERENCE_TOTAL_GENERATORS = 95


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint orbits covering a subject set, one generator per orbit."""

    subject_name: str
    method: str  # "group" or "closure"
    orbits: tuple[Orbit, ...]

    @property
    def size_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(o.size for o in self.orbits).items(), reverse=True))

    @property
    def total(self) -> int:
        return sum(o.size for o in self.orbits)

    def generators(self) -> tuple[Square, ...]:
        return tuple(sorted((o.generator for o in self.orbits), key=encode_square))


def decompose(
    subject: Iterable[Square],
    group: TransformationGroup,
    subject_name: str = "",
) -> OrbitPartition:
    """Peel the subject into orbits of its symmetry group.

    Repeatedly takes the unassigned square with the smallest encoding,
    expands its group orbit, and removes it; the orbit count does not
    depend on the peeling order (orbits are equivalence classes).
    """
    items = sorted(((encode_square(sq), sq) for sq in subject), key=lambda e: e[0])
    for _, sq in items:
        if sq.cells not in group.subject:
            raise ValueError("subject square missing from the group's subject set")
    if len(items) != len(group.subject):
        raise ValueError(
            f"subject has {len(items)} squares, group was built over {len(group.subject)}"
        )
    orbits: list[Orbit] = []
    assigned: set[tuple[int, ...]] = set()
    for enc, sq in items:
        if sq.cells in assigned:
            continue
        orb = orbit(sq, group)
        if orb.generator.cells != sq.cells:
            raise AssertionError("peeled square is not its orbit's minimum")
        orbits.append(orb)
        assigned.update(m.cells for m in orb.members)
    if len(assigned) != len(items):
        raise ValueError("group orbits left part of the subject uncovered")
    return OrbitPartition(subject_name, "group", tuple(orbits))


def symmetric_closure_partition(
    subject: Iterable[Square],
    subject_name: str = "",
) -> OrbitPartition:
    """Partition the subject into classes of mutually symmetric squares.

    Squares are grouped by canonical_key; each part's generator is its
    smallest-encoding member, and parts come in ascending generator
    encoding.  Whether a magic image escapes the subject is not checked
    here: census() checks that across the Trigg classes.
    """
    parts: dict[str, list[Square]] = {}
    for sq in subject:
        parts.setdefault(canonical_key(sq), []).append(sq)
    if not parts:
        raise ValueError("subject is empty")
    orbits = [
        Orbit(frozenset(members), min(members, key=encode_square))
        for members in parts.values()
    ]
    orbits.sort(key=lambda o: encode_square(o.generator))
    return OrbitPartition(subject_name, "closure", tuple(orbits))


@dataclass(frozen=True)
class PartitionVerdict:
    ok: bool
    problems: tuple[str, ...] = ()


def verify_partition(
    partition: OrbitPartition,
    subject: Iterable[Square],
    transformations: Sequence[Transformation] | None = None,
) -> PartitionVerdict:
    """Independently re-check a partition.

    Verifies disjointness, exact coverage of the subject, that each
    generator is its orbit's encoding minimum, and that no two generators
    are symmetric under `transformations`.  Every generator pair is
    checked: by distinct canonical keys for the full candidate universe
    (when `transformations` is omitted), otherwise by mapping each
    generator through every given triple.  Returns a verdict instead of
    raising.
    """
    problems: list[str] = []
    subject_cells = {sq.cells for sq in subject}
    seen: set[tuple[int, ...]] = set()
    dup = 0
    for orb in partition.orbits:
        for m in orb.members:
            if m.cells in seen:
                dup += 1
            seen.add(m.cells)
    if dup:
        problems.append(f"{dup} squares appear in more than one orbit")
    if seen != subject_cells:
        missing = len(subject_cells - seen)
        extra = len(seen - subject_cells)
        problems.append(f"coverage mismatch: {missing} missing, {extra} extra")
    for orb in partition.orbits:
        lo = min(encode_square(m) for m in orb.members)
        if encode_square(orb.generator) != lo:
            problems.append(
                f"generator {encode_square(orb.generator)} is not its orbit minimum"
            )
            break

    gens = partition.generators()
    clash = None
    if transformations is None:
        first: dict[str, int] = {}
        for j, g in enumerate(gens):
            i = first.setdefault(canonical_key(g), j)
            if i != j:
                clash = (i, j)
                break
    else:
        maps = [t.cell_map() for t in transformations]
        index = {g.cells: j for j, g in enumerate(gens)}
        for i, g in enumerate(gens):
            src = g.cells
            hits = {index.get(tuple(src[k] for k in cmap), i) for cmap in maps} - {i}
            if hits:
                clash = (i, min(hits))
                break
    if clash is not None:
        i, j = clash
        problems.append(f"generators {i} and {j} are symmetric to each other")
    return PartitionVerdict(not problems, tuple(problems))


@dataclass(frozen=True)
class Discrepancy:
    """A difference between the computed census and the published targets."""

    subject: str
    field: str
    expected: str
    computed: str

    def as_dict(self) -> dict[str, str]:
        return {
            "subject": self.subject,
            "field": self.field,
            "expected": self.expected,
            "computed": self.computed,
        }


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

    def by_letter(self, letter: str) -> ClassCensus:
        for c in self.classes:
            if c.letter == letter:
                return c
        raise KeyError(letter)


def class_census(letter: str, members: Sequence[Square], name: str) -> ClassCensus:
    """Symmetry group and both orbit partitions of one class of squares."""
    group = symmetry_group(members)
    group_part = decompose(members, group, name)
    closure_part = symmetric_closure_partition(members, name)
    for part in (group_part, closure_part):
        if part.total != len(members):
            raise ValueError(
                f"{name} {part.method} partition covers {part.total} "
                f"of {len(members)} squares"
            )
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
    result = compared_census(classes)
    if (
        result.total_generators != REFERENCE_TOTAL_GENERATORS
        and not result.discrepancies
    ):
        raise AssertionError("totals disagree but no histogram discrepancy recorded")
    return result
