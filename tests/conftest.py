from __future__ import annotations

import re
from functools import cache
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Sequence

import pytest

from magicgen.classifier import (
    ClassLabel,
    DudeneyCensus,
    count_magic_broken_diagonals,
    signature,
    with_vi_split,
)
from magicgen.constraints import ConstraintSystem, build_system
from magicgen.enumerator import iter_squares
from magicgen.generators import census as generator_census
from magicgen.groups import canonical_key
from magicgen.squares import Square, Transformation, encode_square, is_normal_magic

_ACCEPTANCE_RESULTS: dict[str, str] = {}

# Trigg class populations: the sums of their Dudeney classes' populations.
TRIGG_POPULATIONS = {"A": 1152, "B": 3968, "C": 1792, "D": 128}


@cache
def universe(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], bool], ...]:
    """Every (row perm, column perm, transposed) triple of order n.

    The brute-force reference the symmetry code is tested against: built
    from itertools alone, (n!)^2 * 2 triples, 72 at order 3 and 1,152 at
    order 4.  Transformation(*triple) gives the triple as a map.
    """
    perms = list(permutations(range(n)))
    return tuple((rp, cp, t) for t in (False, True) for rp in perms for cp in perms)


# Per order: the cells that must exceed a00 (the other cells of the two
# diagonals, the order-5 centre excepted, which every map fixes), then the
# cells that must exceed a01 (its mirror a0,n-2 and the transposes a10 and
# an-2,0).
LEAST = {
    4: ((3, 5, 6, 9, 10, 12, 15), (2, 4, 8)),
    5: ((4, 6, 8, 16, 18, 20, 24), (3, 5, 15)),
}


def is_least(cells: tuple[int, ...], n: int) -> bool:
    above_a00, above_a01 = LEAST[n]
    return all(cells[0] < cells[c] for c in above_a00) and all(
        cells[1] < cells[c] for c in above_a01
    )


def from_rows(rows: Iterable[Iterable[int]]) -> Square:
    """The square whose rows, top to bottom, are the given ones."""
    grid = [list(r) for r in rows]
    return Square(len(grid), tuple(v for row in grid for v in row))


def rows_of(square: Square) -> list[list[int]]:
    n = square.order
    return [list(square.cells[r * n : (r + 1) * n]) for r in range(n)]


def at(square: Square, r: int, c: int) -> int:
    return square.cells[r * square.order + c]


def apply(t: Transformation, square: Square) -> Square:
    """The image of a square under a transformation, through its cell map."""
    if square.order != t.order:
        raise ValueError(
            f"transformation acts on order {t.order}, square has order {square.order}"
        )
    return Square(t.order, tuple(square.cells[i] for i in t.cell_map()))


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def after(second: Transformation, first: Transformation) -> Transformation:
    """Composite transformation: first `first`, then `second`."""
    if first.order != second.order:
        raise ValueError("cannot compose transformations of different orders")
    if second.transposed:
        # Transposing swaps the roles of the earlier row and column perms.
        rp = _compose_perm(second.row_perm, first.col_perm)
        cp = _compose_perm(second.col_perm, first.row_perm)
    else:
        rp = _compose_perm(second.row_perm, first.row_perm)
        cp = _compose_perm(second.col_perm, first.col_perm)
    return Transformation(rp, cp, second.transposed != first.transposed)


def identity_transformation(n: int) -> Transformation:
    ident = tuple(range(n))
    return Transformation(ident, ident, False)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def inverse(t: Transformation) -> Transformation:
    """The transformation undoing t: its inverse perms, swapped if t transposes."""
    if t.transposed:
        return Transformation(_invert(t.col_perm), _invert(t.row_perm), True)
    return Transformation(_invert(t.row_perm), _invert(t.col_perm), False)


def solve(system: ConstraintSystem, basis: Sequence[int]) -> tuple[int, ...]:
    """Full grid from free-cell values, each dependency evaluated exactly.

    The reference the engine's compiled plan is checked against: each
    dependent cell is its integer_form, substituted on its own.  A
    dependent cell that is not an integer (order 5 has dependents over 2)
    is a ValueError; values outside 1..n^2 or repeated are left to Square.
    """
    if len(basis) != len(system.free_cells):
        raise ValueError(
            f"expected {len(system.free_cells)} basis values, got {len(basis)}"
        )
    grid = [0] * (system.order * system.order)
    for cell, v in zip(system.free_cells, basis):
        grid[cell] = v
    for cell, den, const, terms in _integer_forms(system):
        num = const + sum(k * grid[c] for c, k in terms)
        if num % den:
            raise ValueError(f"cell {cell} is {num}/{den}, not an integer")
        grid[cell] = num // den
    return tuple(grid)


@cache
def _integer_forms(system: ConstraintSystem):
    """(cell, denominator, const numerator, terms) per dependency."""
    return tuple((dep.cell, *dep.integer_form()) for dep in system.dependencies)


def label_of(census: DudeneyCensus, square: Square) -> ClassLabel:
    """Classify any order-4 magic square by its signature, VI split included.

    The reference for the pipeline's census lookup (classify_catalog).  A
    square that is not normal magic is a ValueError.
    """
    if not is_normal_magic(square):
        raise ValueError(f"square {encode_square(square)} is not normal magic")
    label = census.labels[signature(square)]
    return with_vi_split(label, count_magic_broken_diagonals(square))


FastKey = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


class FastClassifier:
    """Basis-only classification via complement pairs among the free cells.

    A reproduction of the supervised classifier the paper credits with
    sorting the order-4 squares.  The free cells (a, b, c, e, f, g, i)
    hold 7 of the 16 values; whenever both members of a complement pair
    land on free cells, the pair's position geometry is visible without
    deriving the dependent cells, and each remaining free cell still
    reveals which complement pair its value belongs to.  A lookup table
    from that partial view to the class label is learnt from labelled
    squares; keys seen with more than one label are ambiguous (None), and
    classify falls back to the full signature path for them and for keys
    never seen.
    """

    def __init__(
        self,
        census: DudeneyCensus,
        table: dict[FastKey, ClassLabel | None],
    ) -> None:
        self._census = census
        self.table = table
        self.fallbacks = 0

    @classmethod
    def train(
        cls, census: DudeneyCensus, labelled: Iterable[tuple[Square, ClassLabel]]
    ) -> "FastClassifier":
        table: dict[FastKey, ClassLabel | None] = {}
        basis_of = itemgetter(*build_system(4).free_cells)
        for sq, label in labelled:
            key = cls.basis_key(basis_of(sq.cells))
            prior = table.get(key, label)
            table[key] = label if prior == label else None
        return cls(census, table)

    @classmethod
    def from_census(cls, census: DudeneyCensus) -> "FastClassifier":
        """Trained on every square of the census."""
        return cls.train(census, labelled_squares(census))

    @staticmethod
    def basis_key(basis: Sequence[int]) -> FastKey:
        where = dict(zip(basis, build_system(4).free_cells))
        pairs = []
        unpaired = []
        for v, pos in where.items():
            mate = where.get(17 - v)
            if mate is None:
                unpaired.append((pos, min(v, 17 - v)))
            elif v < 17 - v:
                pairs.append((pos, mate) if pos < mate else (mate, pos))
        pairs.sort()
        unpaired.sort()
        return tuple(pairs), tuple(unpaired)

    def classify(self, basis: Sequence[int]) -> ClassLabel:
        """Label for the square defined by the 7-value basis.

        The dependent cells are always derived, so a basis that defines no
        normal magic square is rejected; the full signature path runs only
        when the partial scan is ambiguous or unseen.
        """
        try:
            square = Square(4, solve(build_system(4), basis))
        except ValueError as exc:
            raise ValueError(f"basis does not define a magic square: {exc}") from None
        label = self.table.get(self.basis_key(basis))
        if label is None:
            self.fallbacks += 1
            return label_of(self._census, square)
        return with_vi_split(label, count_magic_broken_diagonals(square))


def labelled_squares(census: DudeneyCensus) -> list[tuple[Square, ClassLabel]]:
    """Every census square with its class label (no VI split), class by class."""
    return [
        (sq, census.labels[cls.signature]) for cls in census.classes for sq in cls.members
    ]


def determinant(square: Square) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = square.order
    m = rows_of(square)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def verify_partition(partition, subject, transformations=None) -> tuple[str, ...]:
    """The problems an independent re-check finds in an OrbitPartition, () if none.

    Checks disjointness, exact coverage of the subject, that each
    generator is its orbit's encoding minimum, and that no two generators
    are symmetric under `transformations`.  Every generator pair is
    checked: by distinct canonical keys for the full candidate universe
    (when `transformations` is omitted), otherwise by mapping each
    generator through every given triple.
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
    return tuple(problems)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"test_(criterion_\w+)", report.nodeid)
    if m:
        _ACCEPTANCE_RESULTS[m.group(1)] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{name}] {mark}")


@pytest.fixture(scope="session")
def lo_shu() -> Square:
    return from_rows([[4, 9, 2], [3, 5, 7], [8, 1, 6]])


@pytest.fixture(scope="session")
def durer() -> Square:
    return from_rows(
        [[16, 3, 2, 13], [5, 10, 11, 8], [9, 6, 7, 12], [4, 15, 14, 1]]
    )


@pytest.fixture(scope="session")
def catalog4() -> list[Square]:
    return list(iter_squares(4))


@pytest.fixture(scope="session")
def census4(catalog4) -> DudeneyCensus:
    return DudeneyCensus.from_catalog(catalog4)


@pytest.fixture(scope="session")
def gencensus4(census4):
    return generator_census(census4)


@pytest.fixture(scope="session")
def by_numeral(census4):
    """census4's signature classes keyed by Dudeney numeral."""
    return {census4.labels[c.signature].dudeney: c for c in census4.classes}


@pytest.fixture(scope="session")
def by_letter(gencensus4):
    """gencensus4's class censuses keyed by Trigg letter."""
    return {c.letter: c for c in gencensus4.classes}
