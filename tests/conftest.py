from __future__ import annotations

import re
from functools import cache
from itertools import permutations

import pytest

from magicgen.classifier import DudeneyCensus
from magicgen.enumerator import iter_squares
from magicgen.generators import census as generator_census
from magicgen.groups import canonical_key
from magicgen.squares import Square, encode_square

_ACCEPTANCE_RESULTS: dict[str, str] = {}


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


def determinant(square: Square) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = square.order
    m = [list(square.row(r)) for r in range(n)]
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
    return Square.from_rows([[4, 9, 2], [3, 5, 7], [8, 1, 6]])


@pytest.fixture(scope="session")
def durer() -> Square:
    return Square.from_rows(
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
