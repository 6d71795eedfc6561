from __future__ import annotations

import re
from functools import cache
from itertools import permutations

import pytest

from magicgen.classifier import DudeneyCensus
from magicgen.enumerator import iter_squares
from magicgen.generators import census as generator_census
from magicgen.squares import Square

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
