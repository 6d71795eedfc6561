"""Acceptance gate: one test per shipping criterion, exact tolerances.

Every numeric target here is an integer identity (zero tolerance); the
two runtime targets use wall-clock bounds.  A per-criterion PASS/FAIL
table is printed in the terminal summary (see conftest).

Two criteria were first published with values that cannot hold; their
``*_as_published`` tests assert the provable values instead, each with
the proof inside the test:

* criterion 3, order-5 clause: a 13-cell basis would need the 12 line
  equations to be independent, but sum(row equations) - sum(column
  equations) = 0 caps the rank at 11, so the basis has 14 cells.  The
  test checks that dependency on the equations themselves, recomputes
  rank 11 by its own exact elimination, and asserts 14 free cells.
* criterion 6: the pandiagonal squares are not all 1152 squares of the
  three 384-classes; they are exactly one of those classes (384
  squares), and the other two hold none.  The Durer square lies in a
  384-class yet has broken-diagonal sums 30, 34, 38, 46, 34, 22, which
  the test recomputes cell by cell.

The companion _informative tests pin the same true values through the
program's own summaries (rank, class labels).
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import (
    TRIGG_POPULATIONS,
    FastClassifier,
    after,
    apply,
    at,
    broken_diagonal_sums,
    count_magic_broken_diagonals,
    determinant,
    inverse,
    label_of,
    solve,
    verify_partition,
)

from magicgen.catalog import catalog_text
from magicgen.classifier import DUDENEY_CLASSES, signature
from magicgen.constraints import build_system
from magicgen.enumerator import (
    count_squares,
    enumerate_shards_parallel,
    iter_squares,
    single_cell_shards,
)
from magicgen.generators import (
    REFERENCE_HISTOGRAMS,
    decompose,
    symmetric_closure_partition,
)
from magicgen.groups import symmetry_group
from magicgen.squares import (
    Square,
    Transformation,
    _is_magic_grid,
    encode_square,
    grid_symmetries,
    is_normal_magic,
)

DURER_GRID = (16, 3, 2, 13, 5, 10, 11, 8, 9, 6, 7, 12, 4, 15, 14, 1)
FREE_CELLS = build_system(4).free_cells
PANDIAGONAL = 2 * (4 - 1)  # magic broken diagonals of a pandiagonal order-4 square


def test_criterion_01_order3_enumeration_with_oracle():
    t0 = time.perf_counter()
    squares = list(iter_squares(3))
    elapsed = time.perf_counter() - t0
    assert len(squares) == 8
    assert elapsed < 1.0, f"order-3 enumeration took {elapsed:.3f}s"
    oracle = {p for p in permutations(range(1, 10)) if _is_magic_grid(p, 3)}
    assert {sq.cells for sq in squares} == oracle
    print(f"[criterion 01] 8 squares in {elapsed:.3f}s, equal to the 9! filter")


def test_criterion_02_order4_enumeration(catalog4):
    t0 = time.perf_counter()
    count = count_squares(4)
    elapsed = time.perf_counter() - t0
    assert count == 7040
    assert elapsed < 10.0, f"order-4 enumeration took {elapsed:.2f}s"
    cells = {sq.cells for sq in catalog4}
    assert len(cells) == 7040  # no duplicates
    assert all(is_normal_magic(sq) for sq in catalog4)  # independent re-check
    print(f"[criterion 02] 7040 squares in {elapsed:.2f}s, all re-verified, no dups")


def test_criterion_03_order4_basis():
    assert len(build_system(4).free_cells) == 7
    print("[criterion 03a] order-4 basis has 7 free cells")


def test_criterion_03_order5_basis_as_published():
    # Published as 13 free cells, which needs all 12 line equations to be
    # independent.  Every cell lies in exactly one row and one column, so
    # sum(row equations) - sum(column equations) = 0 (coefficients and
    # right-hand sides): the rank is at most 11 and the basis has >= 14 cells.
    n = 5
    system = build_system(n)
    row_supports = [frozenset(range(r * n, r * n + n)) for r in range(n)]
    col_supports = [frozenset(range(c, n * n, n)) for c in range(n)]
    support = lambda coeffs: frozenset(i for i, v in enumerate(coeffs) if v)
    rows = [eq for eq in system.equations if support(eq[0]) in row_supports]
    cols = [eq for eq in system.equations if support(eq[0]) in col_supports]
    assert len(system.equations) == 2 * n + 2
    assert len(rows) == n and len(cols) == n
    combination = [
        sum(eq[0][k] for eq in rows) - sum(eq[0][k] for eq in cols)
        for k in range(n * n)
    ]
    assert combination == [0] * (n * n)
    assert sum(eq[1] for eq in rows) - sum(eq[1] for eq in cols) == 0

    # Rank exactly 11, by an exact elimination independent of the solver's.
    coefficient_rank = _rank_over_q([eq[0] for eq in system.equations])
    augmented_rank = _rank_over_q([eq[0] + (eq[1],) for eq in system.equations])
    assert coefficient_rank == augmented_rank == 2 * n + 1  # consistent, rank 11

    free = len(system.free_cells)
    assert free == n * n - coefficient_rank == 14, (
        f"order-5 basis has {free} free cells; rank 11 forces 14"
    )
    print(
        "[criterion 03c] order-5 basis: rows - columns = 0 caps rank at 11, "
        "exact rank is 11, so 14 free cells (published 13 is unattainable)"
    )


def _rank_over_q(matrix):
    """Rank of an integer matrix by Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_03_order5_basis_informative():
    s = build_system(5)
    assert s.rank == 11
    assert len(s.free_cells) == 14
    assert s.rank + len(s.free_cells) == 25
    print("[criterion 03b] order-5 system: rank 11, 14 free cells (true values)")


def test_criterion_04_durer_round_trip():
    assert solve(build_system(4), (16, 3, 2, 5, 10, 11, 9)) == DURER_GRID
    print("[criterion 04] Durer basis reproduces the engraving square exactly")


def test_criterion_05_dudeney_census(census4):
    pops = sorted(c.population for c in census4.classes)
    assert pops == sorted(population for _, population, _ in DUDENEY_CLASSES)
    rows = []
    for cls in census4.classes:
        label = census4.labels[cls.signature]
        rows.append((label.dudeney, cls.population, label.trigg))
    assert sorted(rows) == sorted(DUDENEY_CLASSES)
    assert len(census4.classes) == 12
    assert census4.trigg_populations() == TRIGG_POPULATIONS
    print("[criterion 05] 12 classes, populations and Trigg totals as published")


def test_criterion_06_pandiagonal_characterization_as_published(catalog4, census4):
    # Published as "pandiagonal set == union of the three 384-classes".  The
    # Durer square refutes it: it lies in a 384-class but is not pandiagonal.
    # What holds: the pandiagonal squares are exactly one 384-class, found
    # here by its members rather than by its numeral.
    pandiagonal = frozenset(
        sq.cells for sq in catalog4 if count_magic_broken_diagonals(sq) == PANDIAGONAL
    )
    classes384 = [
        frozenset(sq.cells for sq in cls.members)
        for cls in census4.classes
        if cls.population == 384
    ]
    assert len(classes384) == 3
    union384 = frozenset().union(*classes384)
    assert len(union384) == 1152
    assert pandiagonal <= union384
    assert len(pandiagonal) == 384
    assert [c == pandiagonal for c in classes384].count(True) == 1
    assert all(not (c & pandiagonal) for c in classes384 if c != pandiagonal)

    # Durer's six broken diagonals, summed cell by cell (row-major indices).
    g = DURER_GRID
    durer_broken = (
        g[1] + g[6] + g[11] + g[12],  # down-right, offset 1: 3+11+12+4
        g[2] + g[7] + g[8] + g[13],  # down-right, offset 2: 2+8+9+15
        g[3] + g[4] + g[9] + g[14],  # down-right, offset 3: 13+5+6+14
        g[0] + g[7] + g[10] + g[13],  # down-left, offset 0: 16+8+7+15
        g[1] + g[4] + g[11] + g[14],  # down-left, offset 1: 3+5+12+14
        g[2] + g[5] + g[8] + g[15],  # down-left, offset 2: 2+10+9+1
    )
    assert durer_broken == (30, 34, 38, 46, 34, 22)
    durer = Square(4, DURER_GRID)
    assert broken_diagonal_sums(durer) == durer_broken
    assert DURER_GRID in union384
    assert count_magic_broken_diagonals(durer) != PANDIAGONAL
    print(
        "[criterion 06c] pandiagonal squares = one 384-class of three (384 of "
        "1152); Durer is in a 384-class with broken diagonals 30..22, not pandiagonal"
    )


def test_criterion_06_pandiagonal_characterization_informative(catalog4, census4):
    pandiagonal = {
        sq.cells for sq in catalog4 if count_magic_broken_diagonals(sq) == PANDIAGONAL
    }
    assert len(pandiagonal) == 384
    hits = [
        cls
        for cls in census4.classes
        if {sq.cells for sq in cls.members} == pandiagonal
    ]
    assert len(hits) == 1 and hits[0].population == 384
    durer = Square(4, DURER_GRID)
    assert label_of(census4, durer).trigg == "A"
    assert count_magic_broken_diagonals(durer) != PANDIAGONAL
    print(
        "[criterion 06b] pandiagonal squares = exactly one 384-class "
        "(384 squares); Durer (class III) is not pandiagonal"
    )


def test_criterion_07_order3_orbit_decomposition():
    squares = list(iter_squares(3))
    group = symmetry_group(squares)  # raises on any axiom violation
    members = set(group.members)
    assert len(members) == 8
    for t in members:
        assert inverse(t) in members
        for s in members:
            assert after(t, s) in members
    partition = decompose(squares, group, "order3")
    assert [o.size for o in partition.orbits] == [8]
    assert len(partition.generators()) == 1
    print("[criterion 07] order 3: one orbit of 8, single generator, axioms hold")


def test_criterion_08_generator_census(census4, gencensus4):
    assert gencensus4.total_generators == 95
    for cls in gencensus4.classes:
        assert cls.closure_partition.size_histogram == REFERENCE_HISTOGRAMS[cls.letter]
    assert gencensus4.discrepancies == ()  # machine-readable report stays empty

    for cls in gencensus4.classes:
        members = census4.trigg_members(cls.letter)
        assert verify_partition(cls.closure_partition, members) == ()
        assert cls.closure_partition.total == cls.population

    # Peeling-order independence, demonstrated on the smallest class.
    d_members = census4.trigg_members("D")
    group_d = symmetry_group(d_members)
    forward = symmetric_closure_partition(decompose(d_members, group_d, "D"))
    reversed_members = sorted(d_members, key=encode_square, reverse=True)
    backward = symmetric_closure_partition(decompose(reversed_members, group_d, "D"))
    as_sets = lambda p: {frozenset(m.cells for m in o.members) for o in p.orbits}
    assert as_sets(forward) == as_sets(backward)
    print(
        "[criterion 08] census: A 3x384, B 46 {192:12,96:4,64:10,32:20}, "
        "C 44 {64:12,32:32}, D 2x64 -- 95 generators, no discrepancies"
    )


def test_criterion_09_shard_completeness(catalog4):
    shards = single_cell_shards(4)
    counts = [count_squares(4, s) for s in shards]
    assert sum(counts) == 7040

    serial_cells = [sq.cells for sq in catalog4]
    shard_cells = [cells for s in shards for cells in _shard_cells(s)]
    assert set(shard_cells) == set(serial_cells)
    assert shard_cells == serial_cells  # concatenation in prefix order

    parallel = list(enumerate_shards_parallel(4, shards, max_workers=2))
    serial_text = catalog_text(catalog4, 4)
    parallel_text = catalog_text(parallel, 4)
    assert parallel_text == serial_text  # byte-identical catalogs
    print("[criterion 09] 16 shards sum to 7040; parallel == serial byte for byte")


def _shard_cells(shard):
    return [sq.cells for sq in iter_squares(4, shard)]


@pytest.mark.slow
def test_criterion_10_order5_sample():
    system = build_system(5)
    shards = [(v,) for v in (12, 13, 14, 18)]
    t0 = time.perf_counter()
    sample = list(
        enumerate_shards_parallel(5, shards, max_workers=2, limit_per_shard=2500)
    )
    elapsed = time.perf_counter() - t0
    assert len(sample) == 10_000
    for sq in sample:
        assert is_normal_magic(sq)
        basis = [sq.cells[c] for c in system.free_cells]
        assert solve(system, basis) == sq.cells
    print(
        f"[criterion 10] 10000 order-5 shard squares in {elapsed:.0f}s: "
        f"all magic, all basis round-trips exact"
    )


def test_criterion_11_property_suites(catalog4, census4):
    import random

    rng = random.Random(61)

    # transformation-action associativity
    for _ in range(50):
        sq = rng.choice(catalog4)
        perms = [tuple(rng.sample(range(4), 4)) for _ in range(4)]
        t1 = Transformation(perms[0], perms[1], rng.random() < 0.5)
        t2 = Transformation(perms[2], perms[3], rng.random() < 0.5)
        assert apply(after(t2, t1), sq) == apply(t2, apply(t1, sq))

    # determinant row-swap antisymmetry
    swap = Transformation((1, 0, 2, 3), (0, 1, 2, 3), False)
    for _ in range(20):
        sq = rng.choice(catalog4)
        assert determinant(apply(swap, sq)) == -determinant(sq)

    # broken-diagonal sum identity
    for _ in range(50):
        sq = rng.choice(catalog4)
        broken = broken_diagonal_sums(sq)
        traces = sum(at(sq, i, i) + at(sq, i, 3 - i) for i in range(4))
        assert sum(broken) + traces == 2 * sum(sq.cells)

    # signature invariance under the 8 grid symmetries
    for _ in range(25):
        sq = rng.choice(catalog4)
        sig = signature(sq)
        assert all(signature(apply(sym, sq)) == sig for sym in grid_symmetries(4))

    # fast-vs-full classifier agreement on every square
    fast = FastClassifier.from_census(census4)
    for sq in catalog4:
        basis = [sq.cells[c] for c in FREE_CELLS]
        assert fast.classify(basis) == label_of(census4, sq)

    print("[criterion 11] all five property suites hold")
