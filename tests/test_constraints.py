from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import solve

from magicgen.constraints import build_system, cell_name
from magicgen.squares import Square, _tables, magic_constant

# The nine order-4 closed forms, written out by hand as
# {dependent cell: (constant, {free cell: coefficient})}.
MU4 = magic_constant(4)
ORDER4_FORMULAS = {
    3: (MU4, {0: -1, 1: -1, 2: -1}),
    7: (MU4, {4: -1, 5: -1, 6: -1}),
    9: (-MU4, {0: 2, 1: 1, 2: 1, 4: 1, 6: -1, 8: 1}),
    10: (2 * MU4, {0: -2, 1: -1, 2: -1, 4: -1, 5: -1, 8: -1}),
    11: (0, {5: 1, 6: 1, 8: -1}),
    12: (MU4, {0: -1, 4: -1, 8: -1}),
    13: (2 * MU4, {0: -2, 1: -2, 2: -1, 4: -1, 5: -1, 6: 1, 8: -1}),
    14: (-MU4, {0: 2, 1: 1, 4: 1, 5: 1, 6: -1, 8: 1}),
    15: (-MU4, {0: 1, 1: 1, 2: 1, 4: 1, 8: 1}),
}


@pytest.mark.parametrize(
    "n,equations,rank,free",
    [
        (3, 8, 7, 2),
        (4, 10, 9, 7),
        # The 12 order-5 equations obey sum(rows) = sum(cols), capping the
        # rank at 2n+1 = 11; the basis therefore has 14 cells, not the 13
        # sometimes claimed.
        (5, 12, 11, 14),
    ],
)
def test_system_shape(n, equations, rank, free):
    s = build_system(n)
    assert len(s.equations) == equations
    assert s.rank == rank
    assert len(s.free_cells) == free
    assert s.rank + len(s.free_cells) == n * n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_equation_supports_are_the_table_lines(n):
    supports = [
        tuple(i for i, a in enumerate(coeffs) if a) for coeffs, _ in build_system(n).equations
    ]
    assert supports == list(_tables(n).magic_lines)


def test_system_is_solved_once_per_order():
    assert build_system(5) is build_system(5)
    for _ in range(2):
        with pytest.raises(ValueError, match="order must be >= 3, got 2"):
            build_system(2)


def test_order4_basis_is_the_canonical_seven():
    s = build_system(4)
    assert s.free_cells == (0, 1, 2, 4, 5, 6, 8)
    assert [cell_name(c, 4) for c in s.free_cells] == list("abcefgi")


def test_order4_dependency_formulas():
    s = build_system(4)
    assert len(s.dependencies) == 9
    for dep in s.dependencies:
        const, coeffs = ORDER4_FORMULAS[dep.cell]
        assert dep.const == const, cell_name(dep.cell, 4)
        assert {c: coeff for c, coeff in dep.terms} == coeffs, cell_name(dep.cell, 4)


def test_invalid_assignment_collides():
    # a=1, b=3, c=15 forces d = 34-1-3-15 = 15, duplicating c.
    grid = solve(build_system(4), (1, 3, 15, 2, 4, 5, 6))
    assert grid[3] == 15
    with pytest.raises(ValueError, match="cell 3 repeats the value 15"):
        Square(4, grid)


def test_all_line_sums_hold_even_for_invalid_values():
    rng = random.Random(41)
    mu = magic_constant(4)
    for _ in range(200):
        basis = tuple(rng.randint(-30, 60) for _ in range(7))
        g = solve(build_system(4), basis)
        for r in range(4):
            assert sum(g[4 * r : 4 * r + 4]) == mu
        for c in range(4):
            assert sum(g[c::4]) == mu
        assert g[0] + g[5] + g[10] + g[15] == mu
        assert g[3] + g[6] + g[9] + g[12] == mu


def test_closed_forms_agree_with_eliminated_system():
    # solve against the hand-written table, evaluated independently of the
    # elimination.
    rng = random.Random(43)
    for _ in range(1000):
        basis = tuple(rng.randint(-50, 80) for _ in range(7))
        grid = dict(zip((0, 1, 2, 4, 5, 6, 8), basis))
        for cell, (const, coeffs) in ORDER4_FORMULAS.items():
            grid[cell] = const + sum(k * grid[c] for c, k in coeffs.items())
        assert solve(build_system(4), basis) == tuple(grid[i] for i in range(16))


def test_solve_round_trips_enumerated_squares(catalog4):
    from magicgen.enumerator import iter_squares

    for n, squares in ((3, iter_squares(3)), (4, catalog4)):
        system = build_system(n)
        for sq in squares:
            assert solve(system, [sq.cells[c] for c in system.free_cells]) == sq.cells


def test_solve_rejects_a_wrong_length_or_a_non_integral_cell():
    s5 = build_system(5)
    with pytest.raises(ValueError, match="expected 14 basis values, got 13"):
        solve(s5, range(1, 14))
    # Some order-5 dependent is a sum over 2: an odd numerator is refused
    # rather than rounded.
    assert max(dep.integer_form()[0] for dep in s5.dependencies) == 2
    with pytest.raises(ValueError, match=r"cell \d+ is -?\d+/2, not an integer"):
        solve(s5, [1] * 13 + [2])


def test_order3_center_is_forced():
    s = build_system(3)
    center = next(dep for dep in s.dependencies if dep.cell == 4)
    assert center.terms == ()
    assert center.const == Fraction(5)

