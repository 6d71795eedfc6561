from __future__ import annotations

import random
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest
from conftest import (
    after,
    apply,
    at,
    determinant,
    from_rows,
    identity_transformation,
    inverse,
    rows_of,
)

from magicgen.squares import (
    Square,
    Transformation,
    _all_magic,
    _is_magic_grid,
    _tables,
    broken_diagonal_sums,
    encode_square,
    grid_symmetries,
    is_normal_magic,
    magic_constant,
    parse_square,
)


def cofactor_determinant(rows: list[list[int]]) -> int:
    """Independent oracle: textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def random_square(rng: random.Random, n: int) -> Square:
    values = list(range(1, n * n + 1))
    rng.shuffle(values)
    return Square(n, tuple(values))


def random_transformation(rng: random.Random, n: int) -> Transformation:
    rp = list(range(n))
    cp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return Transformation(tuple(rp), tuple(cp), rng.random() < 0.5)


@pytest.mark.parametrize("n,expected", [(4, 34), (3, 15), (5, 65)])
def test_magic_constant(n, expected):
    assert magic_constant(n) == expected


def test_magic_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        magic_constant(0)


class TestSquareValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside the range"):
            Square(3, (0, 2, 3, 4, 5, 6, 7, 8, 9))
        with pytest.raises(ValueError, match="outside the range"):
            Square(3, (1, 2, 3, 4, 5, 6, 7, 8, 10))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeats"):
            Square(3, (1, 2, 3, 4, 5, 6, 7, 8, 8))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="expected 9 cells"):
            Square(3, tuple(range(1, 9)))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="order"):
            Square(2, (1, 2, 3, 4))

    @pytest.mark.parametrize(
        "n, cells, error, message",
        [
            (3, (0, 2, 3, 4, 5, 6, 7, 8, 9), ValueError, "cell 0 holds 0, outside the range 1..9"),
            (3, tuple(range(9)), ValueError, "cell 0 holds 0, outside the range 1..9"),
            (3, tuple(range(2, 11)), ValueError, "cell 8 holds 10, outside the range 1..9"),
            (3, (1, 2, 3, 4, 5, 6, 7, 8, 8), ValueError, "cell 8 repeats the value 8"),
            (4, tuple(range(1, 16)), ValueError, "expected 16 cells for order 4, got 15"),
            (2, (1, 2, 3, 4), ValueError, "square order must be >= 3, got 2"),
            (
                3,
                (1, 2, 3, 4, 5.0, 6, 7, 8, 9),
                TypeError,
                "unsupported operand type(s) for <<: 'int' and 'float'",
            ),
            (4.0, tuple(range(1, 17)), ValueError, "square order must be an int, got 4.0"),
            (3, [2, 7, 6, 9, 5, 1, 4, 3, 8], ValueError, "cells must be a tuple, got list"),
            # A cell that is no int, though it may equal 1, fails in the loop.
            *[
                (3, (cell, *range(2, 10)), TypeError, message)
                for cell, message in [
                    ("1", "'<=' not supported between instances of 'int' and 'str'"),
                    (None, "'<=' not supported between instances of 'int' and 'NoneType'"),
                    ([1], "'<=' not supported between instances of 'int' and 'list'"),
                    (1 + 0j, "'<=' not supported between instances of 'int' and 'complex'"),
                    (Fraction(1), "unsupported operand type(s) for <<: 'int' and 'Fraction'"),
                    (
                        Decimal(1),
                        "unsupported operand type(s) for <<: 'int' and 'decimal.Decimal'",
                    ),
                ]
            ],
        ],
        ids=["zero", "shifted-down", "shifted-up", "duplicate", "count", "order", "float",
             "float-order", "list", "str", "none", "list-cell", "complex", "fraction",
             "decimal"],
    )
    def test_rejection_names_the_cell(self, n, cells, error, message):
        with pytest.raises(error) as info:
            Square(n, cells)
        assert str(info.value) == message

    def test_accepts_permutations(self, durer):
        assert Square(4, durer.cells).cells == durer.cells
        # bool is an int subclass: True is accepted as the value 1.
        sq = Square(3, (True, 2, 3, 4, 5, 6, 7, 8, 9))
        assert sq == Square(3, tuple(range(1, 10)))
        assert encode_square(sq) == "1 2 3 4 5 6 7 8 9"
        One = IntEnum("One", [("ONE", 1)])
        assert Square(3, (One.ONE, *range(2, 10))).cells[0] is One.ONE

    def test_acceptance_does_not_wait_for_the_tables(self, durer):
        # The fast path must build the order-4 table if none exists yet.
        _tables.cache_clear()
        assert Square(4, durer.cells).cells == durer.cells


def _lines_by_formula(n: int):
    """Magic lines and broken diagonals as cell sets picked by coordinates.

    Rows, columns, the main diagonal, the anti-diagonal; then the broken
    diagonals in broken_diagonal_sums' documented order.  Each line lists
    its cells in reading order.
    """
    coords = [divmod(i, n) for i in range(n * n)]

    def where(on_line) -> tuple[int, ...]:
        return tuple(i for i, (r, c) in enumerate(coords) if on_line(r, c))

    magic = (
        [where(lambda r, c, k=k: r == k) for k in range(n)]
        + [where(lambda r, c, k=k: c == k) for k in range(n)]
        + [where(lambda r, c: r == c), where(lambda r, c: r + c == n - 1)]
    )
    broken = [where(lambda r, c, k=k: (c - r) % n == k) for k in range(1, n)] + [
        where(lambda r, c, k=k: (r + c) % n == k) for k in range(n - 1)
    ]
    return magic, broken


@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestLineTable:
    def test_lines_match_the_index_formula(self, n):
        magic, broken = _lines_by_formula(n)
        table = _tables(n)
        assert table.magic_lines == tuple(magic)
        assert table.broken_diagonals == tuple(broken)
        cells = tuple(range(100, 100 + n * n))
        for getters, lines in ((table.magic_getters, magic), (table.broken_getters, broken)):
            assert [get(cells) for get in getters] == [
                tuple(cells[i] for i in line) for line in lines
            ]

    def test_kernels_sum_the_formula_lines(self, n):
        magic, broken = _lines_by_formula(n)
        mu = magic_constant(n)
        # Every formula line of the uniform grid sums to mu; a changed cell
        # breaks the lines through it.
        uniform = [Fraction(mu, n)] * (n * n)
        assert _is_magic_grid(uniform, n)
        for i in range(n * n):
            bumped = uniform.copy()
            bumped[i] += 1
            assert not _is_magic_grid(bumped, n)
        rng = random.Random(n)
        for _ in range(50):
            sq = random_square(rng, n)
            assert broken_diagonal_sums(sq) == tuple(
                sum(sq.cells[i] for i in line) for line in broken
            )
            assert _is_magic_grid(sq.cells, n) == all(
                sum(sq.cells[i] for i in line) == mu for line in magic
            )

    def test_batch_kernel_agrees_with_the_square_kernel(self, n):
        # One changed cell breaks its row and column.  +1 and -1 on the
        # corners of a rectangle keep every row and column sum and change
        # a diagonal only where a corner lies on it, so some grids break a
        # diagonal alone and some stay magic.
        uniform = (Fraction(magic_constant(n), n),) * (n * n)
        grids = []
        for i in range(n * n):
            grids.append(uniform[:i] + (uniform[i] + 1,) + uniform[i + 1 :])
        for r1, r2, c1, c2 in product(range(n), repeat=4):
            if r1 < r2 and c1 < c2:
                grid = list(uniform)
                for r, c, d in ((r1, c1, 1), (r1, c2, -1), (r2, c1, -1), (r2, c2, 1)):
                    grid[r * n + c] += d
                grids.append(tuple(grid))
        for grid in grids:
            assert _all_magic([uniform, grid, uniform], n) == _is_magic_grid(grid, n)
        assert _all_magic([uniform] * 3, n)

    def test_encode_is_str_per_cell_and_round_trips(self, n):
        rng = random.Random(n)
        for _ in range(50):
            sq = random_square(rng, n)
            text = encode_square(sq)
            assert text == " ".join(map(str, sq.cells))
            assert parse_square(text) == sq
            assert parse_square(text, order=n) == sq


def test_is_normal_magic(lo_shu, durer):
    assert is_normal_magic(lo_shu)
    assert is_normal_magic(durer)
    assert not is_normal_magic(Square(4, tuple(range(1, 17))))


def test_parse_round_trip(durer):
    line = encode_square(durer)
    assert line == "16 3 2 13 5 10 11 8 9 6 7 12 4 15 14 1"
    assert parse_square(line) == durer
    assert parse_square(line, order=4) == durer
    # Lines with tokens the value table lacks but int() reads: leading
    # zeros, signs, extra whitespace, digit-group underscores and
    # non-ASCII digits.
    for spelled, order in [
        ("016 03 2 13 5 10 11 8 9 6 7 12 4 15 14 01", None),
        ("+16 3 +2 13 5 10 11 8 9 6 7 12 4 15 14 1", 4),
        ("  16\t3  2 13 5 10 11 8 9 6 7 12 4 15 14 1 \r", None),
        ("1_6 3 2 13 5 10 11 8 9 6 7 12 4 15 14 \u0661", 4),
    ]:
        sq = parse_square(spelled, order)
        assert sq == durer
        assert set(map(type, sq.cells)) == {int}


# Each refusal with its message, as recorded when every token went through
# int(): token counts, orders, non-integers, ranges and repeats.
PARSE_REFUSALS = [
    ("1 2 3", 4, "expected 16 values for order 4, got 3"),
    ("1 2 3 4 5", None, "token count 5 is not the square of an order >= 3"),
    ("1 2 3 4", None, "token count 4 is not the square of an order >= 3"),
    ("", None, "token count 0 is not the square of an order >= 3"),
    ("   ", 0, "square order must be >= 3, got 0"),
    ("1 2 3 4", 2, "square order must be >= 3, got 2"),
    ("1 2 3 x 5 6 7 8 9", 3, "non-integer token 'x'"),
    ("1 2 3 4.0 5 6 7 8 9", None, "non-integer token '4.0'"),
    ("0 2 3 4 5 6 7 8 9", 3, "cell 0 holds 0, outside the range 1..9"),
    ("1 2 3 4 5 6 7 8 10", None, "cell 8 holds 10, outside the range 1..9"),
    ("-1 2 3 4 5 6 7 8 9", 3, "cell 0 holds -1, outside the range 1..9"),
    ("1 1 3 4 5 6 7 8 9", 3, "cell 1 repeats the value 1"),
    ("01 1 3 4 5 6 7 8 9", None, "cell 1 repeats the value 1"),
    ("16 3 2 13 5 10 11 8 9 6 7 12 4 15 14 16", 4, "cell 15 repeats the value 16"),
]


def test_parse_errors_are_distinct():
    for line, order, message in PARSE_REFUSALS:
        with pytest.raises(ValueError) as info:
            parse_square(line, order)
        assert str(info.value) == message


class TestBrokenDiagonals:
    def test_durer_sums(self, durer):
        sums = broken_diagonal_sums(durer)
        assert sums == (30, 34, 38, 46, 34, 22)
        assert sum(1 for s in sums if s == 34) == 2

    def test_lo_shu_sums(self, lo_shu):
        sums = broken_diagonal_sums(lo_shu)
        assert len(sums) == 4
        assert sums == (24, 6, 12, 18)
        assert all(s != 15 for s in sums)

    def test_sum_identity_on_random_squares(self):
        # broken sums + the two main traces account for every cell twice.
        rng = random.Random(7)
        for n in (3, 4, 5):
            for _ in range(50):
                sq = random_square(rng, n)
                broken = broken_diagonal_sums(sq)
                assert len(broken) == 2 * (n - 1)
                major = sum(at(sq, i, i) for i in range(n))
                minor = sum(at(sq, i, n - 1 - i) for i in range(n))
                assert sum(broken) + major + minor == 2 * sum(sq.cells)


class TestDeterminant:
    def test_lo_shu(self, lo_shu):
        assert cofactor_determinant(rows_of(lo_shu)) == 360
        assert determinant(lo_shu) == 360

    def test_durer(self, durer):
        assert cofactor_determinant(rows_of(durer)) == 0
        assert determinant(durer) == 0

    def test_matches_cofactor_oracle_on_random_squares(self):
        rng = random.Random(11)
        for n in (3, 4):
            for _ in range(25):
                sq = random_square(rng, n)
                assert determinant(sq) == cofactor_determinant(rows_of(sq))

    def test_row_swap_negates(self):
        rng = random.Random(13)
        for _ in range(20):
            sq = random_square(rng, 4)
            swapped = apply(Transformation((1, 0, 2, 3), (0, 1, 2, 3), False), sq)
            assert determinant(swapped) == -determinant(sq)

    def test_transpose_invariant(self):
        rng = random.Random(17)
        for _ in range(20):
            sq = random_square(rng, 4)
            t = Transformation((0, 1, 2, 3), (0, 1, 2, 3), True)
            assert determinant(apply(t, sq)) == determinant(sq)


class TestTransformation:
    def test_identity(self, durer):
        assert apply(identity_transformation(4), durer) == durer

    def test_row_swap_example(self):
        # Swapping the second and third rows of the 1..9 grid.
        sq = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        t = Transformation((0, 2, 1), (0, 1, 2), False)
        assert apply(t, sq) == from_rows([[1, 2, 3], [7, 8, 9], [4, 5, 6]])

    def test_column_permutation(self):
        sq = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        t = Transformation((0, 1, 2), (0, 2, 1), False)
        assert apply(t, sq) == from_rows([[1, 3, 2], [4, 6, 5], [7, 9, 8]])

    def test_inverse_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            sq = random_square(rng, 4)
            t = random_transformation(rng, 4)
            assert apply(inverse(t), apply(t, sq)) == sq

    def test_composition_matches_sequential_application(self):
        rng = random.Random(29)
        for _ in range(100):
            sq = random_square(rng, 4)
            t1 = random_transformation(rng, 4)
            t2 = random_transformation(rng, 4)
            assert apply(after(t2, t1), sq) == apply(t2, apply(t1, sq))

    def test_composition_associative(self):
        rng = random.Random(31)
        for _ in range(50):
            t1 = random_transformation(rng, 4)
            t2 = random_transformation(rng, 4)
            t3 = random_transformation(rng, 4)
            assert after(after(t3, t2), t1) == after(t3, after(t2, t1))

    def test_preserves_value_multiset(self):
        rng = random.Random(37)
        for _ in range(20):
            sq = random_square(rng, 5)
            t = random_transformation(rng, 5)
            assert sorted(apply(t, sq).cells) == sorted(sq.cells)

    def test_apply_does_not_promise_magicness(self, durer):
        # Row and column sums survive any row/column permutation, but the
        # diagonals generally do not.
        t = Transformation((1, 0, 2, 3), (0, 1, 2, 3), False)
        out = apply(t, durer)
        assert sorted(out.cells) == sorted(durer.cells)
        assert not is_normal_magic(out)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            Transformation((0, 0, 1), (0, 1, 2), False)

    def test_order_mismatch(self, durer):
        with pytest.raises(ValueError, match="order"):
            apply(identity_transformation(3), durer)


def test_grid_symmetries_form_dihedral_group():
    syms = grid_symmetries(4)
    assert len(syms) == 8
    assert len(set(syms)) == 8
    table = set(syms)
    for a in syms:
        assert inverse(a) in table
        for b in syms:
            assert after(a, b) in table


def test_grid_symmetries_rotate_as_expected():
    sq = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    rot90 = grid_symmetries(3)[1]
    assert apply(rot90, sq) == from_rows([[7, 4, 1], [8, 5, 2], [9, 6, 3]])
