"""Normal magic squares and the row/column/transpose maps that act on them.

A normal magic square of order n holds each integer 1..n^2 exactly once,
with every row, every column, and both main diagonals summing to the
magic constant n(n^2+1)/2.  Cells are indexed 0-based in reading order:
cell (r, c) lives at index r*n + c.

The canonical text encoding of a square is its n^2 cell values, row-major,
space-separated on one line.  That string is the interchange format for
every file this package writes, and string comparison of encodings is the
canonical ordering used wherever a "lexicographically smallest" square is
required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import isqrt
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Sequence


def magic_constant(n: int) -> int:
    """Common line sum of a normal order-n magic square: n(n^2+1)/2."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return n * (n * n + 1) // 2


class _Tables(NamedTuple):
    """Per-order constants, built on first use of the order."""

    magic_lines: tuple[tuple[int, ...], ...]  # rows, columns, diagonal, anti-diagonal
    # The 2(n-1) wraparound diagonals other than the two main traces:
    # down-right {(i, (i+k) mod n)} for k = 1..n-1, then down-left
    # {(i, (k-i) mod n)} for k = 0..n-2.
    broken_diagonals: tuple[tuple[int, ...], ...]
    magic_getters: tuple[itemgetter, ...]
    broken_getters: tuple[itemgetter, ...]
    dihedral: tuple[itemgetter, ...]  # image(cells) per grid_symmetries(n) member
    values: frozenset[int]  # 1..n^2
    texts: tuple[str, ...]  # texts[v] == str(v) for 0 <= v <= n^2
    ints: dict[str, int]  # ints[texts[v]] == v: the inverse of texts


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    span = range(n)
    magic = [tuple(r * n + c for c in span) for r in span]
    magic += [tuple(r * n + c for r in span) for c in span]
    magic += [tuple(i * n + i for i in span), tuple(i * n + n - 1 - i for i in span)]
    broken = [tuple(i * n + (i + k) % n for i in span) for k in range(1, n)]
    broken += [tuple(i * n + (k - i) % n for i in span) for k in range(n - 1)]
    getters = [tuple(itemgetter(*line) for line in lines) for lines in (magic, broken)]
    dihedral = tuple(itemgetter(*t.cell_map()) for t in grid_symmetries(n))
    values = frozenset(range(1, n * n + 1))
    texts = tuple(map(str, range(n * n + 1)))
    ints = {text: v for v, text in enumerate(texts)}
    return _Tables(tuple(magic), tuple(broken), *getters, dihedral, values, texts, ints)


@dataclass(frozen=True, slots=True)
class Square:
    """An order-n grid whose cells are a permutation of 1..n^2."""

    order: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.order
        if n < 3:
            raise ValueError(f"square order must be >= 3, got {n}")
        n2 = n * n
        cells = self.cells
        if len(cells) != n2:
            raise ValueError(f"expected {n2} cells for order {n}, got {len(cells)}")
        # A permutation of 1..n^2 held in a tuple, at an int order, passes
        # here if its cells also sum to an exact int: one float, Fraction or
        # Decimal cell makes the sum one too.  Anything else is refused
        # below, by its order or container, or by the per-cell loop, which
        # names the cell.
        try:
            exact = type(n) is int and type(cells) is tuple and type(sum(cells)) is int
        except TypeError:  # a cell that does not add
            exact = False
        if exact and set(cells) == _tables(n).values:
            return
        if type(n) is not int:
            raise ValueError(f"square order must be an int, got {n!r}")
        if type(cells) is not tuple:
            raise ValueError(f"cells must be a tuple, got {type(cells).__name__}")
        seen = 0
        for idx, v in enumerate(cells):
            if not 1 <= v <= n2:
                raise ValueError(
                    f"cell {idx} holds {v}, outside the range 1..{n2}"
                )
            bit = 1 << v
            if seen & bit:
                raise ValueError(f"cell {idx} repeats the value {v}")
            seen |= bit


def encode_square(square: Square) -> str:
    """Canonical one-line text encoding: cell values, row-major."""
    return " ".join(itemgetter(*square.cells)(_tables(square.order).texts))


def parse_square(line: str, order: int | None = None) -> Square:
    """Parse the canonical encoding back into a Square.

    Tokens are read through the order's value table; a line with a token
    outside it (say "01" or "+5") is read by int() instead, so every
    spelling int() takes is accepted.  Rejects, with distinct messages: a
    token count that is not n^2, non-integer tokens, out-of-range values,
    and duplicates.
    """
    tokens = line.split()
    if order is not None:
        expected = order * order
        if len(tokens) != expected:
            raise ValueError(
                f"expected {expected} values for order {order}, got {len(tokens)}"
            )
        n = order
    else:
        n = isqrt(len(tokens))
        if n * n != len(tokens) or n < 3:
            raise ValueError(
                f"token count {len(tokens)} is not the square of an order >= 3"
            )
    cells = _table_cells(tokens, n)
    if cells is None:
        try:
            cells = tuple(map(int, tokens))
        except ValueError:
            bad = next(t for t in tokens if not _is_int(t))
            raise ValueError(f"non-integer token {bad!r}") from None
    return Square(n, cells)


def _table_cells(tokens: list[str], n: int) -> tuple[int, ...] | None:
    """n^2 tokens read through the order-n value table; None on a miss."""
    if type(n) is int and n >= 3 and len(tokens) == n * n:
        try:
            return itemgetter(*tokens)(_tables(n).ints)
        except KeyError:
            pass
    return None


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Structural measurements
# ---------------------------------------------------------------------------

def is_normal_magic(square: Square) -> bool:
    """True iff all rows, columns, and both main diagonals sum to the constant."""
    return _is_magic_grid(square.cells, square.order)


def _is_magic_grid(cells, n: int) -> bool:
    # Called by is_normal_magic and by the tests' brute-force oracles;
    # assumes cells is a permutation.
    mu = magic_constant(n)
    for line in _tables(n).magic_getters:
        if sum(line(cells)) != mu:
            return False
    return True


def _line_sums(grids: Sequence[tuple[int, ...]], getters) -> Iterable[tuple[int, ...]]:
    """Each grid's sum over each line that `getters` picks; [] for no grids.

    Each line is summed for every grid at once, column-wise: the grids'
    cells at the line's first index plus those at its second, and so on,
    all as C-level maps.  The sums are yielded one grid at a time, so no
    list of every grid's sums is held.
    """
    if not grids:
        return []
    columns = list(zip(*grids))
    add_columns = partial(map, add)
    return zip(*[reduce(add_columns, line(columns)) for line in getters])


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@dataclass(frozen=True, slots=True)
class Transformation:
    """Optional transpose, then a row permutation, then a column permutation.

    Acting on a square A: let B = A^T if `transposed` else A; the result
    holds B(row_perm^-1(r), col_perm^-1(c)) at position (r, c).  In other
    words row i of B moves to row row_perm(i) and column j to col_perm(j).
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    transposed: bool = False

    def __post_init__(self) -> None:
        n = len(self.row_perm)
        if len(self.col_perm) != n:
            raise ValueError("row and column permutations must have equal length")
        for name, p in (("row_perm", self.row_perm), ("col_perm", self.col_perm)):
            if sorted(p) != list(range(n)):
                raise ValueError(f"{name} {p} is not a permutation of 0..{n - 1}")

    def cell_map(self) -> tuple[int, ...]:
        """Index map: applying this transformation reads cell i from cell_map[i]."""
        n = len(self.row_perm)
        rinv = _invert_perm(self.row_perm)
        cinv = _invert_perm(self.col_perm)
        if self.transposed:
            return tuple(
                cinv[c] * n + rinv[r] for r in range(n) for c in range(n)
            )
        return tuple(rinv[r] * n + cinv[c] for r in range(n) for c in range(n))


def grid_symmetries(n: int) -> tuple[Transformation, ...]:
    """The 8 dihedral symmetries of the n x n grid as transformations."""
    ident = tuple(range(n))
    rev = tuple(range(n - 1, -1, -1))
    return (
        Transformation(ident, ident, False),  # identity
        Transformation(ident, rev, True),     # rotate 90 clockwise
        Transformation(rev, rev, False),      # rotate 180
        Transformation(rev, ident, True),     # rotate 270
        Transformation(rev, ident, False),    # flip top-bottom
        Transformation(ident, rev, False),    # flip left-right
        Transformation(ident, ident, True),   # transpose
        Transformation(rev, rev, True),       # anti-transpose
    )
