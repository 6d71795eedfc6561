"""The linear system behind the magic-sum conditions.

An order-n square has 2n+2 line constraints (n rows, n columns, the two
main traces), each summing to the magic constant.  Solving that system
exactly shows most cells are determined by a small independent basis:
2 of 9 cells for order 3, 7 of 16 for order 4, 14 of 25 for order 5.

Elimination runs over exact rationals.  Pivot columns are chosen scanning
cells in *reverse* reading order, so the cells that stay free are the
earliest ones in reading order; for order 4 this makes the basis the
cells named a, b, c, e, f, g, i (indices 0, 1, 2, 4, 5, 6, 8).

That solution is the only derivation of dependent cells, and this module
the only place that states which equations a square must satisfy: the
search engine derives its whole plan from build_system(n) -- its lines
and their targets from the equations, its trial order and each
Dependency's integer_form from the solution -- and a search pinned on
every trial cell gives the one square of a basis, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .squares import _tables, magic_constant


def cell_name(idx: int, n: int) -> str:
    """Letter name of a cell in reading order (a..y covers orders up to 5)."""
    if n * n <= 26:
        return chr(ord("a") + idx)
    return f"c{idx}"


@dataclass(frozen=True)
class Dependency:
    """One dependent cell as an affine expression over the free cells.

    value = const + sum(coeff * value_of(cell) for cell, coeff in terms)

    Coefficients are exact rationals; the constant already folds in the
    magic constant (e.g. "34 - a - b - c" has const = 34).
    """

    cell: int
    const: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    def integer_form(self) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """Rescale to (denominator, const_numerator, ((cell, numerator), ...)).

        value = (const_numerator + sum(num * cell_value)) / denominator,
        exact; non-divisible numerators mean no integer solution.
        """
        lcm = math.lcm(self.const.denominator, *(c.denominator for _, c in self.terms))
        const_num = int(self.const * lcm)
        terms = tuple((cell, int(coeff * lcm)) for cell, coeff in self.terms)
        return lcm, const_num, terms

    def render(self, n: int) -> str:
        """Stable text form, e.g. "d = 34 - a - b - c"."""
        parts: list[str] = []
        if self.const != 0 or not self.terms:
            parts.append(_fmt_frac(self.const))
        for cell, coeff in self.terms:
            name = cell_name(cell, n)
            mag = abs(coeff)
            body = name if mag == 1 else f"{_fmt_frac(mag)}*{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return f"{cell_name(self.cell, n)} = " + " ".join(parts)


def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ConstraintSystem:
    """The 2n+2 magic-sum equations with their exact solution structure."""

    order: int
    equations: tuple[tuple[tuple[int, ...], int], ...]  # (coefficients, rhs)
    rank: int
    free_cells: tuple[int, ...]
    dependencies: tuple[Dependency, ...]


@lru_cache(maxsize=None)
def build_system(n: int) -> ConstraintSystem:
    """Construct and exactly solve the magic-sum system for order n, once per order."""
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    n2 = n * n
    mu = magic_constant(n)
    # Equation i is magic line i of the line table.
    lines = _tables(n).magic_lines
    equations = [(tuple(int(i in line) for i in range(n2)), mu) for line in lines]

    # Reduced row echelon form, pivoting on the highest-index cell available.
    rows = [[Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in equations]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n2 - 1, -1, -1):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [x / pivot for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivot_cols.append(col)
        rank += 1

    for i in range(rank, len(rows)):
        if rows[i][n2] != 0:
            raise ValueError("inconsistent constraint system")  # unreachable

    free = tuple(sorted(set(range(n2)) - set(pivot_cols)))
    deps: list[Dependency] = []
    for row, col in zip(rows[:rank], pivot_cols):
        terms = tuple(
            (c, -row[c]) for c in free if row[c] != 0
        )
        deps.append(Dependency(cell=col, const=row[n2], terms=terms))
    deps.sort(key=lambda d: d.cell)

    return ConstraintSystem(
        order=n,
        equations=tuple(equations),
        rank=rank,
        free_cells=free,
        dependencies=tuple(deps),
    )

