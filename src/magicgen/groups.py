"""Transformation groups acting on sets of magic squares.

A candidate transformation is a (row permutation, column permutation,
optional transpose) triple; for order n there are (n!)^2 * 2 of them.
The symmetry group of a square set G keeps exactly the triples that map
every member of G to a member of G; the result is verified to contain
the identity and to be closed under composition and inverses before it
is returned.

Orbits of that action partition G, and each orbit's designated
representative (its generator) is the member with the smallest canonical
text encoding.

Two squares are symmetric when some candidate triple maps one onto the
other; canonical_key names each such class in closed form, without the
universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable

from .squares import Square, Transformation, encode_square

MAX_UNIVERSE_ORDER = 5


class GroupClosureError(RuntimeError):
    """The filtered triple set failed a group axiom (definition defect)."""


@lru_cache(maxsize=None)
def candidate_universe(n: int) -> tuple[Transformation, ...]:
    """All (row perm, column perm, transpose) triples for order n."""
    if n > MAX_UNIVERSE_ORDER:
        raise ValueError(
            f"universe for order {n} has {2 * _fact(n) ** 2} triples; "
            f"orders above {MAX_UNIVERSE_ORDER} are not supported"
        )
    perms = tuple(permutations(range(n)))
    return tuple(
        Transformation(rp, cp, t)
        for t in (False, True)
        for rp in perms
        for cp in perms
    )


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@lru_cache(maxsize=None)
def _universe_maps(n: int) -> tuple[tuple[Transformation, tuple[int, ...]], ...]:
    return tuple((t, t.cell_map()) for t in candidate_universe(n))


@dataclass(frozen=True)
class TransformationGroup:
    """Triples preserving a fixed square set, with the group axioms verified."""

    members: tuple[Transformation, ...]
    subject: frozenset[tuple[int, ...]]
    order_n: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, t: Transformation) -> bool:
        return t in set(self.members)

    def pair_view(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Permutation pairs whose transposed and untransposed triples both belong.

        This is the stricter pair-based reading of the group definition
        (both images must stay in the set for the pair to qualify); it is
        reported alongside the triple count for reconciliation.
        """
        have = set(self.members)
        pairs = []
        for t in self.members:
            if not t.transposed:
                if Transformation(t.row_perm, t.col_perm, True) in have:
                    pairs.append((t.row_perm, t.col_perm))
        return tuple(sorted(pairs))


def _subject_index(squares: Iterable[Square]) -> tuple[int, frozenset[tuple[int, ...]]]:
    cells_set: set[tuple[int, ...]] = set()
    order = None
    for sq in squares:
        if order is None:
            order = sq.order
        elif sq.order != order:
            raise ValueError("square set mixes orders")
        cells_set.add(sq.cells)
    if order is None:
        raise ValueError("square set is empty")
    return order, frozenset(cells_set)


def symmetry_group(squares: Iterable[Square]) -> TransformationGroup:
    """Triples mapping every square of the set into the set.

    Filters the full candidate universe square by square (survivors only
    are retested, so the cost collapses to roughly universe + |G| * group
    size), then checks identity, closure, and inverses, raising
    GroupClosureError on any violation rather than repairing it.
    """
    order, index = _subject_index(squares)
    survivors = list(_universe_maps(order))
    for cells in index:
        survivors = [
            (t, cmap)
            for t, cmap in survivors
            if tuple(cells[i] for i in cmap) in index
        ]
        if len(survivors) == 1:
            break  # only the identity is left; it always survives
    members = tuple(
        sorted(
            (t for t, _ in survivors),
            key=lambda t: (t.transposed, t.row_perm, t.col_perm),
        )
    )

    member_set = set(members)
    ident = Transformation(tuple(range(order)), tuple(range(order)), False)
    if ident not in member_set:
        raise GroupClosureError("identity missing from filtered triples")
    for t in members:
        if t.inverse() not in member_set:
            raise GroupClosureError(f"inverse of {t} missing")
    # Composed on cell maps: t1 after t2 reads cell i from m2[m1[i]].
    maps = {cmap for _, cmap in survivors}
    for t1, m1 in survivors:
        for t2, m2 in survivors:
            if tuple(m2[i] for i in m1) not in maps:
                raise GroupClosureError(f"composition {t1} after {t2} missing")
    return TransformationGroup(members, index, order)


def canonical_key(square: Square) -> str:
    """Smallest encode_square text among the square's candidate-triple images.

    Two squares are symmetric (some row perm x column perm x transpose
    triple maps one onto the other) iff their keys are equal.  The values
    are distinct, so the minimum is fixed step by step: the smallest token
    "1" goes to (0, 0); its row, being the first n tokens, is ordered
    ascending, which fixes the column order; the rows below are then
    ordered by their first token.  Tokens compare as strings, as they do
    inside encodings ("10" < "2"), because a space sorts before every
    digit.  Both transpose choices are tried and the smaller text is kept.
    """
    n = square.order
    tokens = [str(v) for v in square.cells]
    rows = [tokens[r * n : (r + 1) * n] for r in range(n)]
    r1, c1 = divmod(square.cells.index(1), n)
    keys = []
    for grid, r, c in ((rows, r1, c1), (list(zip(*rows)), c1, r1)):
        col_order = sorted(range(n), key=lambda j: grid[r][j])
        row_order = sorted(range(n), key=lambda i: grid[i][c])
        keys.append(" ".join(grid[i][j] for i in row_order for j in col_order))
    return min(keys)


@dataclass(frozen=True)
class Orbit:
    """One equivalence class of squares under a transformation group."""

    members: frozenset[Square]
    generator: Square

    @property
    def size(self) -> int:
        return len(self.members)


def orbit(square: Square, group: TransformationGroup) -> Orbit:
    """All images of the square under the group; generator = smallest encoding."""
    if square.cells not in group.subject:
        raise ValueError("square outside the group's subject set")
    src = square.cells
    seen: set[tuple[int, ...]] = set()
    for t in group.members:
        seen.add(tuple(src[i] for i in t.cell_map()))
    members = frozenset(Square(square.order, cells) for cells in seen)
    generator = min(members, key=encode_square)
    return Orbit(members, generator)
