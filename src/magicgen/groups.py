"""Transformation groups acting on sets of magic squares.

A transformation is a (row permutation, column permutation, optional
transpose) triple.  canonical_key names a square's class under all
(n!)^2 * 2 triples in closed form, without listing them.  The symmetry
group of a square set G holds the triples mapping every member of G into
G; it is found among the triples taking one member onto the members with
its key, and verified to contain the identity and to be closed under
composition and inverses before it is returned.

Orbits of that action partition G, and each orbit's designated
representative (its generator) is the member with the smallest canonical
text encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .squares import Square, Transformation, encode_square, identity_transformation


class GroupClosureError(RuntimeError):
    """The filtered triple set failed a group axiom (definition defect)."""


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

    Filters the candidates of _candidates square by square (survivors only
    are retested), then checks identity, closure, and inverses, raising
    GroupClosureError on any violation rather than repairing it.  The
    (n!)^2 * 2 triples are never listed, so any order works.
    """
    order, index = _subject_index(squares)
    # itemgetter(*cmap)(cells) is tuple(cells[i] for i in cmap), built in C.
    survivors = [(t, itemgetter(*t.cell_map())) for t in _candidates(index, order)]
    for cells in index:
        survivors = [(t, image) for t, image in survivors if image(cells) in index]
    members = tuple(
        sorted(
            (t for t, _ in survivors),
            key=lambda t: (t.transposed, t.row_perm, t.col_perm),
        )
    )

    member_set = set(members)
    if identity_transformation(order) not in member_set:
        raise GroupClosureError("identity missing from filtered triples")
    for t in members:
        if t.inverse() not in member_set:
            raise GroupClosureError(f"inverse of {t} missing")
    # Composed on cell maps: t1 after t2 reads cell i from m2[m1[i]].
    maps = {t.cell_map(): t for t in members}
    for t1, image1 in survivors:
        for m2, t2 in maps.items():
            if image1(m2) not in maps:
                raise GroupClosureError(f"composition {t1} after {t2} missing")
    return TransformationGroup(members, index, order)


def _candidates(index: frozenset[tuple[int, ...]], n: int) -> list[Transformation]:
    """For one member g0, the triple onto each member with g0's canonical key.

    Every triple of the group is among them: it maps g0 onto a member with
    g0's key, and no other triple does, because values are distinct and so
    only the identity fixes a square.
    """
    key0, *triple0 = _canonical_triple(min(index), n)
    to_g0 = _from_key(*triple0).inverse()
    keyed = [_canonical_triple(cells, n) for cells in index]
    return [_from_key(*triple).after(to_g0) for key, *triple in keyed if key == key0]


def _from_key(transposed: bool, row_order, col_order) -> Transformation:
    """The triple taking a square's canonical key back to the square."""
    # The transposed grid's rows are the square's columns.
    if transposed:
        return Transformation(tuple(col_order), tuple(row_order), True)
    return Transformation(tuple(row_order), tuple(col_order), False)


def canonical_key(square: Square) -> str:
    """Smallest encode_square text among the square's triple images.

    Two squares are symmetric (some row perm x column perm x transpose
    triple maps one onto the other) iff their keys are equal.
    """
    return _canonical_triple(square.cells, square.order)[0]


def _canonical_triple(
    cells: tuple[int, ...], n: int
) -> tuple[str, bool, list[int], list[int]]:
    """canonical_key's text and the triple that attains it.

    Returns (key, transposed, row_order, col_order): key cell (i, j) is
    cell (row_order[i], col_order[j]) of the grid, transposed or not.  The
    values are distinct, so the minimum is fixed step by step: the smallest
    token "1" goes to (0, 0); its row, being the first n tokens, is ordered
    ascending, which fixes the column order; the rows below are then
    ordered by their first token.  Tokens compare as strings, as they do
    inside encodings ("10" < "2"), because a space sorts before every
    digit.  Both transpose choices are tried and the smaller text is kept.
    """
    tokens = [str(v) for v in cells]
    rows = [tokens[r * n : (r + 1) * n] for r in range(n)]
    r1, c1 = divmod(cells.index(1), n)
    columns = list(zip(*rows))
    found = []
    for transposed, grid, r, c in ((False, rows, r1, c1), (True, columns, c1, r1)):
        col_order = sorted(range(n), key=lambda j: grid[r][j])
        row_order = sorted(range(n), key=lambda i: grid[i][c])
        key = " ".join(grid[i][j] for i in row_order for j in col_order)
        found.append((key, transposed, row_order, col_order))
    return min(found)


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
