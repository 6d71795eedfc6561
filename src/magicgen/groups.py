"""Transformation groups acting on sets of magic squares.

A transformation is a (row permutation, column permutation, optional
transpose) triple.  canonical_key names a square's class under all
(n!)^2 * 2 triples in closed form, without listing them.  The symmetry
group of a square set G holds the triples mapping every member of G into
G.  Its candidates come from value positions: for one member g0 and each
member h, the cell map that puts every value of g0 where h holds it, kept
when it is a triple's.  The group is verified to be non-empty and closed
under composition before it is returned, which makes it a group.

Candidates are filtered by members only until the survivors S pass those
checks, then by any member whose S-orbit leaves the set.  This is exact:
filtering drops only triples mapping a member outside the set, so every
true symmetry survives; and once S is a group whose orbits stay in the
set, each member is h = s(h0), h0 the first square of its orbit, so
t(h) = (t after s)(h0) is in that orbit for every t in S.  The cost is
|T| * k + |S|^2 + |S| * (orbit count) image lookups, for T candidates and
k filtering members (2 for Trigg A, 1 for D, 0 for B, C), not |G| * |S|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .squares import Square, Transformation, _invert_perm, _tables


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

    @cached_property
    def _images(self) -> list[itemgetter]:
        """One image getter per member, built once per group."""
        return [itemgetter(*t.cell_map()) for t in self.members]

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

    Filters the candidates of _candidates square by square only until they
    pass the group checks, then by any member whose orbit leaves the set,
    at a cost growing with |G| + |S|^2, not |G| * |S| (module docstring).
    Raises GroupClosureError with the first failed check if one still fails
    once every member filtered them.  The (n!)^2 * 2 triples are never
    listed, so any order works.
    """
    order, index = _subject_index(squares)
    # itemgetter(*cmap)(cells) is tuple(cells[i] for i in cmap), built in C.
    survivors = {t: itemgetter(*t.cell_map()) for t in _candidates(index, order)}
    unfiltered = iter(index)
    while True:
        problem = _group_problem(survivors)
        images = survivors.values()
        cells = next(unfiltered, None) if problem else _escaping_member(index, images)
        if cells is None:
            break
        survivors = {t: im for t, im in survivors.items() if im(cells) in index}
    if problem is not None:
        raise GroupClosureError(problem)
    return TransformationGroup(tuple(survivors), index, order)


def _group_problem(survivors: dict[Transformation, itemgetter]) -> str | None:
    """The first group check the survivors fail, or None."""
    if not survivors:
        return "no triple survived filtering"
    # Closure is the one axiom checked: in a finite non-empty set of
    # permutations closed under composition, each t has a power t^k equal
    # to the identity, and t^(k-1) is t's inverse.
    # Composed on cell maps: t1 after t2 reads cell i from m2[m1[i]].
    maps = {t.cell_map(): t for t in survivors}
    for t1, image1 in survivors.items():
        for m2, t2 in maps.items():
            if image1(m2) not in maps:
                return f"composition {t1} after {t2} missing"
    return None


def _escaping_member(index: frozenset[tuple[int, ...]], images: Iterable[itemgetter]):
    """A member with an image outside the set, checking one square per orbit."""
    left = set(index)
    while left:
        cells = left.pop()
        orb = {image(cells) for image in images}
        if not orb <= index:
            return cells
        left -= orb
    return None


def _candidates(index: frozenset[tuple[int, ...]], n: int) -> list[Transformation]:
    """For one member g0, the triple onto each member that has one.

    Values are distinct, so one cell map takes g0 onto each member: a cell
    reads the cell of g0 holding its value.  Row 0 and column 0 of the map
    name a triple's source rows and columns (once each source cell's row and
    column are swapped, for a transposed triple), and the rest must agree.
    Every group triple maps g0 onto a member, so all are candidates.  They
    come sorted by (transposed, row perm, column perm).
    """
    cell_of = {v: cell for cell, v in enumerate(min(index))}
    swap = [(k % n) * n + k // n for k in range(n * n)]
    found = []
    for cells in index:
        cmap = itemgetter(*cells)(cell_of)
        for transposed in (False, True):
            if transposed:
                cmap = itemgetter(*cmap)(swap)
            rows = [cmap[r * n] // n for r in range(n)]
            cols = [cmap[c] % n for c in range(n)]
            if cmap == tuple(r * n + c for r in rows for c in cols):
                # cell_map reads through the inverse perms.
                found.append(
                    Transformation(_invert_perm(rows), _invert_perm(cols), transposed)
                )
    return sorted(found, key=lambda t: (t.transposed, t.row_perm, t.col_perm))


def canonical_key(square: Square) -> str:
    """Smallest encode_square text among the square's triple images.

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
    tokens = itemgetter(*square.cells)(_tables(n).texts)
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

