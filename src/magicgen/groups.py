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
t(h) = (t after s)(h0) is in that orbit for every t in S.  Closure is
checked through generators (_group_problem).  The cost is |T| * k +
|S| * (generator count) + |S| * (orbit count) image lookups, for T
candidates and k filtering members (2 for Trigg A, 1 for D, 0 for B, C),
not |G| * |S| or |S|^2.

_grouped is the one pass that files squares under labels: the Dudeney
classes (signatures) and the group orbits come from it, and the closure
classes merge whole group orbits by canonical_key without filing their
squares again.  A label is computed once per set of squares it is known
to name, such as a square's dihedral or group orbit.
It sorts its input by encode_square unless the input is an EncodingOrder,
squares already in that order, so a census sorts its squares once.

A group's pair view counts the (p, q) with both (p, q, F) and (p, q, T)
in it.  (p, q, T) is (p, q, F) after the pure transpose
tau = (id, id, T), so with tau in the group each untransposed member has
its twin and the count is |G|/2; without tau it is 0, or
(p, q, F)^-1 after (p, q, T) would be tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from .squares import Square, Transformation, _invert_perm, _tables, encode_square


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

    @property
    def pair_view_order(self) -> int:
        """The pair view's size, |G|/2 or 0 as the pure transpose is a member
        or not (module docstring): the stricter pair-based reading of the
        group definition, reported beside the triple count."""
        ident = tuple(range(self.order_n))
        return len(self) // 2 if Transformation(ident, ident, True) in self.members else 0


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
    at a cost growing with |G| + |S| * (generator count), not |G| * |S|
    (module docstring).  Raises GroupClosureError with the first failed
    check if one still fails once every member filtered them.  The
    (n!)^2 * 2 triples are never listed, so any order works.
    """
    order, index = _subject_index(squares)
    # Survivors by cell map; each map's image getter is built once.
    survivors = {t.cell_map(): t for t in _candidates(index, order)}
    # itemgetter(*cmap)(cells) is tuple(cells[i] for i in cmap), built in C.
    images = {cmap: itemgetter(*cmap) for cmap in survivors}
    unfiltered = iter(index)
    while True:
        problem = _group_problem(survivors, images)
        if problem:
            cells = next(unfiltered, None)
        else:
            cells = _escaping_member(index, [images[m] for m in survivors])
        if cells is None:
            break
        survivors = {m: t for m, t in survivors.items() if images[m](cells) in index}
    if problem is not None:
        raise GroupClosureError(problem)
    return TransformationGroup(tuple(survivors.values()), index, order)


def _group_problem(
    survivors: dict[tuple[int, ...], Transformation],
    images: dict[tuple[int, ...], itemgetter],
) -> str | None:
    """The first group check the survivors (cell map -> triple) fail, or None.

    Closure is the one axiom checked: in a finite non-empty set of
    permutations closed under composition, each t has a power t^k equal
    to the identity, and t^(k-1) is t's inverse.  It is checked through
    generators: a survivor not yet reached becomes one, and each reached
    map is composed after each generator.  Every product must be a
    survivor, and every survivor is reached, so the survivors are exactly
    the closed set their generators make.  Composed on cell maps: t1
    after t2 reads cell i from m2[m1[i]], which is images[m1](m2).
    """
    if not survivors:
        return "no triple survived filtering"
    reached: dict[tuple[int, ...], None] = {}  # an ordered set
    generators: list[tuple[int, ...]] = []
    work: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def reach(m: tuple[int, ...]) -> None:
        reached[m] = None
        work.extend((m, g) for g in generators)

    for start in survivors:
        if start in reached:
            continue
        # The new generator acts after every map reached so far, and each
        # map reached from here on after every generator.
        work.extend((m, start) for m in reached)
        generators.append(start)
        reach(start)
        while work:
            m1, m2 = work.pop()
            product = images[m1](m2)
            if product not in survivors:
                return f"composition {survivors[m1]} after {survivors[m2]} missing"
            if product not in reached:
                reach(product)
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
    A triple's map steps alike along rows 0 and 1, so one difference rules
    out many maps before the triple is built.  Every group triple maps g0
    onto a member, so all are candidates.  They come sorted by (transposed,
    row perm, column perm).
    """
    cell_of = {v: cell for cell, v in enumerate(min(index))}
    swap = [(k % n) * n + k // n for k in range(n * n)]
    found = []
    for cells in index:
        cmap = itemgetter(*cells)(cell_of)
        for transposed in (False, True):
            if transposed:
                cmap = itemgetter(*cmap)(swap)
            if cmap[n + 1] - cmap[n] != cmap[1] - cmap[0]:
                continue
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


class EncodingOrder(tuple):
    """Squares in ascending encode_square order, as in_encoding_order sorts them.

    A filtered EncodingOrder is still in order, so a census that sorted its
    catalog once hands each class its squares this way.
    """


def in_encoding_order(squares: Iterable[Square]) -> EncodingOrder:
    """The squares sorted by encode_square; an EncodingOrder as it stands."""
    if isinstance(squares, EncodingOrder):
        return squares
    return EncodingOrder(sorted(squares, key=encode_square))


def _grouped(
    squares: Iterable[Square],
    label: Callable[[Square], tuple[Hashable, Iterable[tuple[int, ...]]]],
    noun: str,
) -> dict[Hashable, list[Square]]:
    """The squares filed under their labels, in ascending encoding order.

    label(sq) returns a key and the cells of every square sharing it, sq's
    own included (an orbit the key is constant on); it is called once per
    such set, for the first of them met.  Parts come in order of their
    first square, each listing its squares in encoding order.  A repeated
    square raises ValueError, naming the input as noun.
    """
    parts: dict[Hashable, list[Square]] = {}
    key_of: dict[tuple[int, ...], Hashable] = {}
    previous = None
    for sq in in_encoding_order(squares):
        if sq.cells == previous:
            raise ValueError(f"{noun} repeats the square {encode_square(sq)}")
        previous = sq.cells
        if sq.cells not in key_of:
            key, sharing = label(sq)
            key_of.update(dict.fromkeys(sharing, key))
        parts.setdefault(key_of[sq.cells], []).append(sq)
    return parts
