"""Backtracking enumeration of normal magic squares over the free-cell basis.

Only the independent cells of the magic-sum system are searched; every
other cell is forced through its affine dependency the moment all of its
supporting free cells are assigned, and a forced value that is out of
range, fractional, or already used prunes the branch immediately.

The search plan is derived once per order from build_system(n) alone:
each line is the support of one of the system's equations and starts
needing that equation's right-hand side.  One greedy pass fixes the
trial order: at each step take the free cell that completes the most
dependencies (ties broken by reading order), so dependent-cell
validation happens as early as possible.  For order 4 this yields a, b,
c, e, i, f, g -- cell c forces d, cell i forces m and p, cell f forces
k, and cell g forces the rest.
Trial values are always attempted in ascending order, which makes the
emission order deterministic: two runs produce identical streams, and
shard outputs concatenated in prefix order reproduce the full run
byte for byte.

The search is one recursive scan per trial level.  The fixed placement
order fixes how many cells of each line are open at every step, so the
bounds on what a line still needs are constants of a per-order plan,
built once.  A dependent's line with one open cell left needs a value
not yet used, and one with two open cells the sum of two distinct values
not yet used.  A level's candidates are one bitmask: the value window, less
the used values and the values whose unit dependents would repeat one.
Each dependent's base is carried from level to level, and a candidate
works on a copy of the line needs: a failed candidate drops it, an
accepted one passes it on, so nothing is ever undone.

A shard is a tuple of values for the first k trial cells, so shards
with distinct prefixes explore disjoint subtrees and the union over all
prefixes covers the whole space; this is the unit of parallel and
resumable work.

A full order-4 run (no shard) searches only a 32nd of the tree, and of
that only the subtrees where value 1 sits at a or at b.  The 32
(row perm, column perm, transpose) triples of _line_group keep every
square magic, and since a square's values are distinct they act freely:
every orbit holds 32 squares.  The group moves every cell onto a or onto
b, so each orbit has exactly one image with 1 at a and b below c, e and
i, or with 1 at b and a below d, f and j (220 of 7,040).  Two pinned
searches, a = 1 and b = 1, find them through the floors the orbit-least
search uses; each is mapped through the 32 cell maps, the images are
checked pairwise distinct and sorted by trial values.  A plain search
emits in exactly that order, so the stream is unchanged.  At order 5
every map fixes the centre, so a square with 1 there has no such image
and the anchoring does not carry over as it stands.  The expanded catalog
is kept for the life of the process, and an order-4 shard is the part of
it whose leading trial values equal the shard's prefix.  A shard's
subtree holds exactly those squares, and the catalog is sorted by trial
values, so they form a contiguous slice found by binary search: each
shard emits what a search of its subtree would, in the same order.
Slicing costs far less than pickling the slice back from a worker, so
enumerate_shards_parallel serves order-4 shards in the calling process
and sends only order-3 and order-5 shards, which are searches, to worker
processes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .constraints import build_system
from .squares import Square, Transformation

SUPPORTED_ORDERS = (3, 4, 5)


def trial_cells(n: int) -> tuple[int, ...]:
    """Assignment order of the free cells (greedy earliest-forcing order)."""
    return _plan(n).trials


@dataclass(frozen=True)
class _Plan:
    trials: tuple[int, ...]
    # Cells whose dependency has no free-cell term: fixed for every square.
    constants: tuple[tuple[int, int], ...]
    # The placement order fixes how many cells of a line are open at every
    # step, so each line a cell touches is stored as (line, low, high):
    # what the line still needs once the cell is placed must lie in
    # low..high, the least and greatest sums of that many distinct values.
    # tlines[level]: the lines of trial `level`.
    tlines: tuple[tuple[tuple[int, int, int], ...], ...]
    # forced[level]: dependents completed by trial `level`, as
    # (cell, den, m, ((line, low, high, r), ...)); the scaled value is
    # base + m * trial_value, divided by den (1 or 2).  r is the number of
    # the line's cells still open: with r == 1 the line needs a value not
    # yet used, with r == 2 the sum of two distinct values not yet used.
    forced: tuple[
        tuple[tuple[int, int, int, tuple[tuple[int, int, int, int], ...]], ...], ...
    ]
    # Dependent bases, carried down the levels: the bases at level L list
    # the dependents of levels >= L, deepest level first, so level L's own
    # dependents are the last len(forced[L]).  bases0 holds the constant
    # numerators; carry[L] the coefficients of trial L for the dependents
    # of levels > L, so level L+1's bases are level L's plus carry[L] * v.
    bases0: tuple[int, ...]
    carry: tuple[tuple[int, ...], ...]
    # Line needs (the equation's right-hand side less the values placed on
    # its line) with the constants in.
    need0: tuple[int, ...]
    # parity[p]: the values of 1..n^2 of parity p, bit x for value x.
    parity: tuple[int, int]


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    """The search plan, derived once from build_system(n) alone."""
    system = build_system(n)
    n2 = n * n
    # Line i is the support of equation i and starts needing its right side.
    lines = [{c for c, a in enumerate(coeffs) if a} for coeffs, _ in system.equations]
    open_cells = [len(line) for line in lines]
    need0 = [rhs for _, rhs in system.equations]

    def close(cell: int) -> tuple[tuple[int, int, int, int], ...]:
        """Place `cell`: (line, low, high, r) for each of its lines."""
        bounds = []
        for line, cells in enumerate(lines):
            if cell in cells:
                open_cells[line] -= 1
                r = open_cells[line]
                bounds.append((line, r * (r + 1) // 2, r * (2 * n2 + 1 - r) // 2, r))
        return tuple(bounds)

    constants: list[tuple[int, int]] = []
    # (cell, den, const numerator, {free cell: numerator}, free cells unplaced)
    pending = []
    for dep in system.dependencies:
        den, cnum, terms = dep.integer_form()
        if terms:
            if den not in (1, 2):
                raise ValueError(f"order {n} has a dependent over {den}")  # unreachable
            pending.append((dep.cell, den, cnum, dict(terms), {c for c, _ in terms}))
            continue
        value = cnum // den
        if cnum % den or not 1 <= value <= n2 or value in dict(constants).values():
            raise ValueError(f"order {n} forces an invalid cell")  # unreachable
        constants.append((dep.cell, value))
        for line, *_ in close(dep.cell):
            need0[line] -= value

    # Constants are placed first.  Then the next trial cell is the free cell
    # that completes the most pending dependents (those lacking only it),
    # the lower cell on a tie; it is placed, then the dependents it
    # completes, in the system's order.
    trials: list[int] = []
    tlines = []
    forced = []
    per_level = []
    free = list(system.free_cells)
    while free:
        lacking = [min(unplaced) for *_, unplaced in pending if len(unplaced) == 1]
        tcell = max(free, key=lambda x: (lacking.count(x), -x))
        free.remove(tcell)
        for *_, unplaced in pending:
            unplaced.discard(tcell)
        deps = [dep for dep in pending if not dep[4]]
        pending = [dep for dep in pending if dep[4]]
        trials.append(tcell)
        tlines.append(tuple(line[:3] for line in close(tcell)))
        forced.append(tuple((c, den, terms[tcell], close(c)) for c, den, _, terms, _ in deps))
        per_level.append(deps)
    deepest_first = [dep for deps in reversed(per_level) for dep in deps]
    later = len(deepest_first)
    carry = []
    for tcell, deps in zip(trials, per_level):
        later -= len(deps)
        carry.append(tuple(dep[3].get(tcell, 0) for dep in deepest_first[:later]))
    return _Plan(
        tuple(trials),
        tuple(constants),
        tuple(tlines),
        tuple(forced),
        tuple(dep[2] for dep in deepest_first),
        tuple(carry),
        tuple(need0),
        tuple(sum(1 << x for x in range(2 - p, n2 + 1, 2)) for p in (0, 1)),
    )


@lru_cache(maxsize=None)
def _line_group(n: int) -> tuple[tuple[int, ...], ...]:
    """Cell maps of the triples that keep every order-n magic square magic.

    The row perm p commutes with i -> n-1-i, the column perm is p or
    (n-1-.) o p, and the transpose is optional: diagonals go to diagonals
    and rows and columns to rows and columns.  32 maps at orders 4 and 5.
    """
    maps = []
    for p in permutations(range(n)):
        if all(p[n - 1 - i] == n - 1 - p[i] for i in range(n)):
            for q in (p, tuple(n - 1 - v for v in p)):
                for t in (False, True):
                    maps.append(Transformation(p, q, t).cell_map())
    return tuple(maps)


@lru_cache(maxsize=None)
def _orbit_floors(n: int, first: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cells that exceed trial cells 0 and 1 in one image of every orbit.

    `first` is the anchor's trial level, 0 or 1, and the other of the two
    leading trial cells is the second cell.  An image passes when the anchor
    is below every other cell of its orbit under _line_group, and the second
    cell below every other cell of its orbit under the anchor's stabiliser.
    The group acts freely, so the first condition keeps the images under one
    coset of the stabiliser and the second exactly one of those: one image
    per orbit passes.  Entry k lists the cells that must exceed trial cell
    k.  With first = 0 this is the orbit-least predicate; with the anchor
    pinned to the value 1 its own floors hold by themselves.
    """
    maps = _line_group(n)
    plan = _plan(n)
    anchor, second = plan.trials[first], plan.trials[1 - first]
    stabiliser = [m for m in maps if m[anchor] == anchor]
    above_anchor = tuple(sorted({m[anchor] for m in maps} - {anchor}))
    above_second = tuple(sorted({m[second] for m in stabiliser} - {second}))
    floors = (above_anchor, above_second) if first == 0 else (above_second, above_anchor)
    placed = {cell: level for level, cell in enumerate(plan.trials)}
    for level, deps in enumerate(plan.forced):
        placed.update((dep[0], level) for dep in deps)
    # Exactly one image passes only if the stabiliser moves the second cell
    # freely, and a floor holds only for cells placed after its anchor.
    if len(above_second) + 1 != len(stabiliser) or any(
        placed.get(c, -1) <= level for level, cells in enumerate(floors) for c in cells
    ):
        # Unreachable at orders 4 and 5.
        raise ValueError(f"order {n} has no orbit floors on trial cell {first}")
    return floors


def _checked_prefix(n: int, prefix: Sequence[int]) -> tuple[int, ...]:
    prefix = tuple(prefix)
    n2 = n * n
    if len(prefix) > len(trial_cells(n)):
        raise ValueError(f"shard prefix longer than the {len(trial_cells(n))}-cell basis")
    for v in prefix:
        if type(v) is not int:
            raise ValueError(f"shard prefix value {v!r} is not an int")
    if len(set(prefix)) != len(prefix):
        raise ValueError(f"shard prefix {prefix} repeats a value")
    for v in prefix:
        if not 1 <= v <= n2:
            raise ValueError(f"shard prefix value {v} outside 1..{n2}")
    return prefix


def checked_plan(n: int, shards: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A shard plan as a tuple of prefixes whose subtrees are pairwise disjoint.

    A plan must be non-empty, every prefix valid and of one depth, and no
    prefix repeated: equal-depth distinct prefixes never nest, so no
    square is counted twice.  `shards` is read once, so callers iterate
    the returned tuple, never `shards` itself.
    """
    plan = tuple(_checked_prefix(n, s) for s in shards)
    if not plan:
        raise ValueError("shard plan is empty")
    depth = len(plan[0])
    seen: set[tuple[int, ...]] = set()
    for p in plan:
        if len(p) != depth:
            raise ValueError(f"shard plan mixes prefix depths {depth} and {len(p)}")
        if p in seen:
            raise ValueError(f"shard plan repeats prefix {p}")
        seen.add(p)
    return plan


def _iter_generic(
    n: int, prefix: tuple[int, ...], floors: Sequence[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """Propagating backtracker over the free-cell basis.

    A recursive scan, one call of `place` per trial level.  Its state is
    the used values as a bitmask (`used`, bit x for value x) and its mirror
    (`rused`, bit n^2+1-x), what each row, column and trace still needs,
    and the bases of the dependents still to fire.  A candidate works on a
    copy of the needs, so a failed candidate is undone by dropping it; an
    accepted one hands the copy and the bases, advanced by its value, to
    the next level.  Three pruning devices run on top of the exact
    dependency forcing:

    * what a line still needs must stay between the least and greatest
      sums of its open cells in distinct values (the plan's per-level
      bounds); a dependent's line with one open cell left needs a value
      not yet used, and one with two open cells the sum of two distinct
      ones, found as a shift of `rused` (advanced per candidate and per
      placed dependent);
    * each dependent firing at a level is (base + m*v)/den in the level's
      trial value v, so the v-window keeping every dependent inside 1..n^2
      is intersected before the scan, and for den=2 only the parity of v
      that divides is kept;
    * a unit dependent (den 1, m = +-1) lands on base + v or base - v, so
      the v whose dependent would repeat a used value or v itself are
      dropped from the level's candidate mask as shifts of used or rused.

    The candidate mask is scanned lowest bit first, so the emission order
    is the plain lexicographic order of trial assignments.

    Trial cell k of the first len(prefix) takes the value prefix[k].
    Every cell has a floor its value must exceed, 0 unless `floors` names
    it: entering level k + 1 sets the floors of the cells in floors[k] to
    the value of trial cell k, so with the floors of _orbit_floors only
    one image per orbit is emitted.  A trial scan starts at its cell's
    floor + 1, and a dependent's v-window keeps it above its floor.
    """
    plan = _plan(n)
    n2 = n * n
    mirror = n2 + 1
    full = (2 << n2) - 2
    trials = plan.trials
    tlines_of = plan.tlines
    forced = plan.forced
    carry = plan.carry
    last = len(trials) - 1
    plen = len(prefix)
    parity_mask = plan.parity

    grid = [0] * n2
    used0 = rused0 = 0
    for cell, v in plan.constants:
        grid[cell] = v
        used0 |= 1 << v
        rused0 |= 1 << mirror - v

    pins = [1 << v for v in prefix]
    floor = [0] * n2
    floors_from: list[Sequence[int]] = [()] * (last + 2)
    floors_from[1 : len(floors) + 1] = floors
    tvals = [0] * (last + 1)

    def place(level: int, used: int, rused: int, need: list[int], bases: Sequence[int]):
        for cell in floors_from[level]:
            floor[cell] = tvals[level - 1]
        tcell = trials[level]
        tlines = tlines_of[level]
        lo, hi = floor[tcell] + 1, n2
        for line, low, high in tlines:
            b = need[line] - low
            if b < hi:
                hi = b
            b = need[line] - high
            if b > lo:
                lo = b
        deps = []
        parity = -1
        bad = used
        advance = carry[level]
        for (fcell, den, m, flines), base in zip(forced[level], bases[len(advance) :]):
            # The dependent's scaled value must reach den * (floor + 1).
            low = den * (floor[fcell] + 1)
            if m > 0:
                vlo = -((base - low) // m)
                vhi = (n2 * den - base) // m
            else:
                vlo = -((base - n2 * den) // m)
                vhi = (low - base) // m
            if vlo > lo:
                lo = vlo
            if vhi < hi:
                hi = vhi
            if den == 2:
                if m & 1:
                    p = base & 1
                    if parity < 0:
                        parity = p
                    elif parity != p:
                        return
                elif base & 1:
                    return
            elif m == 1:
                if not base:
                    return
                bad |= used >> base if base > 0 else used << -base
            elif m == -1:
                if base < 2:  # base - v >= 1 has no solution in v >= 1
                    return
                if not base & 1:
                    bad |= 1 << (base >> 1)
                shift = mirror - base
                bad |= rused >> shift if shift > 0 else rused << -shift
            deps.append((fcell, den, base, m, flines))
        if lo > hi:
            return
        cand = ((2 << hi) - (1 << lo)) & ~bad
        if parity >= 0:
            cand &= parity_mask[parity]
        if level < plen:
            cand &= pins[level]

        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            u = used | bit
            ru = rused | 1 << mirror - v
            a = need.copy()
            for line, _, _ in tlines:
                a[line] -= v
            for fcell, den, base, m, flines in deps:
                # The window keeps the value in 1..n^2 and the parity mask
                # makes den divide it.
                val = (base + m * v) // den
                if u >> val & 1:
                    break
                u |= 1 << val
                ru |= 1 << mirror - val
                for line, low, high, r in flines:
                    rest = a[line] - val
                    a[line] = rest
                    if rest < low or rest > high or (r == 1 and u >> rest & 1):
                        break
                    if r == 2:
                        # Some x > rest/2 with x and rest - x both unused.
                        s = mirror - rest
                        rfree = full ^ ru
                        pairs = (full ^ u) & (rfree >> s if s > 0 else rfree << -s)
                        if not pairs >> (rest >> 1) + 1:
                            break
                else:
                    grid[fcell] = val
                    continue
                break  # a line bound failed
            else:  # the trial and all its dependents are placed
                grid[tcell] = v
                tvals[level] = v
                if level == last:
                    yield tuple(grid)
                else:
                    yield from place(
                        level + 1, u, ru, a, [b + c * v for b, c in zip(bases, advance)]
                    )

    yield from place(0, used0, rused0, list(plan.need0), plan.bases0)


def _order4_representatives() -> list[tuple[int, ...]]:
    """One square of every order-4 orbit: the image placing 1 at a or at b.

    The group moves every cell onto trial cell 0 (a) or trial cell 1 (b),
    so value 1 sits at a in one coset of a's stabiliser and at b in one of
    b's.  The search with a pinned to 1 keeps b below the other cells of
    its orbit under a's stabiliser (c, e, i); the one with b pinned to 1,
    a below those of its orbit under b's stabiliser (d, f, j).  The first
    is a's subtree 1, the second the subtrees (v, 1) in ascending v, so
    the lists come in trial order, a = 1 first.
    """
    trials = trial_cells(4)
    on_a, on_b = _orbit_floors(4, 0), _orbit_floors(4, 1)
    if {trials[0], trials[1], *on_a[0], *on_b[1]} != set(range(16)):
        # Unreachable while a and b lie in different orbits of 8 cells.
        raise ValueError("order 4 has a cell that is not in the orbit of a or b")
    searches = [((1,), on_a)] + [((v, 1), on_b) for v in range(2, 17)]
    return [cells for prefix, floors in searches for cells in _iter_generic(4, prefix, floors)]


@lru_cache(maxsize=None)
def _order4_by_orbits() -> tuple[tuple[int, ...], ...]:
    """Every order-4 square, in emission order, from one square per orbit.

    Each of the 220 representatives of _order4_representatives is mapped
    through the 32 cell maps, the 7,040 images are checked pairwise
    distinct and sorted by trial values, the plain search's order.  Built
    once per process on first use; every order-4 run, sharded or not,
    reads this tuple.
    """
    images = [itemgetter(*m) for m in _line_group(4)]
    squares = [image(cells) for cells in _order4_representatives() for image in images]
    if len(set(squares)) != len(squares):
        # Unreachable while the maps form a group acting freely.
        raise RuntimeError("orbit images of the order-4 search repeat a square")
    squares.sort(key=itemgetter(*trial_cells(4)))
    return tuple(squares)


def _raw_iter(n: int, shard: Sequence[int]) -> Iterator[tuple[int, ...]]:
    if n not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported order {n}; supported orders are {SUPPORTED_ORDERS}"
        )
    prefix = _checked_prefix(n, shard)
    if n == 4:
        squares = _order4_by_orbits()
        trial_values = itemgetter(*trial_cells(4))

        def head(cells: tuple[int, ...]) -> tuple[int, ...]:
            return trial_values(cells)[: len(prefix)]

        lo = bisect_left(squares, prefix, key=head)
        return iter(squares[lo : bisect_right(squares, prefix, lo, key=head)])
    return _iter_generic(n, prefix)


def iter_squares(n: int, shard: Sequence[int] = ()) -> Iterator[Square]:
    """Stream every normal magic square of order n exactly once.

    With a shard, streams exactly the squares whose leading trial cells
    carry the shard's values.
    """
    for cells in _raw_iter(n, shard):
        yield Square(n, cells)


def count_squares(n: int, shard: Sequence[int] = ()) -> int:
    """Count without materializing Square objects."""
    return sum(1 for _ in _raw_iter(n, shard))


def single_cell_shards(n: int) -> tuple[tuple[int], ...]:
    """The n^2 disjoint shards fixing the first trial cell to each value."""
    return tuple((v,) for v in range(1, n * n + 1))


def shard_for(n: int, cells: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """Build a shard, insisting `cells` matches the engine's trial order."""
    if len(cells) != len(values):
        raise ValueError("shard cells and values differ in length")
    expected = trial_cells(n)[: len(cells)]
    if tuple(cells) != expected:
        raise ValueError(
            f"shard cells {tuple(cells)} must be the leading trial cells {expected}"
        )
    return tuple(values)


def _shard_worker(args: tuple[int, tuple[int, ...], int | None]) -> list[tuple[int, ...]]:
    n, prefix, limit = args
    return list(islice(_raw_iter(n, prefix), limit))


def enumerate_shards_parallel(
    n: int,
    shards: Iterable[Sequence[int]],
    max_workers: int | None = None,
    limit_per_shard: int | None = None,
) -> Iterator[Square]:
    """Run shards, searches on worker processes, yielding in shard order.

    The plan must pass checked_plan (one prefix depth, no prefix
    repeated) before any square is yielded, so no square is yielded
    twice.  At orders 3 and 5 each shard, a search of its subtree, runs
    on one worker, and results are buffered per shard.  An order-4 shard
    is a slice of the process's one catalog, so order 4 starts no worker:
    the calling process builds the catalog once and yields each slice.
    Shards are concatenated in the order they were given, so the stream
    is byte-identical to running the same shards serially.  With
    `limit_per_shard`, each shard yields at most that many squares; a
    negative limit, or `max_workers` below 1, is an error at every order.
    """
    from concurrent.futures import ProcessPoolExecutor

    plan = checked_plan(n, shards)
    if limit_per_shard is not None and limit_per_shard < 0:
        raise ValueError(f"limit_per_shard must be >= 0, not {limit_per_shard}")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be greater than 0")
    if n == 4:
        for s in plan:
            yield from islice(iter_squares(4, s), limit_per_shard)
        return
    args = [(n, s, limit_per_shard) for s in plan]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for cells_list in pool.map(_shard_worker, args):
            for cells in cells_list:
                yield Square(n, cells)
