from __future__ import annotations

import concurrent.futures
import dataclasses
import random
from fractions import Fraction
from itertools import islice, permutations
from operator import itemgetter

import pytest
from conftest import is_anchored, is_least, solve

from magicgen import enumerator
from magicgen.constraints import build_system
from magicgen.enumerator import (
    _iter_generic,
    _line_group,
    _order4_by_orbits,
    _order4_representatives,
    _orbit_floors,
    _plan,
    checked_plan,
    count_squares,
    enumerate_shards_parallel,
    iter_squares,
    shard_for,
    single_cell_shards,
    trial_cells,
)
from magicgen.squares import Square, _is_magic_grid, _tables, is_normal_magic


def test_trial_order_matches_design():
    assert trial_cells(3) == (0, 1)
    # a, b, c (forces d), e, i (forces m and p), f (forces k), g (rest).
    assert trial_cells(4) == (0, 1, 2, 4, 8, 5, 6)
    assert trial_cells(5) == (0, 1, 2, 3, 5, 6, 7, 8, 10, 15, 12, 11, 13, 17)


@pytest.fixture
def fresh_plan():
    """_plan rebuilt from whatever build_system returns, and again after."""
    _plan.cache_clear()
    yield
    _plan.cache_clear()


@pytest.mark.parametrize("k", [-3, 1, 7])
def test_plan_takes_line_targets_from_the_system(k, monkeypatch, fresh_plan):
    # Each line starts needing its equation's right-hand side, so raising
    # every target by k moves every line need by k and nothing else.
    plan = _plan(4)
    system = build_system(4)
    raised = dataclasses.replace(
        system, equations=tuple((coeffs, rhs + k) for coeffs, rhs in system.equations)
    )
    monkeypatch.setattr(enumerator, "build_system", lambda n: raised)
    _plan.cache_clear()
    moved = _plan(4)
    assert moved.need0 == tuple(need + k for need in plan.need0)
    assert dataclasses.replace(moved, need0=plan.need0) == plan


@pytest.mark.parametrize("n", [3, 4, 5])
def test_plan_line_bounds_match_a_recount(n):
    # From nothing placed, per level the trial cell and then the dependents
    # it completes, in the plan's order; a line's bounds are the least and
    # greatest sums of its cells still open after each cell, and a
    # dependent's line also stores how many of its cells are still open.  A
    # dependent with no free-cell term fires at level 0.
    plan = _plan(n)
    system = build_system(n)
    lines = _tables(n).magic_lines
    n2 = n * n
    pos = {cell: i for i, cell in enumerate(plan.trials)}
    placed: set[int] = set()
    constant = {dep.cell for dep in system.dependencies if not dep.terms}
    assert constant == ({4} if n == 3 else set())
    assert constant <= {dep[0] for dep in plan.forced[0]}

    def recount(cell: int) -> list[tuple[int, int, int, int]]:
        placed.add(cell)
        bounds = []
        for lid, line in enumerate(lines):
            if cell in line:
                r = sum(c not in placed for c in line)
                bounds.append((lid, r * (r + 1) // 2, r * (2 * n2 + 1 - r) // 2, r))
        return bounds

    for level, tcell in enumerate(plan.trials):
        assert plan.tlines[level] == tuple(line[:3] for line in recount(tcell))
        fired = {
            dep.cell
            for dep in system.dependencies
            if max((pos[c] for c, _ in dep.terms), default=0) == level
        }
        assert {dep[0] for dep in plan.forced[level]} == fired
        for cell, _, _, flines in plan.forced[level]:
            assert flines == tuple(recount(cell))
    assert len(placed) == n2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_carried_bases_equal_the_dependency_forms(n):
    # Level L's bases plus carry[L] times trial L's value are level L+1's;
    # each dependent's base must be its form summed over the earlier trials.
    plan = _plan(n)
    forms = {dep.cell: dep.integer_form() for dep in build_system(n).dependencies}
    values = dict(zip(plan.trials, random.Random(n).sample(range(1, n * n + 1), n * n)))
    bases = list(plan.bases0)
    for level, tcell in enumerate(plan.trials):
        advance = plan.carry[level]
        assert len(bases) - len(advance) == len(plan.forced[level])
        for (cell, den, m, _), base in zip(plan.forced[level], bases[len(advance) :]):
            form_den, cnum, terms = forms[cell]
            assert (den, m) == (form_den, dict(terms).get(tcell, 0))
            assert base == cnum + sum(num * values[c] for c, num in terms if c != tcell)
        bases = [b + c * values[tcell] for b, c in zip(bases, advance)]
    assert bases == []


# Search levels entered (calls of `place`) on the 1,000 depth-8 prefixes of
# random.Random(16) that test_depth8_order5_emission_pinned searches:
# 244,742 with the one-open-cell rule alone, 166,976 once a dependent's line
# with two open cells must need two distinct unused values.
DEPTH8_LEVELS_ENTERED = 166_976


def test_depth8_order5_pruning_does_not_weaken(monkeypatch):
    # Pruning is sound, so a weaker rule emits the same squares; only the
    # work shows it.  Each call of `place` reads carry[level] once.
    plan = _plan(5)
    entered = 0

    class Counted(tuple):
        def __getitem__(self, level):
            nonlocal entered
            entered += 1
            return tuple.__getitem__(self, level)

    counted = dataclasses.replace(plan, carry=Counted(plan.carry))
    monkeypatch.setattr(enumerator, "_plan", lambda n: counted)
    rng = random.Random(16)
    cells = trial_cells(5)[:8]
    for _ in range(1000):
        for _ in iter_squares(5, shard_for(5, cells, rng.sample(range(1, 26), 8))):
            pass
    assert entered <= DEPTH8_LEVELS_ENTERED


def test_unit_dependent_with_a_base_below_two_yields_nothing(monkeypatch):
    # Level 2's dependent is base - v with m = -1.  A constant of 0 makes
    # its base -(a + b), which no v >= 1 can lift to 1, and an even
    # negative base once broke the mask with a negative shift count.
    plan = _plan(4)
    patched = dataclasses.replace(plan, bases0=plan.bases0[:-1] + (0,))
    assert patched.forced[2][0][2] == -1
    monkeypatch.setattr(enumerator, "_plan", lambda n: patched)
    assert list(_iter_generic(4, ())) == []


def test_order3_centre_is_a_level0_dependent():
    # The centre's dependency has no free-cell term, so it fires with trial
    # 0 at m = 0; level 0's bases are the last of bases0.
    plan = _plan(3)
    level0 = dict(zip((dep[0] for dep in plan.forced[0]), plan.bases0[-len(plan.forced[0]) :]))
    assert [dep[:3] for dep in plan.forced[0] if dep[0] == 4] == [(4, 1, 0)]
    assert level0[4] == 5
    assert [sq.cells for sq in iter_squares(3)] == [
        (2, 7, 6, 9, 5, 1, 4, 3, 8),
        (2, 9, 4, 7, 5, 3, 6, 1, 8),
        (4, 3, 8, 9, 5, 1, 2, 7, 6),
        (4, 9, 2, 3, 5, 7, 8, 1, 6),
        (6, 1, 8, 7, 5, 3, 2, 9, 4),
        (6, 7, 2, 1, 5, 9, 8, 3, 4),
        (8, 1, 6, 3, 5, 7, 4, 9, 2),
        (8, 3, 4, 1, 5, 9, 6, 7, 2),
    ]


@pytest.mark.parametrize("centre", [0, 10])
def test_constant_outside_the_value_range_yields_nothing(centre, monkeypatch, fresh_plan):
    # A term-free dependent is checked like any other: its value must lie
    # in 1..n^2, whatever trial 0 takes.
    system = build_system(3)
    moved = dataclasses.replace(
        system,
        dependencies=tuple(
            dataclasses.replace(dep, const=Fraction(centre)) if dep.cell == 4 else dep
            for dep in system.dependencies
        ),
    )
    monkeypatch.setattr(enumerator, "build_system", lambda n: moved)
    _plan.cache_clear()
    assert list(_iter_generic(3, ())) == []


def test_order3_matches_brute_force_oracle():
    brute = {
        p for p in permutations(range(1, 10)) if _is_magic_grid(p, 3)
    }
    mine = [sq.cells for sq in iter_squares(3)]
    assert len(mine) == 8
    assert set(mine) == brute
    assert len(set(mine)) == len(mine)


def test_order4_count(catalog4):
    assert len(catalog4) == 7040


def test_order4_no_duplicates(catalog4):
    assert len({sq.cells for sq in catalog4}) == 7040


def test_order4_all_magic_rechecked(catalog4):
    assert all(is_normal_magic(sq) for sq in catalog4)


def test_unsupported_order():
    with pytest.raises(ValueError, match="unsupported order"):
        count_squares(6)


def test_determinism_two_runs_identical():
    a = [sq.cells for sq in iter_squares(4, (7,))]
    b = [sq.cells for sq in iter_squares(4, (7,))]
    assert a == b


# The trial values (cells a, b, c, e, i, f, g) of one catalog square fix
# it completely: a shard prefix of the full basis depth.
DEEPEST_SQUARE = (4, 1, 15, 14, 13, 16, 2, 3, 6, 7, 9, 12, 11, 10, 8, 5)
DEEPEST = (4, 1, 15, 13, 6, 16, 2)
# No order-4 square starts with these trial values.
EMPTY = (1, 8, 10, 15)


@pytest.mark.parametrize(
    "prefix", [(1,), (7,), (16,), (1, 15), (3, 5, 16), EMPTY, DEEPEST]
)
def test_order4_fast_path_equals_generic_engine(prefix):
    # An order-4 shard is a slice of the expanded catalog; the full-mode
    # generic search of the same subtree is the reference.
    expected = list(_iter_generic(4, prefix))
    assert [sq.cells for sq in iter_squares(4, prefix)] == expected
    if prefix == EMPTY:
        assert expected == []
    if prefix == DEEPEST:
        assert expected == [DEEPEST_SQUARE]


class TestOrbitLeastOrder4:
    """The unsharded order-4 run: 220 orbit-least squares times 32 maps."""

    def test_full_run_equals_concatenated_generic_shards(self, catalog4):
        # Shards are slices of the full run, so the reference is the
        # full-mode generic search of each single-cell subtree.
        shards = [
            cells for s in single_cell_shards(4) for cells in _iter_generic(4, s)
        ]
        assert [sq.cells for sq in catalog4] == shards

    def test_least_squares_are_the_catalog_squares_passing_the_predicate(self, catalog4):
        least = list(_iter_generic(4, (), _orbit_floors(4, 0)))
        assert len(least) == 220
        assert len(least) * len(_line_group(4)) == 7040
        assert least == [sq.cells for sq in catalog4 if is_least(sq.cells, 4)]

    def test_representatives_are_the_catalog_squares_placing_1_at_a_or_b(self, catalog4):
        # The two anchored searches, a = 1 then b = 1, emit in trial order,
        # so their concatenation is the catalog filtered in place.
        reps = _order4_representatives()
        assert reps == [sq.cells for sq in catalog4 if is_anchored(sq.cells)]
        assert sum(cells[0] == 1 for cells in reps) == 104
        assert sum(cells[1] == 1 for cells in reps) == 116
        assert len(reps) * len(_line_group(4)) == 7040

    def test_anchored_floors_derived_from_the_group(self):
        # b's orbit under a's stabiliser is {b, c, e, i}, a's under b's is
        # {a, d, f, j}; the anchor's own floors (the rest of its 8-cell
        # orbit) hold by themselves once it is pinned to 1.
        assert _orbit_floors(4, 0) == ((3, 5, 6, 9, 10, 12, 15), (2, 4, 8))
        assert _orbit_floors(4, 1) == ((3, 5, 9), (2, 4, 7, 8, 11, 13, 14))

    def test_cell_outside_both_anchor_orbits_raises(self, monkeypatch):
        # At order 5 the centre is fixed by every map, so a square with 1 at
        # the centre has no image placing 1 at a or b.  An order-4 group
        # with the same defect must be refused, not searched.
        on_b = _orbit_floors(4, 1)
        monkeypatch.setattr(
            enumerator, "_orbit_floors", lambda n, first: on_b if first else ((3,), (2,))
        )
        with pytest.raises(ValueError, match="not in the orbit of a or b"):
            _order4_representatives()

    def test_floors_placed_before_their_anchor_raise(self, monkeypatch):
        # A floor set on entering level 1 cannot bind a cell placed at
        # level 0: a group that would need one is refused.
        maps = _line_group(4)
        swap = tuple(1 if c == 0 else 0 if c == 1 else c for c in range(16))
        monkeypatch.setattr(enumerator, "_line_group", lambda n: maps + (swap,))
        with pytest.raises(ValueError, match="no orbit floors"):
            _orbit_floors.__wrapped__(4, 1)

    def test_repeated_image_raises(self, monkeypatch):
        # A map listed twice would emit its images twice.  The floors are
        # cached from the true group first, so only the expansion sees it,
        # and the unmemoized builder runs, not a catalog cached earlier.
        maps = _line_group(4)
        _orbit_floors(4, 0), _orbit_floors(4, 1)
        monkeypatch.setattr(enumerator, "_line_group", lambda n: maps[:1] + maps[:-1])
        with pytest.raises(RuntimeError, match="repeat a square"):
            _order4_by_orbits.__wrapped__()

    def test_order4_squares_are_validated_once_per_process(self, monkeypatch):
        # Building the catalog validates each of its 7,040 squares; every
        # later order-4 pass, whole or sharded, yields those very objects.
        cached = _order4_by_orbits()
        validated = []
        original = Square.__post_init__

        def counting(square):
            validated.append(square.cells)
            original(square)

        monkeypatch.setattr(Square, "__post_init__", counting)
        built = _order4_by_orbits.__wrapped__()
        assert len(validated) == 7040
        assert [sq.cells for sq in built] == [sq.cells for sq in cached]
        validated.clear()
        whole = list(iter_squares(4))
        sharded = [sq for s in single_cell_shards(4) for sq in iter_squares(4, s)]
        served = list(enumerate_shards_parallel(4, single_cell_shards(4)))
        assert sum(count_squares(4, s) for s in single_cell_shards(4)) == 7040
        assert validated == []
        for squares in (whole, sharded, served):
            assert len(squares) == 7040
            assert all(sq is own for sq, own in zip(squares, cached))


class TestShards:
    def test_complementary_shards_have_equal_counts(self):
        # v -> 17-v maps magic squares to magic squares and a=1 to a=16.
        assert count_squares(4, (1,)) == count_squares(4, (16,))

    def test_contradictory_shard_is_empty(self):
        # No order-3 square has 1 in a corner (and 5 is pinned to the center).
        assert count_squares(3, (1,)) == 0
        assert count_squares(3, (5,)) == 0

    def test_shard_partition_sums_to_total(self, catalog4):
        counts = [count_squares(4, s) for s in single_cell_shards(4)]
        assert len(counts) == 16
        assert sum(counts) == 7040

    @pytest.mark.parametrize("depth", [1, 2])
    def test_order4_shards_are_the_trial_value_filter(self, catalog4, depth):
        # Every prefix of the depth, empty shards included, against a
        # filter over the whole catalog.
        trial_values = itemgetter(*trial_cells(4))
        cells = [sq.cells for sq in catalog4]
        empty = 0
        for prefix in permutations(range(1, 17), depth):
            expected = [c for c in cells if trial_values(c)[:depth] == prefix]
            assert [sq.cells for sq in iter_squares(4, prefix)] == expected
            assert count_squares(4, prefix) == len(expected)
            empty += not expected
        assert empty == (0 if depth == 1 else 6)

    def test_invalid_prefixes_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            count_squares(4, (3, 3))
        with pytest.raises(ValueError, match="outside"):
            count_squares(4, (17,))
        with pytest.raises(ValueError, match="longer"):
            count_squares(3, (1, 2, 3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("value", [1.5, 2.0, "1", True, None])
    def test_non_int_prefix_values_rejected(self, n, value):
        # A float between 1 and n^2 passes the range check and would pin
        # nothing, and a str or None fails it with a TypeError.
        message = rf"shard prefix value {value!r} is not an int"
        with pytest.raises(ValueError, match=message):
            count_squares(n, (value,))
        with pytest.raises(ValueError, match=message):
            checked_plan(n, [(2,), (value,)])

    def test_shard_for_validates_cells(self):
        assert shard_for(4, [0, 1], [3, 9]) == (3, 9)
        with pytest.raises(ValueError, match="leading trial cells"):
            shard_for(4, [0, 2], [3, 9])

    def test_parallel_merge_matches_serial(self):
        shards = [(v,) for v in (2, 3)]
        serial = [sq.cells for s in shards for sq in iter_squares(4, s)]
        parallel = [
            sq.cells
            for sq in enumerate_shards_parallel(4, shards, max_workers=2)
        ]
        assert parallel == serial

    @pytest.mark.parametrize(
        "prefixes, match",
        [
            ([(1,), (1,)], "repeats prefix"),
            ([(1,), (1, 2)], "mixes prefix depths"),
            ([(1,), (1,), (1, 2)], "repeats prefix"),
            ([(2, 3), (5,)], "mixes prefix depths"),
        ],
        ids=["repeated", "nested", "repeated-and-nested", "mixed-depth"],
    )
    def test_parallel_rejects_overlapping_plan(self, prefixes, match):
        # Repeated and nested prefixes would yield a subtree twice; any mix
        # of depths is rejected the same way.
        with pytest.raises(ValueError, match=match):
            next(enumerate_shards_parallel(4, prefixes, max_workers=2))

    def test_parallel_limit_per_shard(self):
        shards = [(v,) for v in (2, 3)]
        zero = enumerate_shards_parallel(4, shards, max_workers=2, limit_per_shard=0)
        assert list(zero) == []
        two = enumerate_shards_parallel(4, shards, max_workers=2, limit_per_shard=2)
        serial = [sq.cells for s in shards for sq in islice(iter_squares(4, s), 2)]
        assert [sq.cells for sq in two] == serial
        with pytest.raises(ValueError, match="limit_per_shard"):
            next(enumerate_shards_parallel(4, shards, max_workers=2, limit_per_shard=-1))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_parallel_rejects_max_workers_below_one(self, n, max_workers):
        squares = enumerate_shards_parallel(n, [(1,), (2,)], max_workers=max_workers)
        with pytest.raises(ValueError, match="max_workers must be greater than 0"):
            next(squares)

    @pytest.mark.parametrize("n", [3, 4])
    def test_parallel_reads_a_generator_plan_once(self, n):
        # The plan is checked and then run from the checked tuple, so a
        # generator gives what the same plan as a list does.
        shards = single_cell_shards(n)
        listed = [sq.cells for sq in enumerate_shards_parallel(n, list(shards), max_workers=2)]
        generated = enumerate_shards_parallel(n, (s for s in shards), max_workers=2)
        assert [sq.cells for sq in generated] == listed
        assert len(listed) == count_squares(n)

    def test_checked_plan_returns_the_prefixes(self):
        assert checked_plan(4, iter([[2, 3], (5, 1)])) == ((2, 3), (5, 1))
        with pytest.raises(ValueError, match="empty"):
            checked_plan(4, iter(()))

    def test_checked_plan_refuses_an_unsupported_order(self, fresh_plan):
        with pytest.raises(ValueError, match="unsupported order 6"):
            checked_plan(6, [(1,)])
        assert _plan.cache_info().currsize == 0

    def test_unsupported_order_is_refused_before_a_pool_starts(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(ValueError, match="unsupported order 6"):
            next(enumerate_shards_parallel(6, [(1,)]))

    def test_order4_starts_no_pool(self, monkeypatch):
        # Order-4 shards are slices of the calling process's catalog, and
        # order-3 shards are searches on the pool.
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        shards = single_cell_shards(4)
        parallel = [sq.cells for sq in enumerate_shards_parallel(4, shards, max_workers=2)]
        assert parallel == [sq.cells for sq in iter_squares(4)]
        with pytest.raises(RuntimeError, match="worker pool"):
            next(enumerate_shards_parallel(3, single_cell_shards(3), max_workers=2))


class TestPoolOrderThree:
    """The pool path, on the order-3 shards: each is a search on a worker."""

    def test_pool_merge_matches_serial(self):
        shards = single_cell_shards(3)
        serial = [sq.cells for s in shards for sq in iter_squares(3, s)]
        assert len(serial) == 8
        parallel = [
            sq.cells for sq in enumerate_shards_parallel(3, shards, max_workers=2)
        ]
        assert parallel == serial

    def test_pool_limit_per_shard(self):
        shards = single_cell_shards(3)
        zero = enumerate_shards_parallel(3, shards, max_workers=2, limit_per_shard=0)
        assert list(zero) == []
        one = enumerate_shards_parallel(3, shards, max_workers=2, limit_per_shard=1)
        serial = [sq.cells for s in shards for sq in islice(iter_squares(3, s), 1)]
        assert len(serial) == 4
        assert [sq.cells for sq in one] == serial
        with pytest.raises(ValueError, match="limit_per_shard"):
            next(enumerate_shards_parallel(3, shards, max_workers=2, limit_per_shard=-1))

    @pytest.mark.parametrize(
        "prefixes, match",
        [
            ([(1,), (1,)], "repeats prefix"),
            ([(1,), (1, 2)], "mixes prefix depths"),
            ([(2, 3), (5,)], "mixes prefix depths"),
        ],
        ids=["repeated", "nested", "mixed-depth"],
    )
    def test_pool_rejects_overlapping_plan(self, prefixes, match):
        with pytest.raises(ValueError, match=match):
            next(enumerate_shards_parallel(3, prefixes, max_workers=2))


class TestOrderFive:
    def test_leading_shard_squares_are_magic_and_round_trip(self):
        system = build_system(5)
        sample = list(islice(_iter_generic(5, (13,)), 60))
        assert len(sample) == 60
        for cells in sample:
            assert _is_magic_grid(cells, 5)
            basis = [cells[c] for c in system.free_cells]
            assert solve(system, basis) == cells

    def test_deep_prefix_matches_filtered_shallow(self):
        tcells = trial_cells(5)
        shallow = list(islice(_iter_generic(5, (13,)), 40))
        first = shallow[0]
        deep_prefix = tuple(first[c] for c in tcells[:4])
        deep = list(islice(_iter_generic(5, deep_prefix), 40))
        expect = [
            cells
            for cells in shallow
            if tuple(cells[c] for c in tcells[:4]) == deep_prefix
        ]
        assert deep[: len(expect)] == expect
