"""The orbit-least and value-1 anchored searches, proved from the test side.

The engine derives its 32-map group, its orbit-least predicate and the
order-4 predicate anchored on the cell of value 1 from the group.  Here
the group is found again by brute force over `conftest.universe`, and the
predicates are written out by hand, so each is checked against references
that share no code with the engine.
"""

from __future__ import annotations

import random
from itertools import islice
from operator import itemgetter

import pytest
from conftest import is_anchored, is_least, universe

from magicgen.enumerator import (
    _iter_generic,
    _line_group,
    _orbit_floors,
    iter_squares,
    trial_cells,
)
from magicgen.squares import Transformation, _is_magic_grid


def images(cells: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    return [tuple(cells[i] for i in m) for m in _line_group(n)]


@pytest.fixture(scope="module")
def shard13_head():
    return [sq.cells for sq in islice(iter_squares(5, (13,)), 40)]


def _magic_keeping_maps(n: int, sample) -> set[tuple[int, ...]]:
    """Cell maps of the universe triples that keep every sample square magic."""
    kept = set()
    for triple in universe(n):
        cmap = Transformation(*triple).cell_map()
        image = itemgetter(*cmap)
        if all(_is_magic_grid(image(cells), n) for cells in sample):
            kept.add(cmap)
    return kept


def test_order4_group_is_every_magic_keeping_triple(catalog4):
    kept = _magic_keeping_maps(4, [sq.cells for sq in catalog4])
    assert len(kept) == 32
    assert kept == set(_line_group(4))


def test_order5_group_is_every_magic_keeping_triple(shard13_head):
    kept = _magic_keeping_maps(5, shard13_head)
    assert len(kept) == 32
    assert kept == set(_line_group(5))


@pytest.mark.parametrize("n", [4, 5])
def test_group_closed_under_composition(n):
    maps = set(_line_group(n))
    assert len(maps) == 32
    assert tuple(range(n * n)) in maps
    # A finite set of permutations holding the identity and closed under
    # composition is a group: inverses are powers.
    for m1 in maps:
        for m2 in maps:
            assert tuple(m1[m2[i]] for i in range(n * n)) in maps


def test_order4_exactly_one_image_least(catalog4):
    for sq in catalog4:
        assert sum(is_least(img, 4) for img in images(sq.cells, 4)) == 1


def test_order4_exactly_one_image_anchored(catalog4):
    for sq in catalog4:
        assert sum(is_anchored(img) for img in images(sq.cells, 4)) == 1


def test_order5_exactly_one_image_least(shard13_head):
    for cells in shard13_head:
        imgs = images(cells, 5)
        assert len(set(imgs)) == 32
        assert all(_is_magic_grid(img, 5) for img in imgs)
        assert sum(is_least(img, 5) for img in imgs) == 1


def test_order5_deep_prefixes_keep_the_least_squares(shard13_head):
    # Depth-12 prefixes: of orbit-least images of emitted squares (non-empty
    # reduced subtrees), of the emitted squares themselves, and at random.
    rng = random.Random(83)
    depth = trial_cells(5)[:12]
    least = [next(i for i in images(c, 5) if is_least(i, 5)) for c in shard13_head]
    prefixes = [
        tuple(cells[c] for c in depth)
        for cells in rng.sample(least, 8) + rng.sample(shard13_head, 8)
    ] + [tuple(rng.sample(range(1, 26), 12)) for _ in range(8)]
    nonempty = 0
    for prefix in prefixes:
        reduced = list(_iter_generic(5, prefix, _orbit_floors(5, 0)))
        full = [cells for cells in _iter_generic(5, prefix) if is_least(cells, 5)]
        assert reduced == full, prefix
        nonempty += bool(reduced)
    assert len(set(prefixes)) >= 20
    assert nonempty >= 8


def test_order5_shallow_prefix_keeps_the_least_squares():
    # At depth 1 most levels are trial scans, so the floors set on entering
    # levels 1 and 2 must bind inside the scans, not only on pinned values.
    # With a00 = 4 the full stream holds 8 squares that are not least
    # before its 20th least one (with a00 = 3 it holds none).
    reduced = list(islice(_iter_generic(5, (4,), _orbit_floors(5, 0)), 20))
    full = []
    dropped = 0
    for cells in _iter_generic(5, (4,)):
        if len(full) == 20:
            break
        if is_least(cells, 5):
            full.append(cells)
        else:
            dropped += 1
    assert len(reduced) == 20
    assert reduced == full
    assert dropped >= 1
