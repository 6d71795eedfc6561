"""Completeness of the search, checked without the search engine.

`brute_force_completions` finishes a prefix by trying every assignment of
the remaining trial cells and solving each one exactly with the
constraint system.  It shares only `build_system` and the trial order
with the engines, so it is a differential check for any engine: the
squares of a shard, in emission order, must be exactly the integral,
in-range, distinct-valued magic solutions sorted by trial values.
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice, permutations

import pytest
from conftest import solve

from magicgen.constraints import build_system
from magicgen.enumerator import count_squares, iter_squares, shard_for, trial_cells
from magicgen.squares import _is_magic_grid, encode_square

# sha256 of the first 40 encodings of shard (13,), one per line, as the
# generic engine emitted them when this check was written.
SHARD13_HEAD_SHA256 = "35cfc3b695692fd18c550e437185d898a771bd19d0deeac4938535f0ab3e84d2"

# Depth-12 prefix from the head of shard (2,) whose node one level above
# the last trial level completes two ways, so the last level's scan order
# shows in the emission order (order-4 nodes there complete at most once).
TWO_WAY_PREFIX = (2, 1, 13, 24, 4, 19, 21, 7, 20, 23, 9, 22)

# sha256 of repr(cells) of every square emitted, in order, by the 1,000
# depth-8 order-5 prefixes of random.Random(16); 57 squares in all.
DEPTH8_PIN_SHA256 = "f3635b1f322cf24b30ba50d5b4208827ad1a74e1875d5bc4c02a917f6f5bf80b"


def brute_force_completions(n: int, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
    system = build_system(n)
    trials = trial_cells(n)
    n2 = n * n
    full = set(range(1, n2 + 1))
    rest = sorted(full - set(prefix))
    found = []
    for tail in permutations(rest, len(trials) - len(prefix)):
        values = dict(zip(trials, prefix + tail))
        try:
            cells = solve(system, [values[c] for c in system.free_cells])
        except ValueError:  # a dependent cell that is not an integer
            continue
        if set(cells) == full and _is_magic_grid(cells, n):
            found.append(cells)
    found.sort(key=lambda cells: [cells[c] for c in trials])
    return found


def _prefixes(n: int, emitted, depth: int, seed: int) -> list[tuple[int, ...]]:
    """Half the prefixes from emitted squares (non-empty), half drawn at random."""
    rng = random.Random(seed)
    trials = trial_cells(n)[:depth]
    half = [tuple(sq.cells[c] for c in trials) for sq in rng.sample(emitted, 4)]
    return half + [tuple(rng.sample(range(1, n * n + 1), depth)) for _ in range(4)]


@pytest.fixture(scope="module")
def shard13_head():
    return list(islice(iter_squares(5, (13,)), 40))


def test_shard13_emission_order_pinned(shard13_head):
    text = "".join(encode_square(sq) + "\n" for sq in shard13_head)
    assert hashlib.sha256(text.encode()).hexdigest() == SHARD13_HEAD_SHA256


def test_depth8_order5_emission_pinned():
    # Many small subtrees in the benchmark's shape: every level of the
    # engine below the prefix runs, on 1,000 different line states.
    rng = random.Random(16)
    cells = trial_cells(5)[:8]
    digest = hashlib.sha256()
    emitted = 0
    for _ in range(1000):
        shard = shard_for(5, cells, rng.sample(range(1, 26), 8))
        for sq in iter_squares(5, shard):
            digest.update(repr(sq.cells).encode())
            emitted += 1
    assert emitted == 57
    assert digest.hexdigest() == DEPTH8_PIN_SHA256


def test_order4_shards_equal_brute_force(catalog4):
    for prefix in _prefixes(4, catalog4, 4, seed=41):
        mine = [sq.cells for sq in iter_squares(4, prefix)]
        assert mine == brute_force_completions(4, prefix), prefix


def test_order5_shards_equal_brute_force(shard13_head):
    prefixes = _prefixes(5, shard13_head, 12, seed=51) + [TWO_WAY_PREFIX]
    nonempty = 0
    for prefix in prefixes:
        mine = [sq.cells for sq in iter_squares(5, prefix)]
        assert mine == brute_force_completions(5, prefix), prefix
        nonempty += bool(mine)
    assert nonempty >= 5
    assert len(brute_force_completions(5, TWO_WAY_PREFIX)) >= 2


def test_order5_complement_invariance(shard13_head):
    depth8 = trial_cells(5)[:8]
    prefixes = sorted({tuple(sq.cells[c] for c in depth8) for sq in shard13_head})
    for p in prefixes:
        count = count_squares(5, p)
        assert count >= sum(
            1 for sq in shard13_head if tuple(sq.cells[c] for c in depth8) == p
        )
        assert count == count_squares(5, tuple(26 - v for v in p)), p
