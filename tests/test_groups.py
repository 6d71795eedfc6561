from __future__ import annotations

import random
import re
from itertools import islice

import pytest
from conftest import (
    after,
    apply,
    from_rows,
    identity_transformation,
    inverse,
    pair_view,
    universe,
)

from magicgen import groups
from magicgen.enumerator import iter_squares
from magicgen.generators import decompose, symmetric_closure_partition
from magicgen.groups import GroupClosureError, canonical_key, symmetry_group
from magicgen.squares import (
    Square,
    Transformation,
    encode_square,
    grid_symmetries,
    is_normal_magic,
    parse_square,
)


@pytest.fixture(scope="module")
def all3():
    return list(iter_squares(3))


@pytest.fixture(scope="module")
def group3(all3):
    return symmetry_group(all3)


def _triples(n: int) -> list[Transformation]:
    return [Transformation(*triple) for triple in universe(n)]


def _universe_filter(squares) -> set[Transformation]:
    """The universe triples mapping every square of the set into the set."""
    index = {sq.cells for sq in squares}
    kept = set()
    for t in _triples(squares[0].order):
        cmap = t.cell_map()
        if all(tuple(cells[i] for i in cmap) in index for cells in index):
            kept.add(t)
    return kept


class TestUniverse:
    """The test-side reference universe of conftest.universe."""

    def test_sizes(self):
        assert len(universe(3)) == 72
        assert len(universe(4)) == 1152

    def test_contains_identity(self):
        t = identity_transformation(4)
        assert (t.row_perm, t.col_perm, t.transposed) in universe(4)

    def test_no_duplicates(self):
        u = universe(3)
        assert len(set(u)) == len(u)


class TestSymmetryGroup:
    def test_order3_group_is_dihedral(self, all3, group3):
        assert len(group3) == 8
        assert set(group3.members) == set(grid_symmetries(3))

    def test_order3_action_is_transitive(self, all3, group3):
        (orb,) = decompose(all3, group3).orbits
        assert orb.size == 8
        assert {m.cells for m in orb.members} == {sq.cells for sq in all3}

    def test_group_axioms_hold(self, group3):
        members = set(group3.members)
        for t in members:
            assert inverse(t) in members
            for s in members:
                assert after(t, s) in members

    def test_every_member_preserves_the_set(self, all3, group3):
        index = {sq.cells for sq in all3}
        for t in group3.members:
            for sq in all3:
                out = apply(t, sq)
                assert out.cells in index
                assert is_normal_magic(out)

    def test_single_square_with_transpose_closure(self, lo_shu):
        transpose = Transformation((0, 1, 2), (0, 1, 2), True)
        pair_set = [lo_shu, apply(transpose, lo_shu)]
        group = symmetry_group(pair_set)
        assert identity_transformation(3) in group.members
        assert transpose in group.members

    def test_empty_and_mixed_sets_rejected(self, lo_shu, durer):
        with pytest.raises(ValueError, match="empty"):
            symmetry_group([])
        with pytest.raises(ValueError, match="mixes orders"):
            symmetry_group([lo_shu, durer])

    def test_unclosed_triple_set_rejected(self, all3, monkeypatch):
        # Candidates without the half-turn still hold every inverse among
        # the survivors, but quarter-turn after quarter-turn is missing.
        half_turn = grid_symmetries(3)[2]
        candidates = groups._candidates
        monkeypatch.setattr(
            groups,
            "_candidates",
            lambda index, n: [t for t in candidates(index, n) if t != half_turn],
        )
        with pytest.raises(GroupClosureError, match="composition"):
            symmetry_group(all3)

    @pytest.mark.parametrize(
        "dropped, message",
        [
            # Without the identity, a quarter-turn after its inverse is missing.
            ((0,), "composition"),
            # The remaining quarter-turn's inverse is the dropped one.
            ((1,), "composition"),
            (tuple(range(8)), "no triple survived filtering"),
        ],
    )
    def test_closure_alone_rejects_a_missing_identity_or_inverse(
        self, all3, monkeypatch, dropped, message
    ):
        gone = {grid_symmetries(3)[i] for i in dropped}
        candidates = groups._candidates
        monkeypatch.setattr(
            groups,
            "_candidates",
            lambda index, n: [t for t in candidates(index, n) if t not in gone],
        )
        with pytest.raises(GroupClosureError, match=message):
            symmetry_group(all3)

    def test_closure_reaches_a_product_two_generator_steps_deep(self, monkeypatch):
        # A 4-cycle c of rows generates {e, c, c^2, c^3}, all symmetries of
        # a square's <c>-orbit.  Without c^3 among the candidates, every
        # product of two of the generators e and c stays in the set; only
        # c^2 after c, a product of a product, is missing.
        c = Transformation((1, 2, 3, 0), (0, 1, 2, 3))
        c2 = after(c, c)
        sq = Square(4, tuple(range(1, 17)))
        subject = [sq, apply(c, sq), apply(c2, sq), apply(after(c, c2), sq)]
        kept = [identity_transformation(4), c, c2]
        assert {after(s, t) for s in kept[:2] for t in kept[:2]} <= set(kept)
        monkeypatch.setattr(groups, "_candidates", lambda index, n: kept)
        with pytest.raises(
            GroupClosureError, match=re.escape(f"composition {c2} after {c} missing")
        ):
            symmetry_group(subject)

    def test_orbit_escape_filters_a_closed_survivor_set(self, catalog4):
        # g0 is one of the first two squares, so the transpose survives
        # filtering by both, and {identity, transpose} is a group; but it
        # maps the third square out of the set, which only the orbit
        # check sees.
        transpose = Transformation((0, 1, 2, 3), (0, 1, 2, 3), True)
        subject = [catalog4[0], apply(transpose, catalog4[0]), catalog4[-1]]
        assert min(sq.cells for sq in subject) != catalog4[-1].cells
        assert apply(transpose, catalog4[-1]) not in subject
        group = symmetry_group(subject)
        assert group.members == (identity_transformation(4),)
        assert set(group.members) == _universe_filter(subject)

    @pytest.mark.parametrize("letter", ["order3", "A", "B", "C", "D"])
    def test_candidates_are_the_universe_triples_into_the_set(
        self, all3, census4, letter
    ):
        # Brute force over all (n!)^2 * 2 triples: those mapping the least
        # member g0 onto a member, in (transposed, row, column) order.
        squares = all3 if letter == "order3" else census4.trigg_members(letter)
        index = frozenset(sq.cells for sq in squares)
        g0 = min(index)
        n = squares[0].order
        expected = [
            t for t in _triples(n) if tuple(g0[i] for i in t.cell_map()) in index
        ]
        expected.sort(key=lambda t: (t.transposed, t.row_perm, t.col_perm))
        assert len(_triples(n)) == {3: 72, 4: 1152}[n]
        assert groups._candidates(index, n) == expected

    def test_order3_equals_universe_filter(self, all3, group3):
        assert set(group3.members) == _universe_filter(all3)
        for sq in all3:
            assert set(symmetry_group([sq]).members) == _universe_filter([sq])

    @pytest.mark.parametrize("letter", ["A", "B", "C", "D"])
    def test_trigg_class_equals_universe_filter(self, census4, letter):
        members = census4.trigg_members(letter)
        assert set(symmetry_group(members).members) == _universe_filter(members)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_square_and_transpose_past_order_4(self, n, seed):
        # No universe is listed: 28,800 triples at order 5, 1,036,800 at 6.
        cells = list(range(1, n * n + 1))
        random.Random(seed).shuffle(cells)
        sq = Square(n, tuple(cells))
        transpose = Transformation(tuple(range(n)), tuple(range(n)), True)
        group = symmetry_group([sq, apply(transpose, sq)])
        assert set(group.members) == {identity_transformation(n), transpose}

    def test_order5_magic_square_and_transpose(self):
        sq = next(iter_squares(5, (12,)))
        transpose = Transformation(tuple(range(5)), tuple(range(5)), True)
        group = symmetry_group([sq, apply(transpose, sq)])
        assert group.members == (identity_transformation(5), transpose)

    def test_trigg_class_group_orders(self, gencensus4):
        # The triples preserving each whole Trigg class; the published
        # per-generator "group orders" are closure-orbit sizes, not these.
        orders = {c.letter: len(c.group) for c in gencensus4.classes}
        assert orders == {"A": 192, "B": 32, "C": 32, "D": 32}
        pair_views = {c.letter: c.group.pair_view_order for c in gencensus4.classes}
        assert pair_views == {"A": 96, "B": 16, "C": 16, "D": 16}

    def test_pair_view_members_qualify_both_ways(self, by_letter):
        cls = by_letter["A"]
        members = set(cls.group.members)
        for rp, cp in pair_view(cls.group):
            assert Transformation(rp, cp, False) in members
            assert Transformation(rp, cp, True) in members

    def test_pair_view_order_counts_the_listed_pairs(self, by_letter, group3, durer):
        # A square and its half-turn: the group is {identity, half-turn},
        # which holds no transpose, so no pair qualifies although |G| = 2.
        half_turn = Transformation((3, 2, 1, 0), (3, 2, 1, 0), False)
        two = symmetry_group([durer, apply(half_turn, durer)])
        assert set(two.members) == {identity_transformation(4), half_turn}
        subjects = [cls.group for cls in by_letter.values()] + [group3, two]
        assert [g.pair_view_order for g in subjects] == [len(pair_view(g)) for g in subjects]
        assert [g.pair_view_order for g in subjects] == [96, 16, 16, 16, 4, 0]


def _seeded_subject(rng, catalog4, triples) -> list[Square]:
    """A few catalog squares with whole or partial orbits of one triple
    (a grid symmetry half the time), plus some stray triple images."""
    step = rng.choice(grid_symmetries(4) if rng.random() < 0.5 else triples)
    subject = {}
    for sq in rng.sample(catalog4, rng.randint(1, 3)):
        # Every order-4 triple has order dividing 24.
        for _ in range(rng.choice([1, 2, 3, 24, 24])):
            subject[sq.cells] = sq
            sq = apply(step, sq)
    for sq in list(subject.values()):
        if rng.random() < 0.1:
            image = apply(rng.choice(triples), sq)
            subject[image.cells] = image
    return list(subject.values())


def test_seeded_subjects_match_the_references(catalog4):
    # Partly closed subjects: the group against the universe filter, its
    # orbits against each square's images under the group's members, and
    # the closure partition against grouping every square by its own key.
    rng = random.Random(12)
    triples = _triples(4)
    nontrivial = 0
    for _ in range(50):
        subject = _seeded_subject(rng, catalog4, triples)
        group = symmetry_group(subject)
        assert set(group.members) == _universe_filter(subject)
        nontrivial += len(group) > 1

        orbit_of: dict[frozenset, Square] = {}
        for sq in subject:
            images = [apply(t, sq) for t in group.members]
            cells = frozenset(image.cells for image in images)
            orbit_of[cells] = min(images, key=encode_square)
        expected = sorted((encode_square(g), set(c)) for c, g in orbit_of.items())
        parts = decompose(subject, group).orbits
        got = [(encode_square(o.generator), {m.cells for m in o.members}) for o in parts]
        assert got == expected

        by_key: dict[str, list[Square]] = {}
        for sq in subject:
            by_key.setdefault(canonical_key(sq), []).append(sq)
        expected = sorted(
            (encode_square(min(members, key=encode_square)), {m.cells for m in members})
            for members in by_key.values()
        )
        parts = symmetric_closure_partition(decompose(subject, group)).orbits
        got = [(encode_square(o.generator), {m.cells for m in o.members}) for o in parts]
        assert got == expected
    assert nontrivial >= 10


def _brute_force_key(square: Square, maps) -> str:
    src = square.cells
    return min(" ".join(str(src[i]) for i in cmap) for cmap in maps)


def _universe_cell_maps(n: int):
    return [t.cell_map() for t in _triples(n)]


class TestCanonicalKey:
    """canonical_key against the minimum over every candidate-triple image."""

    def test_order3_all_squares(self, all3):
        maps = _universe_cell_maps(3)
        for sq in all3:
            assert canonical_key(sq) == _brute_force_key(sq, maps)

    def test_order4_seeded_sample(self, catalog4, durer):
        # The whole catalog takes ~30 s this way; 600 squares take ~3 s.
        maps = _universe_cell_maps(4)
        sample = [durer] + random.Random(61).sample(catalog4, 600)
        for sq in sample:
            assert canonical_key(sq) == _brute_force_key(sq, maps)

    def test_order5_shard_squares(self):
        maps = _universe_cell_maps(5)
        squares = list(islice(iter_squares(5, (12,)), 3))
        assert len(squares) == 3
        for sq in squares:
            assert canonical_key(sq) == _brute_force_key(sq, maps)


class TestAreSymmetric:
    """Squares are symmetric iff their canonical keys are equal."""

    def test_reflexive(self, lo_shu):
        assert canonical_key(lo_shu) == canonical_key(lo_shu)

    def test_lo_shu_vs_rotation(self, lo_shu):
        rot = apply(grid_symmetries(3)[1], lo_shu)
        assert canonical_key(lo_shu) == canonical_key(rot)

    def test_symmetric_on_samples(self, catalog4):
        # Every universe image of a square has the square's key; keys are
        # texts of images, so the key is itself an image of the square.
        rng = random.Random(53)
        triples = _triples(4)
        for sq in rng.sample(catalog4, 6):
            key = canonical_key(sq)
            for t in rng.sample(triples, 40):
                assert canonical_key(apply(t, sq)) == key
            image = parse_square(key, 4)
            assert canonical_key(image) == key
            assert any(apply(t, sq) == image for t in triples)

    def test_transitive_within_closure_orbits(self, by_letter):
        # All members of one reachability class share one key.
        orb = by_letter["D"].closure_partition.orbits[0]
        assert len({canonical_key(m) for m in orb.members}) == 1

    def test_distinct_type_a_generators_not_symmetric(self, by_letter):
        gens = by_letter["A"].closure_partition.generators()
        assert len(gens) == 3
        assert len({canonical_key(g) for g in gens}) == 3

    def test_order_mismatch(self, lo_shu, durer):
        # A key is an encoding of the square's own order.
        for sq in (lo_shu, durer):
            assert parse_square(canonical_key(sq)).order == sq.order
        assert canonical_key(lo_shu) != canonical_key(durer)


class TestOrbit:
    def test_orbit_size_divides_group_order(self, all3, group3, gencensus4):
        pairs = [(group3, decompose(all3, group3))]
        pairs += [(c.group, c.group_partition) for c in gencensus4.classes]
        for group, partition in pairs:
            for orb in partition.orbits:
                assert len(group) % orb.size == 0

    def test_orbit_is_stable_under_group_members(self, by_letter):
        cls = by_letter["D"]
        orb = cls.group_partition.orbits[0]
        members = {m.cells for m in orb.members}
        for t in list(cls.group.members)[:8]:
            for m in list(orb.members)[:4]:
                assert apply(t, m).cells in members

    def test_generator_is_lexicographic_minimum(self, all3, group3, gencensus4):
        partitions = [decompose(all3, group3)]
        for cls in gencensus4.classes:
            partitions += [cls.group_partition, cls.closure_partition]
        for partition in partitions:
            for orb in partition.orbits:
                assert encode_square(orb.generator) == min(
                    encode_square(m) for m in orb.members
                )

    def test_outside_subject_rejected(self, all3, group3):
        bad = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(ValueError, match="missing from the group"):
            decompose(all3[1:] + [bad], group3)

    def test_type_a_group_orbits_have_size_192(self, by_letter):
        # The class group (order 192) acts freely on Trigg A: six orbits of
        # 192; fusing symmetric orbit pairs gives the published 3 x 384.
        cls = by_letter["A"]
        assert [o.size for o in cls.group_partition.orbits] == [192] * 6
        assert [o.size for o in cls.closure_partition.orbits] == [384] * 3
