from __future__ import annotations

import pytest
from conftest import universe

from magicgen.classifier import ClassLabel, DudeneyCensus
from magicgen.enumerator import iter_squares
from magicgen.generators import (
    REFERENCE_HISTOGRAMS,
    REFERENCE_TOTAL_GENERATORS,
    OrbitPartition,
    census,
    decompose,
    symmetric_closure_partition,
    verify_partition,
)
from magicgen.groups import Orbit, symmetry_group
from magicgen.squares import Transformation, encode_square


@pytest.fixture(scope="module")
def all3():
    return list(iter_squares(3))


@pytest.fixture(scope="module")
def partition3(all3):
    return decompose(all3, symmetry_group(all3), "order3")


def test_order3_single_orbit(all3, partition3):
    assert len(partition3.orbits) == 1
    assert partition3.size_histogram == {8: 1}
    closure = symmetric_closure_partition(all3, "order3")
    assert closure.size_histogram == {8: 1}
    assert closure.generators() == partition3.generators()


def test_order3_verifies(all3, partition3):
    assert verify_partition(partition3, all3).ok


class TestCensus:
    def test_total_generators(self, gencensus4):
        assert gencensus4.total_generators == REFERENCE_TOTAL_GENERATORS == 95

    def test_closure_histograms_match_published(self, gencensus4):
        for cls in gencensus4.classes:
            assert (
                cls.closure_partition.size_histogram
                == REFERENCE_HISTOGRAMS[cls.letter]
            )
        assert gencensus4.discrepancies == ()

    def test_group_view_is_finer(self, gencensus4):
        # Each closure class is a union of whole group orbits.
        for cls in gencensus4.classes:
            group_orbits = {
                frozenset(m.cells for m in o.members)
                for o in cls.group_partition.orbits
            }
            for closure_orbit in cls.closure_partition.orbits:
                closure_cells = {m.cells for m in closure_orbit.members}
                covered = [
                    go for go in group_orbits if go <= closure_cells
                ]
                assert sum(len(go) for go in covered) == len(closure_cells)

    def test_subgroup_splits(self, gencensus4):
        b = gencensus4.by_letter("B").subgroup_split()
        assert b == (
            ("B-1", 192, 12),
            ("B-2", 96, 4),
            ("B-3", 64, 10),
            ("B-4", 32, 20),
        )
        c = gencensus4.by_letter("C").subgroup_split()
        assert c == (("C-1", 64, 12), ("C-2", 32, 32))
        assert gencensus4.by_letter("A").subgroup_split() == ()
        assert gencensus4.by_letter("D").subgroup_split() == ()

    def test_populations_covered(self, gencensus4):
        for cls in gencensus4.classes:
            assert cls.group_partition.total == cls.population
            assert cls.closure_partition.total == cls.population

    def test_generators_reproduce_their_orbits(self, census4, gencensus4):
        # Every universe image of the generator that is a class member is in
        # the orbit, and every orbit member is such an image: a full
        # expansion, independent of the canonical keys the partition uses.
        maps = [Transformation(*triple).cell_map() for triple in universe(4)]
        for letter in "ABCD":
            subject = {sq.cells for sq in census4.trigg_members(letter)}
            cls = gencensus4.by_letter(letter)
            for orb in cls.closure_partition.orbits:
                src = orb.generator.cells
                reach = {tuple(src[i] for i in cmap) for cmap in maps}
                assert {m.cells for m in orb.members} == reach & subject

    def test_class_spanning_two_trigg_classes_raises(self, census4):
        # Relabel class XI (Trigg D) as Trigg C: C and D then each hold
        # half of a closure class, which the census must refuse.
        labels = dict(census4.labels)
        xi = census4.class_by_numeral["XI"].signature
        labels[xi] = ClassLabel("XI", "C")
        doctored = DudeneyCensus(census4.classes, labels)
        with pytest.raises(ValueError, match="Trigg classes C and D"):
            census(doctored)


class TestPeelingOrderIndependence:
    def test_reversed_peeling_gives_same_partition(self, census4):
        members = census4.trigg_members("D")
        group = symmetry_group(members)
        forward = decompose(members, group, "D")
        # Re-peel from the other end by reversing the selection order.
        remaining = {sq.cells: sq for sq in members}
        backward_orbits = []
        from magicgen.groups import orbit as group_orbit

        while remaining:
            sq = max(remaining.values(), key=encode_square)
            orb = group_orbit(sq, group)
            backward_orbits.append(orb)
            for m in orb.members:
                del remaining[m.cells]
        as_sets = lambda orbits: {
            frozenset(m.cells for m in o.members) for o in orbits
        }
        assert as_sets(forward.orbits) == as_sets(backward_orbits)


class TestVerifyPartition:
    def test_passes_for_all_census_partitions(self, census4, gencensus4):
        for cls in gencensus4.classes:
            members = census4.trigg_members(cls.letter)
            assert verify_partition(cls.closure_partition, members).ok
            assert verify_partition(
                cls.group_partition, members, transformations=cls.group.members
            ).ok

    def test_duplicate_injection_fails_disjointness(self, all3, partition3):
        orb = partition3.orbits[0]
        dup = OrbitPartition("tampered", "group", (orb, orb))
        verdict = verify_partition(dup, all3)
        assert not verdict.ok
        assert any("more than one orbit" in p for p in verdict.problems)

    def test_missing_square_fails_coverage(self, all3, partition3):
        orb = partition3.orbits[0]
        short = sorted(orb.members, key=encode_square)[:-1]
        cut = Orbit(frozenset(short), min(short, key=encode_square))
        verdict = verify_partition(
            OrbitPartition("tampered", "group", (cut,)), all3
        )
        assert not verdict.ok
        assert any("coverage" in p for p in verdict.problems)

    def test_wrong_generator_detected(self, all3, partition3):
        orb = partition3.orbits[0]
        wrong = Orbit(orb.members, max(orb.members, key=encode_square))
        verdict = verify_partition(
            OrbitPartition("tampered", "group", (wrong,)), all3
        )
        assert not verdict.ok
        assert any("minimum" in p for p in verdict.problems)

    def test_symmetric_generators_detected(self, gencensus4, census4):
        # Two group-view orbits of Trigg A fuse under the full universe, so
        # checking the group partition against the universe must fail,
        # while its own group keeps them apart.
        cls = gencensus4.by_letter("A")
        members = census4.trigg_members("A")
        verdict = verify_partition(cls.group_partition, members)
        assert not verdict.ok
        assert any("symmetric" in p for p in verdict.problems)
        assert verify_partition(
            cls.group_partition, members, transformations=cls.group.members
        ).ok

    def test_symmetric_pair_found_past_any_sample(self, gencensus4, census4):
        # Split the last Trigg C closure orbit in two: only the final pair
        # of its 45 generators clashes, one pair in 990.  Both the key
        # check and the explicit-triple check must find it.
        cls = gencensus4.by_letter("C")
        members = census4.trigg_members("C")
        orbits = sorted(
            cls.closure_partition.orbits, key=lambda o: encode_square(o.generator)
        )
        rest = sorted(orbits.pop().members, key=encode_square)
        orbits.append(Orbit(frozenset(rest[:1]), rest[0]))
        orbits.append(Orbit(frozenset(rest[1:]), rest[1]))
        tampered = OrbitPartition("tampered", "closure", tuple(orbits))
        clash = f"generators {len(orbits) - 2} and {len(orbits) - 1} are symmetric"
        triples = [Transformation(*triple) for triple in universe(4)]
        for transformations in (None, triples):
            verdict = verify_partition(tampered, members, transformations)
            assert verdict.problems == (f"{clash} to each other",)


def test_decompose_rejects_foreign_squares(census4):
    a = census4.trigg_members("A")
    d = census4.trigg_members("D")
    group_d = symmetry_group(d)
    with pytest.raises(ValueError, match="missing from the group"):
        decompose(a, group_d, "mismatch")
