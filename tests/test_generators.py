from __future__ import annotations

from collections import Counter
from operator import itemgetter

import pytest
from conftest import apply, universe, verify_partition

from magicgen import classifier, generators, groups, pipeline
from magicgen.classifier import TRIGG_LETTERS, ClassLabel, DudeneyCensus
from magicgen.enumerator import iter_squares
from magicgen.generators import (
    REFERENCE_HISTOGRAMS,
    OrbitPartition,
    census,
    class_census,
    decompose,
    symmetric_closure_partition,
)
from magicgen.groups import (
    EncodingOrder,
    Orbit,
    TransformationGroup,
    canonical_key,
    symmetry_group,
)
from magicgen.pipeline import attach_orbits, classify_catalog
from magicgen.squares import Square, Transformation, encode_square, grid_symmetries


@pytest.fixture(scope="module")
def all3():
    return list(iter_squares(3))


@pytest.fixture(scope="module")
def partition3(all3):
    return decompose(all3, symmetry_group(all3), "order3")


def test_order3_single_orbit(all3, partition3):
    assert len(partition3.orbits) == 1
    assert partition3.size_histogram == {8: 1}
    closure = symmetric_closure_partition(partition3)
    assert closure.size_histogram == {8: 1}
    assert closure.generators() == partition3.generators()


def test_order3_verifies(all3, partition3):
    assert verify_partition(partition3, all3) == ()


def test_orbits_come_in_generator_order(all3, gencensus4):
    # generators() returns the orbits' generators as they stand, so every
    # class partition must hold its orbits in strictly ascending generator
    # encoding.
    classes = [class_census("order3", all3, "order3"), *gencensus4.classes]
    for cls in classes:
        for partition in (cls.group_partition, cls.closure_partition):
            encodings = [encode_square(o.generator) for o in partition.orbits]
            assert all(a < b for a, b in zip(encodings, encodings[1:]))
            assert partition.generators() == tuple(o.generator for o in partition.orbits)


class TestCensus:
    def test_classes_follow_the_trigg_letters(self, gencensus4):
        assert tuple(cls.letter for cls in gencensus4.classes) == TRIGG_LETTERS

    def test_total_generators(self, gencensus4):
        # The published total is the sum of the A-D reference histograms:
        # 3 + 46 + 44 + 2 generators.
        published = sum(sum(REFERENCE_HISTOGRAMS[letter].values()) for letter in "ABCD")
        assert gencensus4.total_generators == published == 95

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

    def test_subgroup_splits(self, by_letter):
        b = by_letter["B"].subgroup_split()
        assert b == (
            ("B-1", 192, 12),
            ("B-2", 96, 4),
            ("B-3", 64, 10),
            ("B-4", 32, 20),
        )
        c = by_letter["C"].subgroup_split()
        assert c == (("C-1", 64, 12), ("C-2", 32, 32))
        assert by_letter["A"].subgroup_split() == ()
        assert by_letter["D"].subgroup_split() == ()

    def test_populations_covered(self, gencensus4):
        for cls in gencensus4.classes:
            assert cls.group_partition.total == cls.population
            assert cls.closure_partition.total == cls.population

    def test_generators_reproduce_their_orbits(self, census4, by_letter):
        # Every universe image of the generator that is a class member is in
        # the orbit, and every orbit member is such an image: a full
        # expansion, independent of the canonical keys the partition uses.
        maps = [Transformation(*triple).cell_map() for triple in universe(4)]
        for letter in "ABCD":
            subject = {sq.cells for sq in census4.trigg_members(letter)}
            cls = by_letter[letter]
            for orb in cls.closure_partition.orbits:
                src = orb.generator.cells
                reach = {tuple(src[i] for i in cmap) for cmap in maps}
                assert {m.cells for m in orb.members} == reach & subject

    def test_class_spanning_two_trigg_classes_raises(self, census4, by_numeral):
        # Relabel class XI (Trigg D) as Trigg C: C and D then each hold
        # half of a closure class, which the census must refuse.
        labels = dict(census4.labels)
        xi = by_numeral["XI"].signature
        labels[xi] = ClassLabel("XI", "C")
        doctored = DudeneyCensus(census4.classes, labels, census4.catalog)
        with pytest.raises(ValueError, match="Trigg classes C and D"):
            census(doctored)


class TestPeelingOrderIndependence:
    def test_reversed_peeling_gives_same_partition(self, census4):
        members = census4.trigg_members("D")
        group = symmetry_group(members)
        forward = decompose(members, group, "D")
        # Re-peel from the other end by reversing the selection order.
        remaining = {sq.cells: sq for sq in members}
        backward_orbits = set()
        while remaining:
            sq = max(remaining.values(), key=encode_square)
            orb = frozenset(apply(t, sq).cells for t in group.members)
            backward_orbits.add(orb)
            for cells in orb:
                del remaining[cells]
        forward_orbits = {frozenset(m.cells for m in o.members) for o in forward.orbits}
        assert forward_orbits == backward_orbits


class TestVerifyPartition:
    def test_passes_for_all_census_partitions(self, census4, gencensus4):
        for cls in gencensus4.classes:
            members = census4.trigg_members(cls.letter)
            assert verify_partition(cls.closure_partition, members) == ()
            assert verify_partition(
                cls.group_partition, members, transformations=cls.group.members
            ) == ()

    def test_duplicate_injection_fails_disjointness(self, all3, partition3):
        orb = partition3.orbits[0]
        dup = OrbitPartition("tampered", (orb, orb))
        problems = verify_partition(dup, all3)
        assert any("more than one orbit" in p for p in problems)

    def test_missing_square_fails_coverage(self, all3, partition3):
        orb = partition3.orbits[0]
        short = sorted(orb.members, key=encode_square)[:-1]
        cut = Orbit(frozenset(short), min(short, key=encode_square))
        problems = verify_partition(OrbitPartition("tampered", (cut,)), all3)
        assert any("coverage" in p for p in problems)

    def test_wrong_generator_detected(self, all3, partition3):
        orb = partition3.orbits[0]
        wrong = Orbit(orb.members, max(orb.members, key=encode_square))
        problems = verify_partition(OrbitPartition("tampered", (wrong,)), all3)
        assert any("minimum" in p for p in problems)

    def test_symmetric_generators_detected(self, by_letter, census4):
        # Two group-view orbits of Trigg A fuse under the full universe, so
        # checking the group partition against the universe must fail,
        # while its own group keeps them apart.
        cls = by_letter["A"]
        members = census4.trigg_members("A")
        problems = verify_partition(cls.group_partition, members)
        assert any("symmetric" in p for p in problems)
        assert verify_partition(
            cls.group_partition, members, transformations=cls.group.members
        ) == ()

    def test_symmetric_pair_found_past_any_sample(self, by_letter, census4):
        # Split the last Trigg C closure orbit in two: only the final pair
        # of its 45 generators clashes, one pair in 990.  Both the key
        # check and the explicit-triple check must find it.
        cls = by_letter["C"]
        members = census4.trigg_members("C")
        orbits = sorted(
            cls.closure_partition.orbits, key=lambda o: encode_square(o.generator)
        )
        rest = sorted(orbits.pop().members, key=encode_square)
        orbits.append(Orbit(frozenset(rest[:1]), rest[0]))
        orbits.append(Orbit(frozenset(rest[1:]), rest[1]))
        tampered = OrbitPartition("tampered", tuple(orbits))
        clash = f"generators {len(orbits) - 2} and {len(orbits) - 1} are symmetric"
        triples = [Transformation(*triple) for triple in universe(4)]
        for transformations in (None, triples):
            problems = verify_partition(tampered, members, transformations)
            assert problems == (f"{clash} to each other",)


def test_decompose_maps_one_square_per_group_orbit(census4, monkeypatch):
    # Each group orbit's first square is mapped through the whole group;
    # its other squares take the label it gave them.
    members = census4.trigg_members("D")
    group = symmetry_group(members)
    mapped = []

    def counting_getter(*cells):
        image = itemgetter(*cells)
        return lambda src: mapped.append(src) or image(src)

    monkeypatch.setattr(generators, "itemgetter", counting_getter)
    part = decompose(members, group, "trigg_D")
    assert len(mapped) == len(part.orbits) * len(group) == 4 * 32
    assert set(mapped) == {orb.generator.cells for orb in part.orbits}


def test_decompose_rejects_foreign_squares(census4, all3):
    a = census4.trigg_members("A")
    d = census4.trigg_members("D")
    group_d = symmetry_group(d)
    with pytest.raises(ValueError, match="missing from the group"):
        decompose(a, group_d, "mismatch")
    group3 = symmetry_group(all3)
    lone = TransformationGroup(group3.members, frozenset([all3[0].cells]), 3)
    with pytest.raises(ValueError, match="leaves the subject"):
        decompose(all3[:1], lone)


def test_repeated_square_rejected(all3):
    # A repeat must not make up for a missing square in the size check.
    repeated = all3[:7] + [all3[0]]
    message = f"subject repeats the square {encode_square(all3[0])}$"
    with pytest.raises(ValueError, match=message):
        decompose(repeated, symmetry_group(all3))


def test_empty_subject_rejected(all3):
    with pytest.raises(ValueError, match="subject is empty$"):
        decompose([], symmetry_group(all3))


def test_closure_partition_keys_one_square_per_dihedral_orbit(
    census4, by_letter, monkeypatch
):
    # Trigg classes are closed under the 8 grid symmetries, whose orbits
    # have 8 squares each, so merging class B's dihedral orbits takes
    # 3,968 / 8 keys.  Merging the orbits of the class's symmetry group,
    # as class_census does, takes one key per group orbit: 3,968 / 32.
    calls = []
    key = generators.canonical_key
    monkeypatch.setattr(
        generators, "canonical_key", lambda sq: calls.append(sq) or key(sq)
    )
    members = census4.trigg_members("B")
    cells = frozenset(sq.cells for sq in members)
    dihedral = TransformationGroup(grid_symmetries(4), cells, 4)
    part = symmetric_closure_partition(decompose(members, dihedral, "trigg_B"))
    assert len(members) == 3968
    assert len(calls) == 496
    assert part.size_histogram == REFERENCE_HISTOGRAMS["B"]
    group = by_letter["B"].group
    calls.clear()
    grouped = symmetric_closure_partition(decompose(members, group, "trigg_B"))
    assert len(calls) == len(members) // len(group) == 124
    assert grouped == part
    assert grouped.size_histogram == REFERENCE_HISTOGRAMS["B"]


def test_partitions_encode_each_square_once(census4, monkeypatch):
    # decompose sorts a plain subject by encoding once and takes the
    # census's EncodingOrder as it stands, and merging its orbits into
    # closure classes encodes nothing; class_census sorts a plain subject
    # once for both partitions.  Orbits hold the subject's own squares.
    calls = []
    encode = groups.encode_square
    monkeypatch.setattr(
        groups, "encode_square", lambda sq: calls.append(sq) or encode(sq)
    )
    members = census4.trigg_members("B")
    assert isinstance(members, EncodingOrder)
    plain = list(reversed(members))
    own = {id(sq) for sq in members}
    group = symmetry_group(members)
    for subject, encodings in ((plain, 3968), (members, 0)):
        calls.clear()
        part = decompose(subject, group, "trigg_B")
        assert len(calls) == encodings
        calls.clear()
        closure = symmetric_closure_partition(part)
        assert calls == []
        for partition in (part, closure):
            assert all(id(m) in own for orb in partition.orbits for m in orb.members)
    calls.clear()
    from_plain = class_census("B", plain, "trigg_B")
    assert len(calls) == 3968
    calls.clear()
    from_census = class_census("B", members, "trigg_B")
    assert calls == []
    assert from_plain == from_census


def test_closure_partitions_keep_the_keys_they_filed(gencensus4):
    # census() checks the classes against each other through these keys,
    # not fresh keys of the generators.
    for cls in gencensus4.classes:
        part = cls.closure_partition
        assert part.keys == tuple(canonical_key(o.generator) for o in part.orbits)
        assert cls.group_partition.keys == tuple(
            o.generator.cells for o in cls.group_partition.orbits
        )


def test_closure_orbits_merge_whole_group_orbits(partition3, gencensus4):
    # Each closure orbit is a union of group orbits, led by the first of
    # them and filed under its generator's key; there is one closure orbit
    # per distinct generator key.
    pairs = [(partition3, symmetric_closure_partition(partition3))]
    pairs += [(cls.group_partition, cls.closure_partition) for cls in gencensus4.classes]
    for group_part, closure_part in pairs:
        closure_of = {}
        for index, orb in enumerate(closure_part.orbits):
            closure_of.update(dict.fromkeys((m.cells for m in orb.members), index))
        first: dict[int, Orbit] = {}
        for orb in group_part.orbits:
            (index,) = {closure_of[m.cells] for m in orb.members}
            first.setdefault(index, orb)
        assert sorted(first) == list(range(len(closure_part.orbits)))
        for index, orb in enumerate(closure_part.orbits):
            assert orb.generator == first[index].generator
            assert closure_part.keys[index] == canonical_key(first[index].generator)
        keys = {canonical_key(orb.generator) for orb in group_part.orbits}
        assert len(closure_part.orbits) == len(keys)


def test_census_call_budget(catalog4, monkeypatch):
    # The deterministic work of a census, from the catalog to labelled
    # records: each square is encoded once (the Dudeney sort), signatures
    # are taken once per dihedral orbit, closure keys once per group
    # orbit, and the group checks compose each survivor after each of a
    # few generators (1,510 compositions for Trigg A over its three
    # passes, 160 for B and C, 175 for D; checking every pair took
    # 40,871).  Compositions are the image getters applied to a cell map
    # (a tuple holding 0) rather than to a square's cells.  Each square is
    # hashed once, into its group orbit; closure classes are unions of
    # those orbits and reuse their hashes.
    counts = Counter()
    square_hash = Square.__hash__

    def counted_hash(sq):
        counts["Square.__hash__"] += 1
        return square_hash(sq)

    monkeypatch.setattr(Square, "__hash__", counted_hash)

    def counted(kind, original):
        return lambda *args: counts.update([kind]) or original(*args)

    for module in (classifier, generators, groups, pipeline):
        for name in ("encode_square", "canonical_key", "signature"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def counting_getter(*items):
        image = itemgetter(*items)

        def get(arg):
            if isinstance(arg, tuple) and 0 in arg:
                counts["composition"] += 1
            return image(arg)

        return get

    monkeypatch.setattr(groups, "itemgetter", counting_getter)
    dudeney = DudeneyCensus.from_catalog(catalog4)
    gens = census(dudeney)
    records = classify_catalog(catalog4, dudeney, attach_orbits(gens))
    assert len(records) == 7040 and gens.total_generators == 95
    assert counts == {
        "encode_square": 7040,
        "signature": 880,
        "canonical_key": 190,
        "composition": 2005,
        "Square.__hash__": 7040,
    }
