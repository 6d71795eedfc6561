from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (
    TRIGG_POPULATIONS,
    FastClassifier,
    apply,
    broken_diagonal_sums,
    count_magic_broken_diagonals,
    label_of,
    labelled_squares,
)

from magicgen import classifier, groups, pipeline
from magicgen.classifier import (
    DUDENEY_CLASSES,
    TRIGG_LETTERS,
    VI_SPLIT_BROKEN,
    VI_SPLIT_PLAIN,
    DudeneyCensus,
    assign_labels,
    discover_classes,
    magic_broken_diagonal_counts,
    signature,
)
from magicgen.constraints import build_system
from magicgen.groups import canonical_key
from magicgen.pipeline import attach_orbits, classify_catalog
from magicgen.squares import (
    Square,
    encode_square,
    grid_symmetries,
    is_normal_magic,
    parse_square,
)

DURER_BASIS = (16, 3, 2, 5, 10, 11, 9)
FREE_CELLS = build_system(4).free_cells


def test_signature_rejects_other_orders(lo_shu):
    with pytest.raises(ValueError, match="order 4"):
        signature(lo_shu)


def test_signature_invariant_under_grid_symmetries(durer, catalog4):
    rng = random.Random(47)
    sample = [durer] + rng.sample(catalog4, 40)
    for sq in sample:
        sig = signature(sq)
        for sym in grid_symmetries(4):
            assert signature(apply(sym, sq)) == sig


def test_exactly_twelve_classes(census4):
    assert len(census4.classes) == 12


def test_dudeney_table_rows():
    # Dudeney's (1917) numerals and populations, Trigg's letters.
    assert DUDENEY_CLASSES == (
        ("I", 384, "A"), ("II", 384, "A"), ("III", 384, "A"),
        ("IV", 768, "B"), ("V", 768, "B"), ("VI", 2432, "B"),
        ("VII", 448, "C"), ("VIII", 448, "C"), ("IX", 448, "C"), ("X", 448, "C"),
        ("XI", 64, "D"), ("XII", 64, "D"),
    )
    assert TRIGG_LETTERS == ("A", "B", "C", "D")


def test_population_multiset(census4):
    assert sorted(c.population for c in census4.classes) == sorted(
        population for _, population, _ in DUDENEY_CLASSES
    )
    assert sum(c.population for c in census4.classes) == 7040


def test_trigg_letter_is_function_of_numeral(census4):
    assert {numeral: letter for numeral, _, letter in DUDENEY_CLASSES} == {
        "I": "A", "II": "A", "III": "A",
        "IV": "B", "V": "B", "VI": "B",
        "VII": "C", "VIII": "C", "IX": "C", "X": "C",
        "XI": "D", "XII": "D",
    }
    assert {(label.dudeney, label.trigg) for label in census4.labels.values()} == {
        (numeral, letter) for numeral, _, letter in DUDENEY_CLASSES
    }


def test_trigg_totals(census4):
    assert census4.trigg_populations() == TRIGG_POPULATIONS


def test_population_by_numeral(by_numeral):
    assert {
        numeral: by_numeral[numeral].population for numeral, _, _ in DUDENEY_CLASSES
    } == {numeral: population for numeral, population, _ in DUDENEY_CLASSES}


def test_labels_deterministic(catalog4, census4):
    again = DudeneyCensus.from_catalog(catalog4)
    assert again.labels == census4.labels
    assert [c.signature for c in again.classes] == [
        c.signature for c in census4.classes
    ]


def test_classes_and_members_come_in_encoding_order(census4):
    # One grouping pass in encoding order: a class's first member is its
    # smallest, and classes come in order of it.
    firsts = [encode_square(c.members[0]) for c in census4.classes]
    assert firsts == sorted(firsts)
    for cls in census4.classes:
        codes = [encode_square(sq) for sq in cls.members]
        assert codes == sorted(codes)


def test_reversed_catalog_gives_the_same_census(catalog4, census4):
    # assign_labels takes the classes in the order the pass gives them,
    # whatever the catalog's order.
    again = DudeneyCensus.from_catalog(catalog4[::-1])
    assert again.labels == census4.labels
    assert [c.signature for c in again.classes] == [c.signature for c in census4.classes]
    assert [c.members for c in again.classes] == [c.members for c in census4.classes]


def test_census_encodes_each_square_once(catalog4, monkeypatch):
    # The grouping pass sorts the catalog by encoding, once.
    calls = Counter()

    def counting(sq):
        calls[sq.cells] += 1
        return encode_square(sq)

    monkeypatch.setattr(groups, "encode_square", counting)
    DudeneyCensus.from_catalog(catalog4)
    assert len(calls) == 7040
    assert set(calls.values()) == {1}


def test_census_signs_each_dihedral_orbit_once(catalog4, monkeypatch):
    # A signature is a minimum over the 8 grid symmetries, so one call per
    # dihedral orbit labels every image in it.
    calls = Counter()

    def counting(sq):
        calls[sq.cells] += 1
        return signature(sq)

    monkeypatch.setattr(classifier, "signature", counting)
    census = DudeneyCensus.from_catalog(catalog4)
    assert len(calls) == 7040 // 8
    assert set(calls.values()) == {1}
    assert all(signature(sq) == c.signature for c in census.classes for sq in c.members)


def test_incomplete_catalog_rejected(catalog4):
    with pytest.raises(ValueError, match="incomplete catalog: 100 squares, expected 7040$"):
        discover_classes(catalog4[:100])
    with pytest.raises(ValueError, match="incomplete catalog: 0 squares, expected 7040$"):
        discover_classes([])


def test_twelve_signature_classes_required(catalog4, monkeypatch):
    # Only a faulty signature can merge classes of the complete catalog.
    monkeypatch.setattr(classifier, "signature", lambda sq: ())
    with pytest.raises(ValueError, match="expected 12 signature classes, found 1$"):
        discover_classes(catalog4)


def test_repeated_square_rejected(catalog4):
    # Replace one square by a copy of a member with the same signature:
    # still 7,040 lines and 12 classes of the right sizes, 7,039 squares.
    victim = catalog4[100]
    twin = next(
        sq for sq in catalog4 if sq != victim and signature(sq) == signature(victim)
    )
    corrupt = catalog4[:100] + [twin] + catalog4[101:]
    message = f"catalog repeats the square {encode_square(twin)}$"
    with pytest.raises(ValueError, match=message):
        discover_classes(corrupt)


def test_non_magic_square_rejected(catalog4):
    # A row/column permutation of a catalog square that breaks the main
    # diagonals, standing in for a member with its signature: populations
    # and labels alone cannot tell.
    fake = parse_square("8 12 5 9 13 7 10 4 2 14 3 15 11 1 16 6")
    assert not is_normal_magic(fake)
    assert any(canonical_key(sq) == canonical_key(fake) for sq in catalog4)
    victim = next(sq for sq in catalog4 if signature(sq) == signature(fake))
    corrupt = [fake if sq == victim else sq for sq in catalog4]
    message = f"catalog holds a non-magic square {encode_square(fake)}$"
    with pytest.raises(ValueError, match=message):
        discover_classes(corrupt)


def test_population_mismatch_rejected(census4):
    # Tamper: drop one class and double another to keep 12 entries.
    classes = list(census4.classes)
    classes[0] = classes[1]
    with pytest.raises(ValueError, match="does not match"):
        assign_labels(classes)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16",
        "8 12 5 9 13 7 10 4 2 14 3 15 11 1 16 6",  # see test_non_magic_square_rejected
    ],
)
def test_label_of_rejects_non_magic_squares(census4, text):
    with pytest.raises(ValueError, match="is not normal magic"):
        label_of(census4, parse_square(text))


def test_durer_is_type_three(durer, census4, by_numeral):
    label = label_of(census4, durer)
    assert label.dudeney == "III"
    assert label.trigg == "A"
    assert label.vi_split is None
    assert by_numeral["III"].population == 384


def test_pandiagonal_set_is_exactly_one_384_class(catalog4, census4):
    # Only one of the three 384-classes is pandiagonal (384 squares total);
    # the Durer square (class III, also population 384) is a counterexample
    # to any claim that all of Trigg A is pandiagonal.
    # Pandiagonal: all 2(n - 1) broken diagonals are magic.
    pand = {sq.cells for sq in catalog4 if count_magic_broken_diagonals(sq) == 2 * (4 - 1)}
    assert len(pand) == 384
    matching = [
        cls
        for cls in census4.classes
        if {sq.cells for sq in cls.members} == pand
    ]
    assert len(matching) == 1
    assert matching[0].population == 384
    assert census4.labels[matching[0].signature].trigg == "A"


class TestTypeVISplit:
    def test_partition_of_class_vi(self, census4, by_numeral):
        vi = by_numeral["VI"]
        splits = Counter(label_of(census4, sq).vi_split for sq in vi.members)
        assert splits[VI_SPLIT_PLAIN] + splits[VI_SPLIT_BROKEN] == 2432
        assert splits[VI_SPLIT_BROKEN] == 960
        assert splits[VI_SPLIT_PLAIN] == 1472

    def test_split_matches_broken_diagonal_count(self, census4, by_numeral):
        vi = by_numeral["VI"]
        for sq in vi.members[:200]:
            expected = (
                VI_SPLIT_BROKEN
                if count_magic_broken_diagonals(sq)
                else VI_SPLIT_PLAIN
            )
            assert label_of(census4, sq).vi_split == expected

    def test_label_of_attaches_split(self, census4, by_numeral):
        vi = by_numeral["VI"]
        label = label_of(census4, vi.members[0])
        assert label.dudeney == "VI"
        assert label.vi_split in (VI_SPLIT_PLAIN, VI_SPLIT_BROKEN)


def test_import_builds_no_constraint_system():
    # The free cells are read on first use, not when magicgen is imported.
    src = Path(classifier.__file__).parents[1]
    code = "import magicgen; print(magicgen.build_system.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "0\n"


class TestFastClassifier:
    def test_durer_basis_agrees_with_full_path(self, durer, census4):
        fc = FastClassifier.from_census(census4)
        assert fc.classify(DURER_BASIS) == label_of(census4, durer)

    def test_agrees_on_all_squares(self, catalog4, census4):
        fc = FastClassifier.from_census(census4)
        disagreements = 0
        for sq in catalog4:
            basis = [sq.cells[c] for c in FREE_CELLS]
            if fc.classify(basis) != label_of(census4, sq):
                disagreements += 1
        assert disagreements == 0
        # The partial scan is undecidable for a small minority; those must
        # have gone through the fallback, not been guessed.
        assert 0 < fc.fallbacks < 7040 // 50

    def test_invalid_basis_rejected(self, census4):
        fc = FastClassifier.from_census(census4)
        with pytest.raises(ValueError, match="magic square: cell 3 repeats the value 15"):
            fc.classify((1, 3, 15, 2, 4, 5, 6))
        # Its partial scan alone would say X/C; the derived grid holds -9 and 26.
        with pytest.raises(ValueError, match="magic square: cell 3 holds 19, outside"):
            fc.classify((6, 5, 4, 3, 12, 13, 14))
        with pytest.raises(ValueError, match="7 basis values"):
            fc.classify((1, 2, 3))


# The basis-only classifier trained on the catalog, in iter_squares order,
# shuffled by random.Random(seed), first percent/100 of it: its table
# lookups of the other squares as (right, wrong, key unseen, key ambiguous).
# Unseen and ambiguous keys are what classify sends to the signature path.
HELD_OUT = {
    (10, 1): (2186, 16, 4132, 2),
    (10, 2): (2218, 18, 4098, 2),
    (10, 3): (2258, 18, 4058, 2),
    (50, 1): (2807, 24, 676, 13),
    (50, 2): (2769, 22, 714, 15),
    (50, 3): (2807, 12, 678, 23),
    (75, 1): (1611, 10, 126, 13),
    (75, 2): (1608, 8, 128, 16),
    (75, 3): (1593, 8, 146, 13),
}


@pytest.mark.parametrize("percent, seed", sorted(HELD_OUT))
def test_fast_classifier_on_held_out_squares(catalog4, census4, percent, seed):
    label = {sq.cells: lab for sq, lab in labelled_squares(census4)}
    pool = [(sq, label[sq.cells]) for sq in catalog4]
    random.Random(seed).shuffle(pool)
    cut = len(pool) * percent // 100
    fc = FastClassifier.train(census4, pool[:cut])
    outcomes = Counter()
    for sq, truth in pool[cut:]:
        key = fc.basis_key([sq.cells[c] for c in FREE_CELLS])
        if key not in fc.table:
            outcomes["unseen"] += 1
        elif fc.table[key] is None:
            outcomes["ambiguous"] += 1
        else:
            outcomes["right" if fc.table[key] == truth else "wrong"] += 1
    counts = tuple(outcomes[k] for k in ("right", "wrong", "unseen", "ambiguous"))
    assert counts == HELD_OUT[percent, seed]
    assert sum(counts) == 7040 - cut


class TestClassifyCatalog:
    def test_records_match_label_of(self, catalog4, census4):
        records = classify_catalog(catalog4, census4)
        assert [r.line for r in records] == list(range(len(catalog4)))
        for sq, rec in zip(catalog4, records):
            label = label_of(census4, sq)
            assert rec.square == sq
            assert (rec.dudeney, rec.trigg, rec.vi_split) == (
                label.dudeney,
                label.trigg,
                label.vi_split,
            )
            assert rec.broken_diagonals == count_magic_broken_diagonals(sq)
            assert rec.orbit_id is None and rec.is_generator is None

    def test_reads_labels_from_the_census(self, catalog4, census4, monkeypatch):
        expected = classify_catalog(catalog4, census4)

        def no_signature(square):
            raise AssertionError("classify_catalog computed a signature")

        batches = []
        counts = pipeline.magic_broken_diagonal_counts

        def counting_counts(squares):
            batches.append([sq.cells for sq in squares])
            return counts(squares)

        monkeypatch.setattr(classifier, "signature", no_signature)
        monkeypatch.setattr(pipeline, "magic_broken_diagonal_counts", counting_counts)
        assert classify_catalog(catalog4, census4) == expected
        # Broken diagonals are counted once per square, in one batch, VI
        # split included.
        assert len(batches) == 1
        assert sorted(batches[0]) == sorted(sq.cells for sq in catalog4)

    def test_broken_diagonal_batch_matches_the_square_oracle(
        self, catalog4, census4, durer
    ):
        # Column-wise counts against per-square sums: every catalog square
        # (0, 1, 2 or 6 magic broken diagonals), then Durer's square and
        # random permutations of 1..16, which reach 3.
        records = classify_catalog(catalog4, census4)
        assert [r.broken_diagonals for r in records] == [
            sum(s == 34 for s in broken_diagonal_sums(sq)) for sq in catalog4
        ]
        assert {r.broken_diagonals for r in records} == {0, 1, 2, 6}
        rng = random.Random(4)
        squares = [Square(4, tuple(rng.sample(range(1, 17), 16))) for _ in range(2000)]
        squares.append(durer)
        counts = magic_broken_diagonal_counts(squares)
        assert counts == [count_magic_broken_diagonals(sq) for sq in squares]
        assert set(counts) == {0, 1, 2, 3}
        assert magic_broken_diagonal_counts([]) == []

    def test_attach_orbits_keys_by_cells(self, catalog4, census4, gencensus4, monkeypatch):
        records = classify_catalog(catalog4, census4)

        def no_encode(square):
            raise AssertionError("attach_orbits encoded a square")

        monkeypatch.setattr(pipeline, "encode_square", no_encode)
        attached = classify_catalog(catalog4, census4, attach_orbits(gencensus4))
        orbits = [o for cls in gencensus4.classes for o in cls.closure_partition.orbits]
        assert [replace(r, orbit_id=None, is_generator=None) for r in attached] == records
        for r in attached:
            orbit = orbits[r.orbit_id]
            assert r.square in orbit.members
            assert r.is_generator == (r.square == orbit.generator)
        assert sum(r.is_generator for r in attached) == 95

    def test_square_outside_the_census_rejected(self, catalog4, census4):
        outside = Square(4, tuple(range(1, 17)))
        with pytest.raises(ValueError, match="not in the census"):
            classify_catalog(catalog4[:3] + [outside], census4)
