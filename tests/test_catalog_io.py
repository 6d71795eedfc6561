from __future__ import annotations

import os
import threading

import pytest

from magicgen.catalog import (
    CatalogRecord,
    catalog_text,
    classification_text,
    read_catalog,
    read_classification,
    verify_catalog,
    write_atomic,
)
from magicgen.enumerator import iter_squares


@pytest.fixture
def catalog3_path(tmp_path):
    path = tmp_path / "catalog3.txt"
    write_atomic(path, catalog_text(iter_squares(3), 3))
    return path


def test_catalog_round_trip(catalog3_path):
    squares = read_catalog(catalog3_path)
    assert [sq.cells for sq in squares] == [sq.cells for sq in iter_squares(3)]


def test_catalog_has_header(catalog3_path):
    text = catalog3_path.read_text()
    assert text.startswith("# format=1\n# order=3\n")
    assert text.endswith("\n")


def test_missing_header_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("4 9 2 3 5 7 8 1 6\n")
    with pytest.raises(ValueError, match="format=1"):
        read_catalog(p)


def test_verify_catalog_good(catalog3_path):
    verdict = verify_catalog(catalog3_path)
    assert verdict.ok and verdict.count == 8


def test_verify_catalog_flags_problems(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(
        "# format=1\n"
        "4 9 2 3 5 7 8 1 6\n"
        "4 9 2 3 5 7 8 1 6\n"   # duplicate
        "9 4 2 3 5 7 8 1 6\n"   # not magic
        "1 2 3 4\n"             # token count
    )
    verdict = verify_catalog(p)
    assert not verdict.ok
    assert verdict.count == 3
    joined = "\n".join(verdict.problems)
    assert "duplicate" in joined
    assert "not magic" in joined


RECORDS = [
    CatalogRecord(0, "16 3 2 13 5 10 11 8 9 6 7 12 4 15 14 1", "III", "A", None, 2),
    CatalogRecord(1, "1 10 15 8 12 13 6 3 5 4 11 14 16 7 2 9", "VI", "B", "VI'", 0, 7, True),
]


@pytest.mark.parametrize("fmt", ["tsv", "kv"])
def test_classification_round_trip(tmp_path, fmt):
    path = tmp_path / f"classes.{fmt}"
    write_atomic(path, classification_text(RECORDS, fmt))
    back = read_classification(path)
    assert back == RECORDS


def test_malformed_kv_row_rejected(tmp_path):
    path = tmp_path / "bad.kv"
    path.write_text("# format=1\nfoo\n")
    with pytest.raises(ValueError, match="bad classification row: 'foo'"):
        read_classification(path)


def test_concurrent_writers_do_not_collide(tmp_path):
    path = tmp_path / "shared.txt"
    texts = ["a" * 5000 + "\n", "b" * 7000 + "\n"]
    errors: list[BaseException] = []

    def writer(text: str) -> None:
        try:
            for _ in range(200):
                write_atomic(path, text)
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == ["shared.txt"]


def test_write_atomic_mode_and_failed_write(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    path = tmp_path / "out.txt"
    write_atomic(path, "old\n")
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "\ud800")  # a lone surrogate cannot be encoded
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_classification_text_versioned():
    text = classification_text(RECORDS, "tsv")
    assert text.startswith("# format=1\n")
    assert "\tIII\tA\t-\t2\t-\t-" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown classification format"):
        classification_text(RECORDS, "csv")


def test_record_square_parses():
    assert RECORDS[0].square().cells[0] == 16
