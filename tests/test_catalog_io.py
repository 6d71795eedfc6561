from __future__ import annotations

import io
import os
import sys
import threading
import time
import tracemalloc
from itertools import islice

import pytest

from magicgen import catalog
from magicgen.catalog import (
    CatalogRecord,
    CatalogVerdict,
    catalog_text,
    classification_text,
    read_catalog,
    read_classification,
    verify_catalog,
    write_atomic,
    write_catalog,
)
from magicgen.cli import main
from magicgen.enumerator import iter_squares
from magicgen.squares import Square, encode_square, is_normal_magic, parse_square


@pytest.fixture
def catalog3_path(tmp_path):
    path = tmp_path / "catalog3.txt"
    write_atomic(path, catalog_text(iter_squares(3), 3))
    return path


def test_catalog_round_trip(tmp_path, catalog3_path, catalog4):
    squares = read_catalog(catalog3_path)
    assert [sq.cells for sq in squares] == [sq.cells for sq in iter_squares(3)]
    # The whole order-4 catalog, and the first 100 squares of an order-5 shard.
    order5 = list(islice(iter_squares(5, (13,)), 100))
    for order, written in ((4, catalog4), (5, order5)):
        path = tmp_path / f"catalog{order}.txt"
        write_atomic(path, catalog_text(written, order))
        assert [sq.cells for sq in read_catalog(path)] == [sq.cells for sq in written]
        assert verify_catalog(path) == CatalogVerdict(True, len(written))
    assert len(catalog4) == 7040


def test_catalog_has_header(catalog3_path):
    text = catalog3_path.read_text()
    assert text.startswith("# format=1\n# order=3\n")
    assert text.endswith("\n")


def test_write_catalog_streams_and_counts():
    squares = list(iter_squares(3))
    fh = io.StringIO()
    assert write_catalog(fh, iter(squares), 3) == 8
    lines = "".join(encode_square(sq) + "\n" for sq in squares)
    assert fh.getvalue() == "# format=1\n# order=3\n" + lines
    empty = io.StringIO()
    assert write_catalog(empty, [], 5) == 0
    assert empty.getvalue() == catalog_text([], 5) == "# format=1\n# order=5\n"


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


def test_verify_catalog_counts_past_the_problem_cap(tmp_path, capsys):
    # 25 copies of a non-magic square, then 30 real squares.
    path = tmp_path / "capped.txt"
    bad = " ".join(map(str, range(1, 17))) + "\n"
    path.write_text(catalog_text(islice(iter_squares(4), 30), 4).replace(
        "# order=4\n", "# order=4\n" + bad * 25
    ))
    verdict = verify_catalog(path, 4)
    assert not verdict.ok
    assert verdict.count == 55
    # 49 problems: the first copy is not magic, each later one also repeats.
    assert len(verdict.problems) == 21
    assert verdict.problems[19] == "line 10: square is not magic"
    assert verdict.problems[20] == "... 29 further problems suppressed"
    assert main(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().err == "# count=55\n"


# Faults by data line.  verify_catalog checks line sums in batches of
# about 1,024 consecutive parsed squares.  The faults cluster where batches
# of exactly 1,024 would end (data lines 1027 and 2054, had no problem
# ended one early), and each cluster lies inside one run of the file's
# 8,192-character chunks (data lines 912-1063 and 1976-2127), which is
# walked a line at a time.  "again" repeats a non-magic square, so line
# 2056 has two problems.
_FAULTS = {
    1018: "count", 1020: "word", 1022: "range", 1023: "swap", 1024: "repeat",
    1025: "copy", 1026: "again", 1027: "spelled", 1028: "swap", 1029: "copy", 1030: "zero",
    2046: "count", 2049: "repeat", 2050: "spelled", 2051: "swap", 2052: "copy",
    2054: "swap", 2055: "word", 2056: "again", 2058: "swap", 2060: "swap",
    2300: "swap", 2301: "swap", 2302: "copy", 2303: "range", 2304: "swap", 2500: "swap",
}


def _faulty(tokens: list[str], kind: str, first: list[str]) -> list[str]:
    if kind == "count":
        return tokens[:-1]
    if kind == "word":
        return [*tokens[:5], "x5", *tokens[6:]]
    if kind == "range":
        return [*tokens[:3], "17", *tokens[4:]]
    if kind == "zero":
        return ["0", *tokens[1:]]
    if kind == "repeat":
        return [*tokens[:15], tokens[0]]
    if kind == "swap":  # rows still sum to 34, columns 0 and 1 do not
        return [tokens[1], tokens[0], *tokens[2:]]
    if kind == "copy":
        return first
    if kind == "again":
        return [first[1], first[0], *first[2:]]
    # "spelled": the same values in spellings int() takes, so no problem.
    return ["0" + tokens[0], "+" + tokens[1], *tokens[2:]]


def _faulty_catalog(path):
    """2,600 order-4 squares with _FAULTS, tab-spaced, with comment and blank lines."""
    rows = [encode_square(sq).split() for sq in islice(iter_squares(4), 2600)]
    lines = ["# format=1", "# order=4"]
    for i, tokens in enumerate(rows):
        if i in (1000, 2048):
            lines += ["# a comment", ""]
        kind = _FAULTS.get(i)
        lines.append("\t ".join(_faulty(tokens, kind, rows[0]) if kind else tokens))
    path.write_text("\n".join(lines) + "\n")
    return path


# The verdict on _faulty_catalog as recorded before verify_catalog checked
# line sums in batches (each square then parsed, built and checked alone).
PINNED_PROBLEMS = (
    "line 1018: expected 16 values for order 4, got 15",
    "line 1020: non-integer token 'x5'",
    "line 1022: cell 3 holds 17, outside the range 1..16",
    "line 1023: square is not magic",
    "line 1024: cell 15 repeats the value 3",
    "line 1025: duplicate square",
    "line 1026: square is not magic",
    "line 1028: square is not magic",
    "line 1029: duplicate square",
    "line 1030: cell 0 holds 0, outside the range 1..16",
    "line 2046: expected 16 values for order 4, got 15",
    "line 2049: cell 15 repeats the value 5",
    "line 2051: square is not magic",
    "line 2052: duplicate square",
    "line 2054: square is not magic",
    "line 2055: non-integer token 'x5'",
    "line 2056: square is not magic",
    "line 2056: duplicate square",
    "line 2058: square is not magic",
    "line 2060: square is not magic",
    "... 6 further problems suppressed",
)


def test_verify_verdict_pinned(tmp_path, capsys):
    path = _faulty_catalog(tmp_path / "faulty.txt")
    pinned = CatalogVerdict(False, 2591, PINNED_PROBLEMS)
    assert verify_catalog(path) == pinned
    assert verify_catalog(path, 4) == pinned
    assert main(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(f"FAIL: {p}\n" for p in PINNED_PROBLEMS)
    assert captured.err == "# count=2591\n"


def test_verify_names_non_magic_squares_from_the_batch_sums(tmp_path, monkeypatch):
    # The batch's line sums name its non-magic squares: no square is
    # checked again on its own.
    def refuse(cells, n):
        raise AssertionError("verify_catalog re-checked a square alone")

    monkeypatch.setattr("magicgen.squares._is_magic_grid", refuse)
    monkeypatch.setattr("magicgen.catalog._is_magic_grid", refuse, raising=False)
    path = _faulty_catalog(tmp_path / "faulty.txt")
    assert verify_catalog(path) == CatalogVerdict(False, 2591, PINNED_PROBLEMS)


def test_verify_verdict_pinned_across_orders(tmp_path):
    # No header order: each line's order comes from its token count, so
    # the order changes between parsed squares, and each change starts a
    # new line-sum batch.
    three = [encode_square(sq) for sq in iter_squares(3)]
    four = [encode_square(sq) for sq in islice(iter_squares(4), 3)]
    t3 = three[2].split()
    lines = [
        "# format=1", *three[:4], " ".join([t3[1], t3[0], *t3[2:]]), *four, "1 2 3 4",
        *three[4:], four[0], three[0], "# order=4", four[1], three[1],
    ]
    path = tmp_path / "orders.txt"
    path.write_text("\n".join(lines) + "\n")
    assert verify_catalog(path) == CatalogVerdict(False, 15, (
        "line 4: square is not magic",
        "line 8: token count 4 is not the square of an order >= 3",
        "line 13: duplicate square",
        "line 14: duplicate square",
        "line 15: duplicate square",
        "line 16: expected 16 values for order 4, got 9",
    ))


def test_verify_holds_only_the_reported_problems(tmp_path):
    # 50,000 bad lines: only the first 20 problems are kept as text.
    path = tmp_path / "bad.txt"
    path.write_text("# format=1\n# order=4\n" + "1 2 3\n" * 50_000)
    tracemalloc.start()
    try:
        verdict = verify_catalog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.count == 0 and len(verdict.problems) == 21
    assert verdict.problems[0] == "line 0: expected 16 values for order 4, got 3"
    assert verdict.problems[20] == "... 49980 further problems suppressed"
    assert peak < 1 << 20


def test_verify_memory_is_the_seen_set_plus_a_megabyte(tmp_path, catalog4):
    # Reading in bounded chunks keeps verify_catalog's peak at the set of
    # squares seen plus about one chunk and one line-sum batch.
    path = tmp_path / "catalog4.txt"
    write_atomic(path, catalog_text(catalog4, 4))
    seen = {sq.cells for sq in catalog4}
    seen_size = sys.getsizeof(seen) + sum(map(sys.getsizeof, seen))
    tracemalloc.start()
    try:
        verdict = verify_catalog(path, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == CatalogVerdict(True, 7040)
    assert peak < seen_size + (1 << 20)


# Catalogs are read in chunks of catalog._CHUNK characters, and a run of
# data lines never spans two.  The line-at-a-time readers below are the
# oracle: what the chunked readers must return or raise, whatever the
# chunk size.

def _oracle_lines(path, order):
    """(line, order) for each data line, as the readers took them one by one."""
    with open(path) as fh:  # universal newlines, as the readers open it
        first, *lines = fh.read().split("\n")
    if first != "# format=1":
        raise ValueError(f"{path}: missing '# format=1' header")
    for line in lines:
        if line.startswith("# order="):
            try:
                declared = int(line[len("# order="):])
            except ValueError:
                raise ValueError(f"{path}: bad order line {line!r}") from None
            if order is not None and declared != order:
                raise ValueError(f"{path}: catalog of order {declared}, not order {order}")
            order = declared
        elif line and not line.startswith("#"):
            yield line, order


def _outcome(read, *args):
    """What a reader returns, or the message of the ValueError it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _oracle_read(path, order):
    return [(sq.order, sq.cells) for sq in (parse_square(*x) for x in _oracle_lines(path, order))]


def _oracle_verify(path, order):
    problems, seen, count = [], set(), 0
    for lineno, (line, n) in enumerate(_oracle_lines(path, order)):
        try:
            square = parse_square(line, n)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        count += 1
        if not is_normal_magic(square):
            problems.append(f"line {lineno}: square is not magic")
        if square.cells in seen:
            problems.append(f"line {lineno}: duplicate square")
        seen.add(square.cells)
    shown = problems[:20]
    if len(problems) > 20:
        shown.append(f"... {len(problems) - 20} further problems suppressed")
    return CatalogVerdict(not problems, count, tuple(shown))


def _read_cells(path, order):
    return [(sq.order, sq.cells) for sq in read_catalog(path, order)]


_SQUARES3 = [encode_square(sq) for sq in iter_squares(3)]
_T0 = _SQUARES3[0].split()
# Each feature goes between the third and fourth order-3 square.
_FEATURES = {
    "order line": "# order=3",
    "other order": "# order=4",
    "bad order": "# order=x",
    "comment": "# a comment",
    "blank": "",
    "whitespace": " \t ",
    "spelled": " ".join(["0" + _T0[0], *_T0[1:]]),
    "word": " ".join(["x5", *_T0[1:]]),
    "duplicate": _SQUARES3[0],
    "not magic": " ".join([_T0[1], _T0[0], *_T0[2:]]),
}


@pytest.mark.parametrize("feature", sorted(_FEATURES))
@pytest.mark.parametrize("header", ["# order=3", None])
@pytest.mark.parametrize("ending", ["lf", "crlf", "no final newline"])
def test_chunk_boundaries_match_the_line_oracle(tmp_path, monkeypatch, feature, header, ending):
    # Every chunk size from one character to the whole file, so each
    # feature line ends a chunk, starts one, and sits inside one.
    lines = ["# format=1", *([header] if header else []), *_SQUARES3[:3],
             _FEATURES[feature], *_SQUARES3[3:]]
    text = "\n".join(lines) + "\n"
    if ending == "crlf":
        text = text.replace("\n", "\r\n")
    elif ending == "no final newline":
        text = text[:-1]
    path = tmp_path / "catalog.txt"
    path.write_bytes(text.encode())
    for order in (None, 3):
        expected_read = _outcome(_oracle_read, path, order)
        expected_verdict = _outcome(_oracle_verify, path, order)
        for chunk in range(1, len(text) + 2):
            monkeypatch.setattr(catalog, "_CHUNK", chunk)
            assert _outcome(_read_cells, path, order) == expected_read, (order, chunk)
            assert _outcome(verify_catalog, path, order) == expected_verdict, (order, chunk)


_OK = CatalogVerdict(True, 8)
_NON_INT = "non-integer token 'x5'"
_OTHER = "expected 16 values for order 4, got 9"
# What the readers make of each feature, with the "# order=3" header and
# without it where that differs: read_catalog's square count or error,
# and verify_catalog's verdict or error.
_FEATURE_PINS = {
    ("bad order", None): ("{path}: bad order line '# order=x'",) * 2,
    ("blank", None): (8, _OK),
    ("comment", None): (8, _OK),
    ("duplicate", None): (9, CatalogVerdict(False, 9, ("line 3: duplicate square",))),
    ("not magic", None): (9, CatalogVerdict(False, 9, ("line 3: square is not magic",))),
    ("order line", None): (8, _OK),
    ("other order", "# order=3"): ("{path}: catalog of order 4, not order 3",) * 2,
    ("other order", None): (
        _OTHER, CatalogVerdict(False, 3, tuple(f"line {i}: {_OTHER}" for i in range(3, 8)))
    ),
    ("spelled", None): (9, CatalogVerdict(False, 9, ("line 3: duplicate square",))),
    ("whitespace", "# order=3"): (
        "expected 9 values for order 3, got 0",
        CatalogVerdict(False, 8, ("line 3: expected 9 values for order 3, got 0",)),
    ),
    ("whitespace", None): (
        "token count 0 is not the square of an order >= 3",
        CatalogVerdict(False, 8, ("line 3: token count 0 is not the square of an order >= 3",)),
    ),
    ("word", None): (_NON_INT, CatalogVerdict(False, 8, (f"line 3: {_NON_INT}",))),
}


@pytest.mark.parametrize("feature", sorted(_FEATURES))
@pytest.mark.parametrize("header", ["# order=3", None])
def test_chunk_features_pinned(tmp_path, feature, header):
    lines = ["# format=1", *([header] if header else []), *_SQUARES3[:3],
             _FEATURES[feature], *_SQUARES3[3:]]
    path = tmp_path / "catalog.txt"
    path.write_text("\n".join(lines) + "\n")
    read, verdict = _FEATURE_PINS.get((feature, header)) or _FEATURE_PINS[feature, None]
    expected = [
        f"ValueError: {pin.format(path=path)}" if isinstance(pin, str) else pin
        for pin in (read, verdict)
    ]
    outcome = _outcome(read_catalog, path)
    assert [outcome if isinstance(outcome, str) else len(outcome),
            _outcome(verify_catalog, path)] == expected


def _with_and_without_order_line(tmp_path, squares):
    text = catalog_text(squares, 4)
    paths = {"header": tmp_path / "header.txt", "headerless": tmp_path / "headerless.txt"}
    paths["header"].write_text(text)
    paths["headerless"].write_text(text.replace("# order=4\n", ""))
    return paths


def test_headerless_catalog_is_read_a_run_at_a_time(tmp_path, monkeypatch, catalog4):
    # With no `# order=N` line a run's order is its first line's, so a
    # headerless catalog takes the run path too: verify_catalog builds no
    # Square, and neither reader parses a line on its own.
    path = _with_and_without_order_line(tmp_path, catalog4)["headerless"]
    built, parsed = [], []
    original_init, original_parse = Square.__post_init__, catalog.parse_square
    monkeypatch.setattr(Square, "__post_init__", lambda sq: (built.append(sq), original_init(sq)))
    monkeypatch.setattr(catalog, "parse_square", lambda *a: (parsed.append(a), original_parse(*a))[1])
    assert verify_catalog(path) == CatalogVerdict(True, 7040)
    assert built == parsed == []
    assert [sq.cells for sq in read_catalog(path)] == [sq.cells for sq in catalog4]
    assert len(built) == 7040 and parsed == []


def test_headerless_catalog_reads_as_fast_as_a_headed_one(tmp_path, catalog4):
    # 7,040 lines each way; the best of five interleaved runs per reader.
    paths = _with_and_without_order_line(tmp_path, catalog4)
    for read in (read_catalog, verify_catalog):
        best = dict.fromkeys(paths, float("inf"))
        for _ in range(5):
            for name, path in paths.items():
                t0 = time.perf_counter()
                read(path)
                best[name] = min(best[name], time.perf_counter() - t0)
        assert best["headerless"] < 1.3 * best["header"], (read.__name__, best)


def _mixed_catalog(tmp_path):
    """An order-4 header over 8 order-3 squares and 3 order-4 squares."""
    path = tmp_path / "mixed.txt"
    text = catalog_text(iter_squares(3), 4)
    text += "".join(encode_square(sq) + "\n" for sq in islice(iter_squares(4), 3))
    path.write_text(text)
    return path


def test_read_catalog_parses_at_header_order(tmp_path):
    path = _mixed_catalog(tmp_path)
    with pytest.raises(ValueError, match="expected 16 values for order 4, got 9"):
        read_catalog(path)
    path.write_text(catalog_text(iter_squares(3), 3))
    assert len(read_catalog(path)) == 8
    assert len(read_catalog(path, 3)) == 8


def test_order_contradicting_header_rejected(tmp_path):
    path = tmp_path / "cat3.txt"
    path.write_text(catalog_text(iter_squares(3), 3))
    with pytest.raises(ValueError, match="catalog of order 3, not order 4"):
        read_catalog(path, 4)
    with pytest.raises(ValueError, match="catalog of order 3, not order 4"):
        verify_catalog(path, 4)
    path.write_text(catalog_text(iter_squares(3), 3) + "# order=4\n")
    with pytest.raises(ValueError, match="catalog of order 4, not order 3"):
        read_catalog(path)


def test_bad_order_line_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad_order.txt"
    path.write_text("# format=1\n# order=x\n4 9 2 3 5 7 8 1 6\n")
    with pytest.raises(ValueError, match="bad_order.txt: bad order line '# order=x'"):
        read_catalog(path)
    assert main(["verify", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: bad order line '# order=x'\n"


def test_verify_catalog_at_header_order(tmp_path):
    verdict = verify_catalog(_mixed_catalog(tmp_path))
    assert not verdict.ok
    assert verdict.count == 3
    assert verdict.problems[0] == "line 0: expected 16 values for order 4, got 9"
    assert len(verdict.problems) == 8


def test_catalog_without_order_line_infers_per_line(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("# format=1\n4 9 2 3 5 7 8 1 6\n")
    assert [sq.order for sq in read_catalog(path)] == [3]
    assert verify_catalog(path).ok


DURER_TEXT = "16 3 2 13 5 10 11 8 9 6 7 12 4 15 14 1"
RECORDS = [
    CatalogRecord(0, parse_square(DURER_TEXT), "III", "A", None, 2),
    CatalogRecord(
        1, parse_square("1 10 15 8 12 13 6 3 5 4 11 14 16 7 2 9"), "VI", "B", "VI'", 0, 7, True
    ),
]


@pytest.mark.parametrize("fmt", ["tsv", "kv"])
def test_classification_round_trip(tmp_path, fmt):
    path = tmp_path / f"classes.{fmt}"
    write_atomic(path, classification_text(RECORDS, fmt))
    back = read_classification(path)
    assert back == RECORDS


@pytest.mark.parametrize("fmt", ["tsv", "kv"])
def test_bad_square_row_rejected(tmp_path, fmt):
    # The first record's square repeats 16 in its last cell.
    bad_text = DURER_TEXT[:-1] + "16"
    text = classification_text(RECORDS, fmt).replace(DURER_TEXT, bad_text)
    row = next(line for line in text.splitlines() if bad_text in line)
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_classification(path)
    assert str(info.value) == f"bad classification row: {row!r}: cell 15 repeats the value 16"


def test_classification_text_encodes_each_square_once(monkeypatch):
    encoded = []

    def counting_encode(square):
        encoded.append(square.cells)
        return encode_square(square)

    monkeypatch.setattr(catalog, "encode_square", counting_encode)
    for fmt in ("tsv", "kv"):
        encoded.clear()
        classification_text(RECORDS, fmt)
        assert encoded == [r.square.cells for r in RECORDS]


def test_classification_order_line_is_an_order_line(tmp_path):
    # Classification files are read through the catalogs' line source, so
    # an `# order=N` line in one is read as an order line, never as a
    # comment.  No writer puts one there.
    head, rest = classification_text(RECORDS, "tsv").split("\n", 1)
    path = tmp_path / "classes.tsv"
    path.write_text(f"{head}\n# order=4\n{rest}")
    assert read_classification(path) == RECORDS
    path.write_text(f"{head}\n# order=x\n{rest}")
    with pytest.raises(ValueError) as info:
        read_classification(path)
    assert str(info.value) == f"{path}: bad order line '# order=x'"


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


def test_record_square_parses(tmp_path):
    path = tmp_path / "classes.tsv"
    write_atomic(path, classification_text(RECORDS))
    assert read_classification(path)[0].square.cells[0] == 16
