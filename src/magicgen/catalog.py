"""File formats: square catalogs, classification records, group listings.

Everything is line-oriented text with a `# format=1` version header so the
files diff and stream cleanly.  A catalog holds one canonical square
encoding per line; classification and generator metadata live in sidecar
files keyed by catalog line number.  All writes go through atomic_file,
so partially written files never exist.

write_catalog streams squares to a handle; catalog_text is the same text.
Readers take a file in bounded chunks, as runs of data lines, each read
through its order's value table (int() reads a line with a token the
table lacks).  verify_catalog builds no Square for a run of new, distinct
permutations, and adds line sums column-wise over batches of squares,
naming each non-magic square.  It holds the squares seen, one batch, one
chunk and the first 20 problems, never the file's text.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from math import isqrt
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .squares import (
    Square,
    _line_sums,
    _tables,
    encode_square,
    magic_constant,
    parse_square,
)

FORMAT_LINE = "# format=1"
ORDER_PREFIX = "# order="


@contextmanager
def atomic_file(path: str | os.PathLike) -> Iterator[TextIO]:
    """A text handle whose content replaces `path` when the block succeeds.

    Readers see the old file or the new one.  The handle writes a temp file
    with a unique name in the same directory, so concurrent writers never
    share one, and is fsynced before the rename.  The temp file is removed
    if anything fails, including the block itself.  The new file gets the
    mode a plain open() gives, not mkstemp's 0600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace `path` with `text` through atomic_file."""
    with atomic_file(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def write_catalog(fh: TextIO, squares: Iterable[Square], order: int) -> int:
    """Write the header and one line per square to `fh`; return the count."""
    fh.write(f"{FORMAT_LINE}\n{ORDER_PREFIX}{order}\n")
    count = 0
    for count, sq in enumerate(squares, 1):
        fh.write(encode_square(sq) + "\n")
    return count


def catalog_text(squares: Iterable[Square], order: int) -> str:
    buf = io.StringIO()
    write_catalog(buf, squares, order)
    return buf.getvalue()


# Characters per readlines() call.  Order-4 catalog round trips (x86-64,
# CPython 3.11) peak at the RSS of line-at-a-time reading with 8 KB chunks,
# 5 % above it with 64 KB.
_CHUNK = 8192


def _runs(path: Path, order: int | None) -> Iterator[tuple[list[str], int | None]]:
    """Runs of data lines (empty and comment lines skipped), each with its order.

    An `# order=N` line, as catalog_text writes, ends a run and fixes the
    order for the rest of the file; a given `order` or an earlier such
    line that says otherwise is an error.  Until then `order` applies.
    """
    with path.open() as fh:
        if fh.readline().rstrip("\n") != FORMAT_LINE:
            raise ValueError(f"{path}: missing '{FORMAT_LINE}' header")
        while chunk := fh.readlines(_CHUNK):
            run = []
            for line in chunk:
                line = line.rstrip("\n")
                if line.startswith(ORDER_PREFIX):
                    yield run, order
                    run = []
                    try:
                        declared = int(line[len(ORDER_PREFIX):])
                    except ValueError:
                        raise ValueError(f"{path}: bad order line {line!r}") from None
                    if order is not None and declared != order:
                        raise ValueError(
                            f"{path}: catalog of order {declared}, not order {order}"
                        )
                    order = declared
                elif line and not line.startswith("#"):
                    run.append(line)
            yield run, order


def _run_cells(lines: list[str], n: int | None) -> tuple[int, list[tuple[int, ...]] | None]:
    """A run's order (its first line's if `n` is None) and its cells read
    through that order's value table, or None if a line misses the table."""
    rows = list(map(str.split, lines))
    k = n if n is not None else isqrt(len(rows[0])) if rows else 0
    if rows and type(k) is int and k >= 3 and set(map(len, rows)) == {k * k}:
        ints = _tables(k).ints
        try:
            return k, [itemgetter(*row)(ints) for row in rows]
        except KeyError:
            pass
    return k, None


def read_catalog(path: str | os.PathLike, order: int | None = None) -> list[Square]:
    squares: list[Square] = []
    for lines, n in _runs(Path(path), order):
        k, grids = _run_cells(lines, n)
        if grids is None:
            squares += map(parse_square, lines, repeat(n))
        else:
            squares += map(Square, repeat(k), grids)
    return squares


@dataclass(frozen=True)
class CatalogVerdict:
    ok: bool
    count: int
    problems: tuple[str, ...] = ()


# Squares whose line sums verify_catalog checks together.  Time per square
# is flat from about 64 up; 1,024 squares are small beside `seen`.
_BATCH = 1024


def verify_catalog(path: str | os.PathLike, order: int | None = None) -> CatalogVerdict:
    """Re-parse a catalog and re-check every square; problems past 20 are counted.

    A run of new, distinct permutations is checked whole with no Square
    built; other runs go through parse_square a line at a time.  Line sums
    are taken per batch of about _BATCH squares of one order, each square's
    sums naming it if it is not magic.  The batch is checked before any
    other problem is noted, a duplicate's own line included, so problems
    arrive in line order.
    """
    shown: list[str] = []
    problems = 0
    seen: set[tuple[int, ...]] = set()
    batch: list[tuple[int, tuple[int, ...]]] = []  # (line number, cells)
    batch_order = 0
    count = 0
    start = 0  # the first run line's number

    def note(lineno: int, text: str) -> None:
        nonlocal problems
        problems += 1
        if problems <= 20:
            shown.append(f"line {lineno}: {text}")

    def check_batch() -> None:
        """Note each batch square that is not magic, in line order."""
        if batch:
            linenos, grids = zip(*batch)
            getters = _tables(batch_order).magic_getters
            magic = (magic_constant(batch_order),) * len(getters)
            for lineno, sums in zip(linenos, _line_sums(grids, getters)):
                if sums != magic:
                    note(lineno, "square is not magic")
            batch.clear()

    for lines, n in _runs(Path(path), order):
        k, grids = _run_cells(lines, n)
        fresh = set(grids or ())
        if grids and len(fresh) == len(grids) and fresh.isdisjoint(seen) and all(
            map(_tables(k).values.__eq__, map(set, grids))
        ):
            if k != batch_order or len(batch) >= _BATCH:
                check_batch()
                batch_order = k
            batch += zip(range(start, start + len(grids)), grids)
            seen |= fresh
            count += len(grids)
        else:
            for lineno, line in enumerate(lines, start):
                try:
                    square = parse_square(line, n)
                except ValueError as exc:
                    check_batch()
                    note(lineno, str(exc))
                    continue
                count += 1
                if square.order != batch_order or len(batch) >= _BATCH:
                    check_batch()
                    batch_order = square.order
                batch.append((lineno, square.cells))
                if square.cells in seen:
                    check_batch()
                    note(lineno, "duplicate square")
                seen.add(square.cells)
        start += len(lines)
    check_batch()
    if problems > 20:
        shown.append(f"... {problems - 20} further problems suppressed")
    return CatalogVerdict(not problems, count, tuple(shown))


# ---------------------------------------------------------------------------
# Classification records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogRecord:
    """One classified square; orbit fields appear once generators ran."""

    line: int
    square: Square
    dudeney: str
    trigg: str
    vi_split: str | None
    broken_diagonals: int
    orbit_id: int | None = None
    is_generator: bool | None = None


_COLUMNS = "line|square|dudeney|trigg|vi_split|broken_diagonals|orbit_id|is_generator"


def classification_text(records: Iterable[CatalogRecord], fmt: str = "tsv") -> str:
    if fmt not in ("tsv", "kv"):
        raise ValueError(f"unknown classification format {fmt!r}")
    lines = [FORMAT_LINE, f"# kind=classification columns={_COLUMNS}"]
    for r in records:
        enc = encode_square(r.square)
        vi = r.vi_split if r.vi_split is not None else "-"
        oid = str(r.orbit_id) if r.orbit_id is not None else "-"
        gen = ("1" if r.is_generator else "0") if r.is_generator is not None else "-"
        if fmt == "tsv":
            row = (str(r.line), enc, r.dudeney, r.trigg, vi, str(r.broken_diagonals))
            lines.append("\t".join((*row, oid, gen)))
        else:
            lines.append(
                f"line={r.line};dudeney={r.dudeney};trigg={r.trigg};vi_split={vi};"
                f"broken_diagonals={r.broken_diagonals};orbit_id={oid};"
                f"is_generator={gen};square={enc}"
            )
    lines.append("")
    return "\n".join(lines)


def _record_from_fields(fields: dict[str, str]) -> CatalogRecord:
    vi = fields["vi_split"]
    oid = fields["orbit_id"]
    gen = fields["is_generator"]
    return CatalogRecord(
        line=int(fields["line"]),
        square=parse_square(fields["square"]),
        dudeney=fields["dudeney"],
        trigg=fields["trigg"],
        vi_split=None if vi == "-" else vi,
        broken_diagonals=int(fields["broken_diagonals"]),
        orbit_id=None if oid == "-" else int(oid),
        is_generator=None if gen == "-" else gen == "1",
    )


def read_classification(path: str | os.PathLike) -> list[CatalogRecord]:
    records = []
    names = _COLUMNS.split("|")
    for line in chain.from_iterable(lines for lines, _ in _runs(Path(path), None)):
        if "\t" in line:
            parts = line.split("\t")
            fields = dict(zip(names, parts)) if len(parts) == len(names) else {}
        else:
            head, _, enc = line.partition(";square=")
            fields = {"square": enc}
            for item in head.split(";"):
                k, _, v = item.partition("=")
                fields[k] = v
        try:
            if sorted(fields) != sorted(names):
                raise ValueError(f"expected the columns {_COLUMNS}")
            records.append(_record_from_fields(fields))
        except ValueError as exc:
            raise ValueError(f"bad classification row: {line!r}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# Group listings
# ---------------------------------------------------------------------------

def group_text(name: str, group) -> str:
    lines = [
        FORMAT_LINE,
        f"# kind=group subject={name} order={group.order_n} "
        f"size={len(group)} pair_view={group.pair_view_order}",
    ]
    for t in group.members:
        rows = ",".join(map(str, t.row_perm))
        cols = ",".join(map(str, t.col_perm))
        lines.append(f"rows={rows} cols={cols} transpose={int(t.transposed)}")
    lines.append("")
    return "\n".join(lines)
