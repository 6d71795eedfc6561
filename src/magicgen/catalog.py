"""File formats: square catalogs, classification records, group listings.

Everything is line-oriented text with a `# format=1` version header so the
files diff and stream cleanly.  A catalog holds one canonical square
encoding per line; classification and generator metadata live in sidecar
files keyed by catalog line number.  All writes go through atomic_file,
so partially written files never exist.

Catalogs are written and read a line at a time: write_catalog streams
squares to a handle, and catalog_text is the same text as one string.  A
line's tokens are mapped to ints through the order's value table (int()
reads any line with a token the table lacks).  verify_catalog builds no
Square: a line of n^2 distinct table values is a permutation, and line
sums are added column-wise over batches of consecutive squares, which
name each non-magic square directly.  It holds the squares seen, one
batch and the first 20 problems, never the file's text.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .squares import (
    Square,
    _line_sums,
    _table_cells,
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


def _lines(path: Path) -> Iterator[str]:
    """Non-empty lines after the format header, comment lines included."""
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
        if first != FORMAT_LINE:
            raise ValueError(f"{path}: missing '{FORMAT_LINE}' header")
        for line in fh:
            line = line.rstrip("\n")
            if line:
                yield line


def _data_lines(path: Path) -> Iterator[str]:
    return (line for line in _lines(path) if not line.startswith("#"))


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


def _catalog_lines(path: Path, order: int | None) -> Iterator[tuple[str, int | None]]:
    """Each square line of a catalog with the order to parse it at.

    An `# order=N` line, as catalog_text writes, fixes the order for the
    rest of the file; a given `order` or an earlier such line that says
    otherwise is an error.  Until then `order` applies, and None infers
    each line's order from its token count.
    """
    for line in _lines(path):
        if line.startswith(ORDER_PREFIX):
            try:
                declared = int(line[len(ORDER_PREFIX):])
            except ValueError:
                raise ValueError(f"{path}: bad order line {line!r}") from None
            if order is not None and declared != order:
                raise ValueError(f"{path}: catalog of order {declared}, not order {order}")
            order = declared
        elif not line.startswith("#"):
            yield line, order


def read_catalog(path: str | os.PathLike, order: int | None = None) -> list[Square]:
    return [parse_square(line, n) for line, n in _catalog_lines(Path(path), order)]


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

    A line that is not n^2 distinct table values goes through parse_square,
    for its problem or its cells.  Line sums are taken per batch of up to
    _BATCH consecutive squares of one order, each square's sums naming it
    if it is not magic.  The batch is checked before any other problem is
    noted, a duplicate's own line included, so problems arrive in line
    order.
    """
    shown: list[str] = []
    problems = 0
    seen: set[tuple[int, ...]] = set()
    batch: list[tuple[int, tuple[int, ...]]] = []  # (line number, cells)
    batch_order = 0
    count = 0

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

    for lineno, (line, n) in enumerate(_catalog_lines(Path(path), order)):
        tokens = line.split()
        k = n if n is not None else isqrt(len(tokens))
        cells = _table_cells(tokens, k)
        if cells is None or set(cells) != _tables(k).values:
            try:
                cells = parse_square(line, n).cells
            except ValueError as exc:
                check_batch()
                note(lineno, str(exc))
                continue
        count += 1
        if k != batch_order or len(batch) == _BATCH:
            check_batch()
            batch_order = k
        batch.append((lineno, cells))
        if cells in seen:
            check_batch()
            note(lineno, "duplicate square")
        seen.add(cells)
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
    for line in _data_lines(Path(path)):
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
