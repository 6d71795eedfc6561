"""File formats: square catalogs, classification records, group listings.

Everything is line-oriented text with a `# format=1` version header so the
files diff and stream cleanly.  A catalog holds one canonical square
encoding per line; classification and generator metadata live in sidecar
files keyed by catalog line number.  All writes go through atomic_file,
so partially written files never exist.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .squares import Square, encode_square, is_normal_magic, parse_square

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

def catalog_text(squares: Iterable[Square], order: int) -> str:
    lines = [FORMAT_LINE, f"{ORDER_PREFIX}{order}"]
    lines.extend(encode_square(sq) for sq in squares)
    lines.append("")
    return "\n".join(lines)


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


def verify_catalog(path: str | os.PathLike, order: int | None = None) -> CatalogVerdict:
    """Re-parse a catalog and re-check every square; problems past 20 are counted."""
    problems: list[str] = []
    seen: set[tuple[int, ...]] = set()
    count = 0
    for lineno, (line, n) in enumerate(_catalog_lines(Path(path), order)):
        try:
            sq = parse_square(line, n)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        count += 1
        if not is_normal_magic(sq):
            problems.append(f"line {lineno}: square is not magic")
        if sq.cells in seen:
            problems.append(f"line {lineno}: duplicate square")
        seen.add(sq.cells)
    if len(problems) > 20:
        problems[20:] = [f"... {len(problems) - 20} further problems suppressed"]
    return CatalogVerdict(not problems, count, tuple(problems))


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
        f"size={len(group)} pair_view={len(group.pair_view())}",
    ]
    for t in group.members:
        rows = ",".join(map(str, t.row_perm))
        cols = ",".join(map(str, t.col_perm))
        lines.append(f"rows={rows} cols={cols} transpose={int(t.transposed)}")
    lines.append("")
    return "\n".join(lines)
