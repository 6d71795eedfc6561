"""File formats: square catalogs, classification records, group listings.

Everything is line-oriented text with a `# format=1` version header so the
files diff and stream cleanly.  A catalog holds one canonical square
encoding per line; classification and generator metadata live in sidecar
files keyed by catalog line number.  All writes go through write_atomic,
so partially written files never exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .squares import Square, encode_square, is_normal_magic, parse_square

FORMAT_LINE = "# format=1"


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace `path` with `text`; readers see the old file or the new one.

    The text goes to a temp file with a unique name in the same directory,
    so concurrent writers never share one, and is fsynced before the
    rename.  The temp file is removed if anything fails.  The new file
    gets the mode a plain open() gives, not mkstemp's 0600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _data_lines(path: Path) -> Iterator[str]:
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
        if first != FORMAT_LINE:
            raise ValueError(f"{path}: missing '{FORMAT_LINE}' header")
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def catalog_text(squares: Iterable[Square], order: int) -> str:
    lines = [FORMAT_LINE, f"# order={order}"]
    lines.extend(encode_square(sq) for sq in squares)
    lines.append("")
    return "\n".join(lines)


def read_catalog(path: str | os.PathLike, order: int | None = None) -> list[Square]:
    return [parse_square(line, order) for line in _data_lines(Path(path))]


@dataclass(frozen=True)
class CatalogVerdict:
    ok: bool
    count: int
    problems: tuple[str, ...] = ()


def verify_catalog(path: str | os.PathLike, order: int | None = None) -> CatalogVerdict:
    """Re-parse a catalog and re-check every square independently."""
    problems: list[str] = []
    seen: set[tuple[int, ...]] = set()
    count = 0
    for lineno, line in enumerate(_data_lines(Path(path))):
        try:
            sq = parse_square(line, order)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        count += 1
        if not is_normal_magic(sq):
            problems.append(f"line {lineno}: square is not magic")
        if sq.cells in seen:
            problems.append(f"line {lineno}: duplicate square")
        seen.add(sq.cells)
        if len(problems) >= 20:
            problems.append("... further problems suppressed")
            break
    return CatalogVerdict(not problems, count, tuple(problems))


# ---------------------------------------------------------------------------
# Classification records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogRecord:
    """One classified square; orbit fields appear once generators ran."""

    line: int
    encoding: str
    dudeney: str
    trigg: str
    vi_split: str | None
    broken_diagonals: int
    orbit_id: int | None = None
    is_generator: bool | None = None

    def square(self) -> Square:
        return parse_square(self.encoding)


_COLUMNS = "line|square|dudeney|trigg|vi_split|broken_diagonals|orbit_id|is_generator"


def classification_text(records: Iterable[CatalogRecord], fmt: str = "tsv") -> str:
    if fmt not in ("tsv", "kv"):
        raise ValueError(f"unknown classification format {fmt!r}")
    lines = [FORMAT_LINE, f"# kind=classification columns={_COLUMNS}"]
    for r in records:
        vi = r.vi_split if r.vi_split is not None else "-"
        oid = str(r.orbit_id) if r.orbit_id is not None else "-"
        gen = ("1" if r.is_generator else "0") if r.is_generator is not None else "-"
        if fmt == "tsv":
            lines.append(
                "\t".join(
                    (
                        str(r.line),
                        r.encoding,
                        r.dudeney,
                        r.trigg,
                        vi,
                        str(r.broken_diagonals),
                        oid,
                        gen,
                    )
                )
            )
        else:
            lines.append(
                f"line={r.line};dudeney={r.dudeney};trigg={r.trigg};vi_split={vi};"
                f"broken_diagonals={r.broken_diagonals};orbit_id={oid};"
                f"is_generator={gen};square={r.encoding}"
            )
    lines.append("")
    return "\n".join(lines)


def _record_from_fields(fields: dict[str, str]) -> CatalogRecord:
    vi = fields["vi_split"]
    oid = fields["orbit_id"]
    gen = fields["is_generator"]
    return CatalogRecord(
        line=int(fields["line"]),
        encoding=fields["square"],
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
            if len(parts) != len(names):
                raise ValueError(f"bad classification row: {line!r}")
            fields = dict(zip(names, parts))
        else:
            head, _, enc = line.partition(";square=")
            fields = {"square": enc}
            for item in head.split(";"):
                k, _, v = item.partition("=")
                fields[k] = v
            if sorted(fields) != sorted(names):
                raise ValueError(f"bad classification row: {line!r}")
        records.append(_record_from_fields(fields))
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
