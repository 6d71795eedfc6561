"""Output checks behind `attempted`, `failed` and `failed_frac`.

Every check is independent of the code under test where it can be: the
magic test, the published census figures and the artifact digests are
written out here rather than taken from magicgen.  Each gate records one
attempted check per property, so a doctored output makes `failed` (and
`failed_frac = failed / attempted`) rise above zero.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

# Published order-4 census.
ORDER4_SQUARES = 7040
ORDER4_GENERATORS = 95
TRIGG_POPULATIONS = {"A": 1152, "B": 3968, "C": 1792, "D": 128}
CLOSURE_HISTOGRAMS = {
    "A": {384: 3},
    "B": {192: 12, 96: 4, 64: 10, 32: 20},
    "C": {64: 12, 32: 32},
    "D": {64: 2},
}

# sha256 of the order-4 pipeline's artifacts (see `artifact_digest`) and of
# the order-4 catalog text, as written by the first commit of the package.
# Every later commit must reproduce them byte for byte.
PIPELINE_DIGEST = "1ce4028fe051649f7dbc27754914f2cf4f72dfd855b980866b310fcfd5bcf87d"
CATALOG_DIGEST = "508feccde48a9a75be3b1e340c8baaa3417e3ce74d8203559a00f87ccc54ae82"


class Checks:
    """Tally of output checks: attempted, failed, and what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def is_normal_magic(cells: Sequence[int], n: int) -> bool:
    """Every value 1..n^2 once; rows, columns and both diagonals sum alike."""
    n2 = n * n
    if len(cells) != n2 or sorted(cells) != list(range(1, n2 + 1)):
        return False
    mu = n * (n2 + 1) // 2
    for i in range(n):
        if sum(cells[i * n : i * n + n]) != mu or sum(cells[i::n]) != mu:
            return False
    return (
        sum(cells[i * n + i] for i in range(n)) == mu
        and sum(cells[i * n + n - 1 - i] for i in range(n)) == mu
    )


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digest(out_dir: str | Path) -> str:
    """sha256 over every file below `out_dir`: relative path, size, bytes."""
    root = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# order4-pipeline
# ---------------------------------------------------------------------------


def check_report(checks: Checks, report: dict) -> None:
    """report.json against the published order-4 census."""
    checks.check(report.get("square_count") == ORDER4_SQUARES, "report square_count")
    checks.check(
        report.get("total_generators") == ORDER4_GENERATORS, "report total_generators"
    )
    checks.check(
        report.get("trigg_populations") == TRIGG_POPULATIONS, "report trigg_populations"
    )
    classes = report.get("classes", {})
    for letter, expected in CLOSURE_HISTOGRAMS.items():
        raw = classes.get(letter, {}).get("closure_orbit_histogram", {})
        got = {int(k): v for k, v in raw.items()}
        checks.check(got == expected, f"class {letter} closure histogram {got}")
    checks.check(report.get("discrepancies", None) == [], "report discrepancies")


def check_pipeline_run(checks: Checks, returncode: int, out_dir: str | Path) -> str | None:
    """Exit status, report.json and the artifact digest of one pipeline run.

    Returns the digest (None when the run left no report).
    """
    checks.check(returncode == 0, f"pipeline exit status {returncode}")
    report_path = Path(out_dir) / "report.json"
    if not checks.check(report_path.is_file(), "report.json missing"):
        return None
    try:
        report = json.loads(report_path.read_text())
    except ValueError:
        report = {}
    check_report(checks, report)
    digest = artifact_digest(out_dir)
    checks.check(digest == PIPELINE_DIGEST, f"artifact digest {digest}")
    return digest


# ---------------------------------------------------------------------------
# order4-catalog
# ---------------------------------------------------------------------------


def check_catalog_round_trip(
    checks: Checks,
    sharded: Sequence[Sequence[int]],
    serial: Sequence[Sequence[int]],
    text: str,
    read_back: Sequence[Sequence[int]],
    verdict_ok: bool,
    verdict_count: int,
) -> None:
    """Sharded enumeration, written catalog and read-back agree and are right."""
    sharded = [tuple(c) for c in sharded]
    checks.check(len(sharded) == ORDER4_SQUARES, f"{len(sharded)} squares enumerated")
    checks.check(len(set(sharded)) == len(sharded), "duplicate squares")
    checks.check(
        all(is_normal_magic(c, 4) for c in sharded), "a square is not normal magic"
    )
    checks.check(sharded == [tuple(c) for c in serial], "shard order != serial order")
    checks.check(sha256_text(text) == CATALOG_DIGEST, "catalog text digest")
    checks.check([tuple(c) for c in read_back] == sharded, "read-back differs")
    checks.check(
        verdict_ok and verdict_count == ORDER4_SQUARES,
        f"verify_catalog ok={verdict_ok} count={verdict_count}",
    )


# ---------------------------------------------------------------------------
# order5-subtrees
# ---------------------------------------------------------------------------


def complement(values: Iterable[int]) -> tuple[int, ...]:
    """Order-5 complement: every value v becomes 26 - v."""
    return tuple(26 - v for v in values)


def check_pair(checks: Checks, prefix: Sequence[int], count: int, comp_count: int) -> None:
    """Complementing every cell is a bijection between the two subtrees."""
    checks.check(
        count == comp_count,
        f"count{tuple(prefix)}={count} != count(complement)={comp_count}",
    )


def check_subtree_squares(
    checks: Checks,
    prefix: Sequence[int],
    pinned_cells: Sequence[int],
    squares: Sequence[Sequence[int]],
    counted: int,
) -> None:
    """Re-iterated squares of one subtree: number, magic, pinned values."""
    checks.check(
        len(squares) == counted,
        f"subtree {tuple(prefix)}: iterated {len(squares)}, counted {counted}",
    )
    checks.check(
        all(is_normal_magic(c, 5) for c in squares),
        f"subtree {tuple(prefix)}: a square is not normal magic",
    )
    checks.check(
        all(tuple(c[i] for i in pinned_cells) == tuple(prefix) for c in squares),
        f"subtree {tuple(prefix)}: a square misses the pinned values",
    )
