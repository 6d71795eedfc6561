"""End-to-end runs: enumerate -> classify -> group -> generators -> report.

Orders 3 and 4 run to completion on a desk.  The order-4 catalog is
labelled from the Dudeney census partition, which already holds each
square.  Order 5 is a long-running job: the pipeline checks a shard plan
of disjoint subtrees, lays it out, and executes count-only shard jobs,
skipping any shard whose count file already holds a well-formed count
for the same prefix and trial cells.
Every order reports through report_data and emit_report, so `magicgen
report` regenerates any run's summary from its report.json.

All outputs are deterministic -- no timestamps, no seeds -- so repeated
runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .catalog import (
    FORMAT_LINE,
    CatalogRecord,
    classification_text,
    catalog_text,
    group_text,
    write_atomic,
)
from .classifier import DudeneyCensus, magic_broken_diagonal_counts, with_vi_split
from .enumerator import (
    checked_plan,
    count_squares,
    iter_squares,
    single_cell_shards,
    trial_cells,
)
from .generators import (
    GeneratorCensus,
    class_census,
    compared_census,
    census as generator_census,
)
from .groups import symmetry_group  # noqa: F401  (perfbench/tracing.py wraps it)
from .squares import Square, encode_square
from .constraints import cell_name

SUMMARY_NAME = "summary.txt"
REPORT_JSON = "report.json"


def classify_catalog(
    squares: Sequence[Square],
    dudeney: DudeneyCensus,
    orbits: Mapping[tuple[int, ...], tuple[int, bool]] | None = None,
) -> list[CatalogRecord]:
    """One record per square, labelled from the census partition that holds it.

    The census has already put each square in its class, so the label is
    looked up by cells, not recomputed; a square outside the census is a
    ValueError.  This lookup is the package's one classification path.
    Broken diagonals are counted once, for every square in one batch, for
    the records and the VI split.  With `orbits` (from attach_orbits) each
    record also carries its orbit id and generator flag; without, both
    stay None.
    """
    labels = []
    for sq in squares:
        label = dudeney.label_by_cells.get(sq.cells)
        if label is None:
            raise ValueError(f"square {encode_square(sq)} is not in the census")
        labels.append(label)
    records = []
    broken_counts = magic_broken_diagonal_counts(squares)
    for i, (sq, label, broken) in enumerate(zip(squares, labels, broken_counts)):
        label = with_vi_split(label, broken)
        orbit_id, is_generator = orbits[sq.cells] if orbits is not None else (None, None)
        records.append(
            CatalogRecord(
                line=i,
                square=sq,
                dudeney=label.dudeney,
                trigg=label.trigg,
                vi_split=label.vi_split,
                broken_diagonals=broken,
                orbit_id=orbit_id,
                is_generator=is_generator,
            )
        )
    return records


def attach_orbits(gens: GeneratorCensus) -> dict[tuple[int, ...], tuple[int, bool]]:
    """Cells -> (orbit id, generator flag) over the closure partitions."""
    orbit_of: dict[tuple[int, ...], tuple[int, bool]] = {}
    orbits = (orb for cls in gens.classes for orb in cls.closure_partition.orbits)
    for oid, orb in enumerate(orbits):
        orbit_of.update(dict.fromkeys((m.cells for m in orb.members), (oid, False)))
        orbit_of[orb.generator.cells] = (oid, True)
    return orbit_of


def _histogram_str(hist: dict) -> str:
    # Sizes are ints in memory and strings once read back from JSON; both
    # print alike.
    return ",".join(f"{size}:{count}" for size, count in hist.items()) or "-"


def generators_text(gens: GeneratorCensus) -> str:
    lines = [FORMAT_LINE, f"# kind=generators total={gens.total_generators}"]
    for cls in gens.classes:
        lines.append(f"[class {cls.letter}]")
        lines.append(f"population={cls.population}")
        lines.append(f"group_order={len(cls.group)}")
        lines.append(f"pair_view_order={cls.group.pair_view_order}")
        lines.append(
            f"group_orbits={len(cls.group_partition.orbits)} "
            f"histogram={_histogram_str(cls.group_partition.size_histogram)}"
        )
        lines.append(
            f"closure_orbits={len(cls.closure_partition.orbits)} "
            f"histogram={_histogram_str(cls.closure_partition.size_histogram)}"
        )
        split = cls.subgroup_split()
        if split:
            lines.append(
                "split=" + ",".join(f"{name}:{size}x{count}" for name, size, count in split)
            )
        for orb in cls.closure_partition.orbits:
            lines.append(f"generator size={orb.size} square={encode_square(orb.generator)}")
    lines.append("")
    return "\n".join(lines)


def report_data(
    order: int,
    count: int,
    dudeney: DudeneyCensus | None,
    gens: GeneratorCensus | None,
    shards: Sequence[Sequence[int]] | None = None,
) -> dict:
    """Machine-readable report; `shards` is a plan checked by checked_plan."""
    data: dict = {"format": 1, "order": order, "square_count": count}
    if dudeney is not None:
        data["dudeney_populations"] = {
            dudeney.labels[c.signature].dudeney: c.population for c in dudeney.classes
        }
        data["trigg_populations"] = dudeney.trigg_populations()
    if gens is not None:
        data["total_generators"] = gens.total_generators
        data["classes"] = {
            cls.letter: {
                "population": cls.population,
                "group_order": len(cls.group),
                "pair_view_order": cls.group.pair_view_order,
                "group_orbit_histogram": cls.group_partition.size_histogram,
                "closure_orbit_histogram": cls.closure_partition.size_histogram,
                "subgroup_split": [
                    {"name": name, "orbit_size": size, "generators": cnt}
                    for name, size, cnt in cls.subgroup_split()
                ],
                "generators": [
                    encode_square(g) for g in cls.closure_partition.generators()
                ],
            }
            for cls in gens.classes
        }
        data["discrepancies"] = [asdict(d) for d in gens.discrepancies]
    if shards is not None:
        depth = len(shards[0])
        data["shard_plan"] = {
            "prefix_depth": depth,
            "shards": len(shards),
            "covers_all_prefixes": len(shards) == math.perm(order * order, depth),
            "reference_count": 2202441792,  # 8 x Schroeppel's 275,305,224
        }
    return data


def emit_report(data: dict) -> str:
    """Human-readable summary from the machine-readable report data."""
    order = data["order"]
    lines = [
        f"normal magic squares, order {order}",
        f"  squares enumerated: {data['square_count']}",
    ]
    if "dudeney_populations" in data:
        pops = data["dudeney_populations"]
        lines.append("  dudeney classes (population):")
        lines.append(
            "    " + "  ".join(f"{k}={v}" for k, v in pops.items())
        )
        tr = data["trigg_populations"]
        total = sum(tr.values())
        lines.append(
            "  trigg classes: "
            + "  ".join(f"{k}={tr[k]}" for k in sorted(tr))
            + f"  (total {total})"
        )
    if "classes" in data:
        lines.append(f"  generators (symmetric-closure orbits): {data['total_generators']}")
        for letter, cls in data["classes"].items():
            hist = ", ".join(
                f"{cnt} of size {size}"
                for size, cnt in cls["closure_orbit_histogram"].items()
            )
            lines.append(
                f"    class {letter}: population {cls['population']}, "
                f"{len(cls['generators'])} generators ({hist})"
            )
            if cls["subgroup_split"]:
                split = ", ".join(
                    f"{s['name']}: {s['generators']} generators of orbit size {s['orbit_size']}"
                    for s in cls["subgroup_split"]
                )
                lines.append(f"      subsets: {split}")
            group_hist = _histogram_str(cls["group_orbit_histogram"])
            lines.append(
                f"      class symmetry group: {cls['group_order']} triples "
                f"({cls['pair_view_order']} full pairs), "
                f"group-orbit histogram {group_hist}"
            )
        disc = data.get("discrepancies", [])
        if disc:
            lines.append("  DISCREPANCIES versus published census:")
            for d in disc:
                lines.append(
                    f"    {d['subject']}.{d['field']}: expected {d['expected']}, "
                    f"computed {d['computed']}"
                )
        else:
            lines.append("  discrepancies versus published census: none")
    if "shard_plan" in data:
        plan = data["shard_plan"]
        cover = "full" if plan["covers_all_prefixes"] else "partial"
        lines.append(
            f"  shard plan: {plan['shards']} shards of prefix depth "
            f"{plan['prefix_depth']} ({cover} plan)"
        )
        lines.append(f"  full-space reference count: {plan['reference_count']}")
    lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class PipelineSummary:
    order: int
    square_count: int
    generator_count: int | None
    out_dir: Path


def run_pipeline(
    order: int,
    out_dir: str | Path,
    long_run: bool = False,
    shards: Iterable[Sequence[int]] | None = None,
    log=None,
) -> PipelineSummary:
    """Run every stage for the given order and persist all artifacts.

    Orders 3 and 4 write catalog, classification (order 4), group
    listings, generator report, report.json, discrepancies.json and
    summary.txt; they take neither long_run nor a shard plan.  Order 5
    requires long_run=True and executes a resumable count-only shard plan
    (default: single_cell_shards(5)), then writes
    report.json and summary.txt.
    """
    out = Path(out_dir)
    log = log or (lambda msg: print(msg, file=sys.stderr))
    if order in (3, 4):
        if shards is not None:
            raise ValueError(f"a shard plan applies to order 5 only, not order {order}")
        if long_run:
            raise ValueError(f"a long run applies to order 5 only, not order {order}")
        return _run_small(order, out, log)
    if order == 5:
        if not long_run:
            raise ValueError(
                "order-5 pipeline is a long-running job; pass long_run=True "
                "and optionally an explicit shard plan"
            )
        return _run_order5(out, shards, log)
    raise ValueError(f"unsupported order {order}")


def _run_small(order: int, out: Path, log) -> PipelineSummary:
    squares = list(iter_squares(order))
    log(f"# stage=enumerate count={len(squares)}")
    write_atomic(out / "catalog.txt", catalog_text(squares, order))

    dudeney = DudeneyCensus.from_catalog(squares) if order == 4 else None
    if dudeney is not None:
        log(f"# stage=classify classes={len(dudeney.classes)}")
        gens = generator_census(dudeney)
        records = classify_catalog(squares, dudeney, attach_orbits(gens))
        write_atomic(out / "classes.tsv", classification_text(records))
    else:
        # Without Dudeney/Trigg classes the whole catalog is one class.
        gens = compared_census([class_census("order3", squares, "order3")])
    log(f"# stage=generators total={gens.total_generators}")

    for cls in gens.classes:
        name = cls.group_partition.subject_name
        write_atomic(out / "groups" / f"{name}.txt", group_text(name, cls.group))
    write_atomic(out / "generators.txt", generators_text(gens))
    data = report_data(order, len(squares), dudeney, gens)
    write_atomic(out / REPORT_JSON, json.dumps(data, indent=2) + "\n")
    write_atomic(out / "discrepancies.json", json.dumps(data["discrepancies"], indent=2) + "\n")
    write_atomic(out / SUMMARY_NAME, emit_report(data))
    log(f"# stage=report discrepancies={len(gens.discrepancies)}")
    return PipelineSummary(order, len(squares), gens.total_generators, out)


def _shard_tag(shard: Sequence[int]) -> str:
    return "_".join(f"{v:02d}" for v in shard)


def _trusted_count(path: Path, head: str) -> int | None:
    """The count in `path` if its text is exactly `head`, digits, newline."""
    try:
        text = path.read_text(errors="replace")
    except FileNotFoundError:
        return None
    m = re.fullmatch(re.escape(head) + r"([0-9]+)\n", text)
    return int(m.group(1)) if m else None


def _run_order5(out: Path, shards: Iterable[Sequence[int]] | None, log) -> PipelineSummary:
    plan = checked_plan(5, single_cell_shards(5) if shards is None else shards)
    cells = ",".join(cell_name(c, 5) for c in trial_cells(5)[: len(plan[0])])
    manifest = [FORMAT_LINE, f"# kind=shard-plan order=5 cells={cells}"]
    manifest.extend(f"shard {_shard_tag(s)}" for s in plan)
    write_atomic(out / "manifest.txt", "\n".join(manifest) + "\n")

    total = 0
    for shard in plan:
        tag = _shard_tag(shard)
        path = out / "shards" / f"shard_{tag}.count"
        # A count holds only for the trial cells it was counted under.
        head = f"{FORMAT_LINE}\n# kind=shard-count order=5 cells={cells} prefix={tag}\ncount "
        count = _trusted_count(path, head)
        if count is not None:
            log(f"# stage=shard {tag} status=resumed")
        else:
            status = "recounted" if path.exists() else "done"
            count = count_squares(5, shard)
            write_atomic(path, f"{head}{count}\n")
            log(f"# stage=shard {tag} status={status} count={count}")
        total += count
    data = report_data(5, total, None, None, plan)
    write_atomic(out / REPORT_JSON, json.dumps(data, indent=2) + "\n")
    write_atomic(out / SUMMARY_NAME, emit_report(data))
    return PipelineSummary(5, total, None, out)
