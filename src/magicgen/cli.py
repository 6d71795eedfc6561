"""Command-line interface.

Subcommands mirror the pipeline stages: enumerate, classify, group,
generators, report, verify, analyze basis, and pipeline (all stages).
Catalog data goes to --out (or stdout); progress and the trailing
`# count=K` diagnostic go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from .catalog import (
    FORMAT_LINE,
    atomic_file,
    classification_text,
    group_text,
    read_catalog,
    read_classification,
    verify_catalog,
    write_atomic,
    write_catalog,
)
from .classifier import TRIGG_LETTERS, DudeneyCensus
from .constraints import build_system, cell_name
from .enumerator import checked_plan, iter_squares, shard_for, trial_cells
from .generators import census as generator_census
from .groups import symmetry_group
from .pipeline import (
    REPORT_JSON,
    SUMMARY_NAME,
    classify_catalog,
    emit_report,
    generators_text,
    report_data,
    run_pipeline,
)


def _cell(text: str) -> int:
    """One enumerate --shard-cell: a cell letter or a reading-order index."""
    if text.isalpha() and len(text) == 1:
        return ord(text.lower()) - ord("a")
    try:
        return int(text)
    except ValueError:
        message = f"expected one cell letter or an integer index, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _order(text: str) -> int:
    """One verify or analyze --order: an integer of at least 3."""
    if not text.isdecimal() or int(text) < 3:
        raise argparse.ArgumentTypeError(f"expected an order of 3 or more, got {text!r}")
    return int(text)


def _output(args):
    """The --out file, replaced atomically once the block succeeds, or stdout."""
    return atomic_file(args.out) if args.out else nullcontext(sys.stdout)


def _shard_from_args(args, n: int) -> tuple[int, ...]:
    cells = args.shard_cell or []
    values = args.shard_value or []
    if len(cells) != len(values):
        raise ValueError("--shard-cell and --shard-value must be paired")
    for idx in cells:
        if not 0 <= idx < n * n:
            raise ValueError(f"cell index {idx} out of range for order {n}")
    shard = shard_for(n, cells, values)
    checked_plan(n, [shard])
    return shard


def _cmd_enumerate(args) -> int:
    n = args.order
    shard = _shard_from_args(args, n)
    if args.long_run and n != 5:
        raise ValueError(f"--long-run applies to order 5 only, not order {n}")
    if n == 5 and not shard and not args.long_run:
        raise ValueError(
            "full order-5 enumeration is a long-running job; "
            "pass --long-run or shard it with --shard-cell/--shard-value"
        )
    with _output(args) as fh:
        count = write_catalog(fh, iter_squares(n, shard), n)
    print(f"# count={count}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    squares = read_catalog(args.infile)
    dudeney = DudeneyCensus.from_catalog(squares)
    records = classify_catalog(squares, dudeney)
    with _output(args) as fh:
        fh.write(classification_text(records, args.format))
    print(f"# count={len(records)} classes={len(dudeney.classes)}", file=sys.stderr)
    return 0


def _cmd_group(args) -> int:
    records = read_classification(args.infile)
    members = [r.square for r in records if r.trigg == args.trigg]
    if not members:
        raise ValueError(f"no squares labeled trigg={args.trigg}")
    group = symmetry_group(members)
    with _output(args) as fh:
        fh.write(group_text(f"trigg_{args.trigg}", group))
    print(f"# size={len(group)} pair_view={group.pair_view_order}", file=sys.stderr)
    return 0


def _cmd_generators(args) -> int:
    records = read_classification(args.infile)
    squares = [r.square for r in records]
    dudeney = DudeneyCensus.from_catalog(squares)
    gens = generator_census(dudeney)
    write_atomic(args.out, generators_text(gens))
    if args.json:
        data = report_data(4, len(squares), dudeney, gens)
        write_atomic(args.json, json.dumps(data, indent=2) + "\n")
    print(
        f"# generators={gens.total_generators} discrepancies={len(gens.discrepancies)}",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args) -> int:
    data = json.loads((Path(args.dir) / REPORT_JSON).read_text())
    try:
        text = emit_report(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad {REPORT_JSON}: {exc!r}") from exc
    out = args.out or str(Path(args.dir) / SUMMARY_NAME)
    write_atomic(out, text)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    verdict = verify_catalog(args.infile, args.order)
    print(f"# count={verdict.count}", file=sys.stderr)
    if verdict.ok:
        print(f"OK: {verdict.count} squares, all normal magic, no duplicates")
        return 0
    for p in verdict.problems:
        print(f"FAIL: {p}")
    return 1


def _cmd_analyze(args) -> int:
    n = args.order
    system = build_system(n)
    print(FORMAT_LINE)
    print(f"order={n}")
    print(f"equations={len(system.equations)}")
    print(f"rank={system.rank}")
    print("free_cells=" + ",".join(cell_name(c, n) for c in system.free_cells))
    print("trial_order=" + ",".join(cell_name(c, n) for c in trial_cells(n)))
    for dep in system.dependencies:
        print(dep.render(n))
    return 0


def _plan_entry(text: str) -> tuple[int, ...]:
    """One pipeline --shard-value: comma-separated trial-cell values."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _cmd_pipeline(args) -> int:
    try:
        summary = run_pipeline(
            args.order,
            args.out_dir,
            long_run=args.long_run,
            shards=args.shard_value,
        )
    except ValueError as exc:
        print(f"error: stage=pipeline {exc}", file=sys.stderr)
        return 1
    print(
        f"# order={summary.order} squares={summary.square_count} "
        f"generators={summary.generator_count} out={summary.out_dir}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicgen",
        description="Enumerate, classify, and find the generators of small "
        "normal magic squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all squares of an order")
    p.add_argument("--order", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--shard-cell", action="append", type=_cell, metavar="CELL")
    p.add_argument("--shard-value", action="append", type=int, metavar="V")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--long-run", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="label a complete order-4 catalog")
    p.add_argument("--in", dest="infile", required=True, metavar="CATALOG")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--format", choices=("tsv", "kv"), default="tsv")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("group", help="symmetry group of one Trigg class")
    p.add_argument("--in", dest="infile", required=True, metavar="CLASSFILE")
    p.add_argument("--trigg", required=True, choices=TRIGG_LETTERS)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("generators", help="orbit decomposition and generator census")
    p.add_argument("--in", dest="infile", required=True, metavar="CLASSFILE")
    p.add_argument("--out", required=True, metavar="REPORT")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("report", help="regenerate the summary from report.json")
    p.add_argument("--dir", required=True, metavar="OUTDIR")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="re-check a catalog file")
    p.add_argument("--in", dest="infile", required=True, metavar="CATALOG")
    p.add_argument("--order", type=_order)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="inspect the constraint system")
    p.add_argument("what", choices=("basis",))
    p.add_argument("--order", type=_order, required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run every stage into a directory")
    p.add_argument("--order", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--long-run", action="store_true")
    p.add_argument(
        "--shard-value",
        action="append",
        type=_plan_entry,
        metavar="V1,V2,...",
        help="order-5 shard plan entry (comma-separated trial-cell values)",
    )
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
