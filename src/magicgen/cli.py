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
from pathlib import Path
from typing import Sequence

from .catalog import (
    FORMAT_LINE,
    catalog_text,
    classification_text,
    group_text,
    read_catalog,
    read_classification,
    verify_catalog,
    write_atomic,
)
from .classifier import DudeneyCensus
from .constraints import build_system, cell_name
from .enumerator import Shard, iter_squares, shard_for, trial_cells
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
from .squares import encode_square


def _parse_cell(token: str, n: int) -> int:
    if token.isalpha() and len(token) == 1:
        idx = ord(token.lower()) - ord("a")
    else:
        idx = int(token)
    if not 0 <= idx < n * n:
        raise ValueError(f"cell {token!r} out of range for order {n}")
    return idx


def _shard_from_args(args, n: int) -> Shard | None:
    cells = args.shard_cell or []
    values = args.shard_value or []
    if not cells and not values:
        return None
    if len(cells) != len(values):
        raise ValueError("--shard-cell and --shard-value must be paired")
    return shard_for(n, [_parse_cell(c, n) for c in cells], values)


def _cmd_enumerate(args) -> int:
    n = args.order
    shard = _shard_from_args(args, n)
    if n == 5 and shard is None and not args.long_run:
        print(
            "error: full order-5 enumeration is a long-running job; "
            "pass --long-run or shard it with --shard-cell/--shard-value",
            file=sys.stderr,
        )
        return 1
    if args.out:
        squares = list(iter_squares(n, shard))
        write_atomic(args.out, catalog_text(squares, n))
        count = len(squares)
    else:
        print(FORMAT_LINE)
        print(f"# order={n}")
        count = 0
        for sq in iter_squares(n, shard):
            print(encode_square(sq))
            count += 1
    print(f"# count={count}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    squares = read_catalog(args.infile)
    dudeney = DudeneyCensus.from_catalog(squares)
    records = classify_catalog(squares, dudeney)
    text = classification_text(records, args.format)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"# count={len(records)} classes=12", file=sys.stderr)
    return 0


def _squares_by_trigg(path: str, letter: str):
    records = read_classification(path)
    return [r.square() for r in records if r.trigg == letter]


def _cmd_group(args) -> int:
    members = _squares_by_trigg(args.infile, args.trigg)
    if not members:
        print(f"error: no squares labeled trigg={args.trigg}", file=sys.stderr)
        return 1
    group = symmetry_group(members)
    text = group_text(f"trigg_{args.trigg}", group)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"# size={len(group)} pair_view={len(group.pair_view())}", file=sys.stderr)
    return 0


def _cmd_generators(args) -> int:
    records = read_classification(args.infile)
    squares = [r.square() for r in records]
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
    text = emit_report(data)
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
    if args.what != "basis":
        print(f"error: unknown analysis {args.what!r}", file=sys.stderr)
        return 1
    n = args.order
    system = build_system(n)
    print("# format=1")
    print(f"order={n}")
    print(f"equations={len(system.equations)}")
    print(f"rank={system.rank}")
    print("free_cells=" + ",".join(cell_name(c, n) for c in system.free_cells))
    print("trial_order=" + ",".join(cell_name(c, n) for c in trial_cells(n)))
    for dep in system.dependencies:
        print(dep.render(n))
    return 0


def _cmd_pipeline(args) -> int:
    shards = None
    if args.shard_value:
        shards = [Shard(tuple(int(x) for x in sv.split(","))) for sv in args.shard_value]
    try:
        summary = run_pipeline(
            args.order,
            args.out_dir,
            long_run=args.long_run,
            shards=shards,
            fmt=args.format,
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
    p.add_argument("--shard-cell", action="append", metavar="CELL")
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
    p.add_argument("--trigg", required=True, choices=tuple("ABCD"))
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
    p.add_argument("--order", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="inspect the constraint system")
    p.add_argument("what", choices=("basis",))
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run every stage into a directory")
    p.add_argument("--order", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--format", choices=("tsv", "kv"), default="tsv")
    p.add_argument(
        "--shard-value",
        action="append",
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
