"""Run `python -m magicgen ...` with spans recorded around its layers.

    python3 perfbench/traced_cli.py --spans FILE --run-id ID --first-id N -- ARGS...

Behaves like `python -m magicgen ARGS...` (same exit status), and writes
the spans and counters it recorded to FILE as JSON when the command ends.
`magicgen` must be importable (PYTHONPATH pointing at the package's
source); this script adds the checkout root so `perfbench` imports too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--first-id", type=int, required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import PIPELINE_TARGETS, Tracer

    tracer = Tracer(opts.run_id, first_id=opts.first_id)
    try:
        with tracer.span("cli.import"):
            import magicgen.cli

            tracer.install(PIPELINE_TARGETS)
        with tracer.span("cli.main"):
            status = magicgen.cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(opts.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
