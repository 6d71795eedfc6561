"""The three workloads: what one iteration does, how it is timed and checked.

Each workload function takes a `Run` (seed, time budget, tracing switch,
paths) and returns an `Outcome`.  The timed loop is closed with one
client: the next iteration starts when the previous one has finished,
and iterations repeat until `seconds` have passed.  When tracing, the
loop alternates an untraced and a traced iteration so the tracing
overhead is measured in the same run; only untraced iterations feed the
end-to-end figures.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import gates
from .tracing import LIBRARY_TARGETS, Tracer

# order5-subtrees: prefix depth and pairs per iteration.  Depth 8 puts the
# mean subtree at a few milliseconds, which gives the lowest sampling
# spread of the projection per second of run (depth 7: ~3x wider) while
# per-call overhead stays near 1% of it.
ORDER5_DEPTH = 8
ORDER5_PAIRS = 64

# Span ids of traced iteration i start at i * ID_BLOCK + 1; a traced child
# process numbers its spans from i * ID_BLOCK + ID_BLOCK // 2.
ID_BLOCK = 1_000_000

# The host's speed drifts by a quarter and more over minutes, and each of
# its two vCPUs drifts on its own (neighbouring load on shared cores), far
# beyond any bound a regression check can use.  So a run keeps its work on
# a fixed set of CPUs (CPUS_USED, the first of the allowed ones), times
# `reference_loop()` on each of them between iterations, and reports every
# time scaled to a host on which the loop takes REFERENCE_S seconds.  The
# raw figures go into the provenance line.
REFERENCE_S = 0.020
REFERENCE_EVERY_S = 1.0
CPUS_USED = {"order4-pipeline": 1, "order5-subtrees": 1, "order4-catalog": 2}


def reference_loop(n: int = 70_000) -> int:
    """Fixed interpreter work: integer and bit arithmetic, list indexing,
    small dict lookups and short-lived tuples.  It allocates nothing that
    outlives an iteration, so its time does not depend on the heap the
    workload has built up."""
    table = list(range(64))
    lookup = {i: i * 7 for i in range(64)}
    acc = 0
    for i in range(n):
        j = i & 63
        t = (j, acc & 255)
        acc = (acc + table[j] * 31 + lookup[j] + t[1]) & 0xFFFFFF
        if acc >> 3 & 1:
            acc ^= j
    return acc


class HostSpeed:
    """Timings of `reference_loop` on each CPU of a run, taken across it."""

    def __init__(self, cpus: list[int]) -> None:
        self.samples: dict[int, list[float]] = {cpu: [] for cpu in cpus}
        self._last = -math.inf

    def sample(self, reps: int = 3) -> None:
        allowed = os.sched_getaffinity(0)
        try:
            for cpu, times in self.samples.items():
                os.sched_setaffinity(0, {cpu})
                for _ in range(reps):
                    t0 = time.perf_counter()
                    reference_loop()
                    times.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, allowed)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    @property
    def reference_s(self) -> float:
        """Median loop time, averaged over the run's CPUs."""
        return statistics.fmean(statistics.median(t) for t in self.samples.values())

    @property
    def scale(self) -> float:
        """Factor turning this run's seconds into reference-host seconds."""
        return REFERENCE_S / self.reference_s


@dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work_dir: Path
    run_id: str
    env: dict
    host: HostSpeed


@dataclass
class Outcome:
    checks: gates.Checks
    # Untraced iterations: wall seconds and squares produced, one per iteration.
    walls: list[float] = field(default_factory=list)
    squares: list[int] = field(default_factory=list)
    # Seconds to count every square of the workload's order.
    full_count_s: list[float] = field(default_factory=list)
    # Traced iterations: one Tracer each (its root span is the iteration).
    traced: list[Tracer] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _loop(run: Run, untraced, traced) -> None:
    """Alternate iterations (all untraced unless tracing) until time is up."""
    deadline = time.perf_counter() + run.seconds
    i = 0
    while True:
        run.host.sample_if_due()
        if run.trace and i % 2:
            traced(i)
        else:
            untraced(i)
        i += 1
        if time.perf_counter() >= deadline and (not run.trace or i >= 2):
            return


def _iteration_tracer(run: Run, i: int) -> Tracer:
    return Tracer(run.run_id, first_id=i * ID_BLOCK + 1)


@contextlib.contextmanager
def _in_process_iteration(tracer: Tracer | None):
    """Root span of one in-process iteration, library names wrapped meanwhile."""
    if tracer is None:
        yield
        return
    tracer.install(LIBRARY_TARGETS)
    try:
        with tracer.span("bench.iteration"):
            yield
    finally:
        tracer.restore()


# ---------------------------------------------------------------------------
# order4-pipeline
# ---------------------------------------------------------------------------


def order4_pipeline(run: Run) -> Outcome:
    out = Outcome(gates.Checks())
    digests: set[str] = set()

    def once(i: int, tracer: Tracer | None) -> None:
        out_dir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=run.work_dir))
        args = ["pipeline", "--order", "4", "--out-dir", str(out_dir)]
        if tracer is None:
            cmd = [sys.executable, "-m", "magicgen", *args]
        else:
            spans_file = out_dir.with_suffix(".spans.json")
            cmd = [
                sys.executable,
                str(run.root / "perfbench" / "traced_cli.py"),
                "--spans", str(spans_file),
                "--run-id", run.run_id,
                "--first-id", str(i * ID_BLOCK + ID_BLOCK // 2),
                "--", *args,
            ]
        enum_s = None
        root = tracer.open("bench.iteration") if tracer else None
        t0 = time.perf_counter()
        with subprocess.Popen(
            cmd, env=run.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        ) as proc:
            for line in proc.stderr:
                # The pipeline reports this line as soon as the count is done.
                if enum_s is None and line.startswith("# stage=enumerate"):
                    enum_s = time.perf_counter() - t0
            proc.wait()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            data = json.loads(spans_file.read_text())
            for s in data["spans"]:
                if s["parent"] is None:
                    s["parent"] = root["id"]
            tracer.adopt(data["spans"])
            tracer.counts.update(data["counts"])
            spans_file.unlink()
        digest = gates.check_pipeline_run(out.checks, proc.returncode, out_dir)
        if digest:
            digests.add(digest)
        shutil.rmtree(out_dir)
        if tracer is None:
            out.walls.append(wall)
            ok = proc.returncode == 0
            out.squares.append(gates.ORDER4_SQUARES if ok else 0)
            if enum_s is not None:
                out.full_count_s.append(enum_s)
        else:
            out.traced.append(tracer)

    _loop(run, lambda i: once(i, None), lambda i: once(i, _iteration_tracer(run, i)))
    out.checks.check(len(digests) <= 1, f"{len(digests)} distinct artifact digests")
    out.checks.check(bool(out.full_count_s), "no enumerate stage line seen")
    return out


# ---------------------------------------------------------------------------
# order5-subtrees
# ---------------------------------------------------------------------------


def order5_sample(seed: int, pairs: int):
    """Endless seeded stream of batches of (prefix, complement) pairs.

    Each prefix is drawn uniformly from the ordered ORDER5_DEPTH-tuples of
    distinct values in 1..25; the union of all such prefixes is the whole
    space under any trial order, so the mean cost of a sampled subtree is
    an unbiased slice of the full count.
    """
    rng = random.Random(seed)
    values = range(1, 26)
    while True:
        batch = []
        for _ in range(pairs):
            p = tuple(rng.sample(values, ORDER5_DEPTH))
            batch.append((p, gates.complement(p)))
        yield batch


def order5_subtrees(run: Run) -> Outcome:
    from magicgen import enumerator

    out = Outcome(gates.Checks())
    cells = enumerator.trial_cells(5)[:ORDER5_DEPTH]
    out.provenance["trial_cells_5_prefix"] = list(cells)
    out.provenance["prefix_depth"] = ORDER5_DEPTH
    out.provenance["pairs_per_iteration"] = ORDER5_PAIRS
    sample = order5_sample(run.seed, ORDER5_PAIRS)
    counted: list[tuple[tuple[int, ...], int]] = []
    batches: list = []

    def once(i: int, tracer: Tracer | None) -> None:
        # A traced iteration repeats the batch of the untraced one before
        # it, so the tracing overhead compares equal work.
        if tracer is None:
            batches[:] = [next(sample)]
        batch = batches[0]
        results = []
        with _in_process_iteration(tracer):
            t0 = time.perf_counter()
            for pair in batch:
                for values in pair:
                    shard = enumerator.shard_for(5, cells, values)
                    results.append(enumerator.count_squares(5, shard))
            wall = time.perf_counter() - t0
        for j, (p, comp) in enumerate(batch):
            gates.check_pair(out.checks, p, results[2 * j], results[2 * j + 1])
        if tracer is None:
            for j, pair in enumerate(batch):
                counted.extend(zip(pair, results[2 * j : 2 * j + 2]))
            out.walls.append(wall)
            out.squares.append(sum(results))
        else:
            out.traced.append(tracer)

    _loop(run, lambda i: once(i, None), lambda i: once(i, _iteration_tracer(run, i)))
    # Re-iterate every nonempty subtree outside the timed region.
    for values, count in counted:
        if count:
            squares = [
                sq.cells
                for sq in enumerator.iter_squares(5, enumerator.shard_for(5, cells, values))
            ]
            gates.check_subtree_squares(out.checks, values, cells, squares, count)
    # Mean seconds per untraced subtree times the number of depth-k prefixes.
    per_subtree = sum(out.walls) / (2 * ORDER5_PAIRS * len(out.walls))
    out.full_count_s.append(per_subtree * math.perm(25, ORDER5_DEPTH))
    out.provenance["subtrees_timed"] = 2 * ORDER5_PAIRS * len(out.walls)
    return out


# ---------------------------------------------------------------------------
# order4-catalog
# ---------------------------------------------------------------------------


def order4_catalog(run: Run) -> Outcome:
    from magicgen import catalog, enumerator

    out = Outcome(gates.Checks())
    serial = [sq.cells for sq in enumerator.iter_squares(4)]
    shards = enumerator.single_cell_shards(4)

    def once(i: int, tracer: Tracer | None) -> None:
        path = run.work_dir / f"catalog-{i}.txt"
        with _in_process_iteration(tracer):
            t0 = time.perf_counter()
            squares = list(enumerator.enumerate_shards_parallel(4, shards, max_workers=2))
            t_enum = time.perf_counter() - t0
            text = catalog.catalog_text(squares, 4)
            catalog.write_atomic(path, text)
            read_back = catalog.read_catalog(path, 4)
            verdict = catalog.verify_catalog(path, 4)
            wall = time.perf_counter() - t0
        gates.check_catalog_round_trip(
            out.checks,
            [sq.cells for sq in squares],
            serial,
            text,
            [sq.cells for sq in read_back],
            verdict.ok,
            verdict.count,
        )
        path.unlink()
        if tracer is None:
            out.walls.append(wall)
            out.squares.append(len(squares))
            out.full_count_s.append(t_enum)
        else:
            out.traced.append(tracer)

    _loop(run, lambda i: once(i, None), lambda i: once(i, _iteration_tracer(run, i)))
    return out


WORKLOADS = {
    "order4-pipeline": order4_pipeline,
    "order5-subtrees": order5_subtrees,
    "order4-catalog": order4_catalog,
}
