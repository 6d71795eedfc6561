"""magicgen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `magicgen` is imported from `src/` of
that checkout and nowhere else.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The line before it carries the run's provenance.  Spans of a
traced run are written to `.bench_out/spans-<run id>.json`.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh-process set-up every CLI call pays: import plus the lazily built
# constraint systems and trial orders of every supported order.
SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import magicgen
t1 = time.perf_counter()
for n in (3, 4, 5):
    magicgen.build_system(n)
t2 = time.perf_counter()
for n in (3, 4, 5):
    magicgen.trial_cells(n)
t3 = time.perf_counter()
print(json.dumps({"file": magicgen.__file__, "import_s": t1 - t0,
                  "build_system_s": t2 - t1, "trial_cells_s": t3 - t2}))
"""
# Set-up processes per run: a warm-up (byte-code compilation, not timed),
# then half before and half after the workload, so the median spans the
# run's stretch of host speed.
SETUP_REPS = 10

UNITS = {"setup_s": "s", "wall_s": "s", "squares_per_s": "1/s",
         "projected_full_count_days": "days", "peak_rss_mb": "MB"}

# Per-layer metrics: "<span name>_s" is seconds per traced iteration spent
# in spans of that name; "<module>.self_s" is that module's self time.
SPAN_SECONDS = (
    "cli.import", "cli.main", "pipeline.run_pipeline", "pipeline.classify_catalog",
    "pipeline.attach_orbits", "pipeline.report", "classifier.from_catalog",
    "groups.symmetry_group", "generators.census", "generators.decompose",
    "generators.closure_partition", "catalog.format", "catalog.write",
    "catalog.read", "catalog.verify",
)
MODULES = ("cli", "pipeline", "enumerator", "classifier", "groups", "generators", "catalog")
PER_LAYER_COUNTS = (
    "enumerator.squares", "enumerator.subtrees", "generators.orbits",
    "catalog.bytes_written", "catalog.files_written",
)


class SetupError(RuntimeError):
    pass


def per_layer_names() -> list[str]:
    names = ["constraints.build_system_s", "enumerator.busy_s",
             "enumerator.nonempty_subtree_frac", "enumerator.subtree_p50_s",
             "enumerator.subtree_p90_s", "enumerator.shard_wait_s"]
    names += [f"{s}_s" for s in SPAN_SECONDS]
    names += [f"{m}.self_s" for m in MODULES]
    names += list(PER_LAYER_COUNTS)
    names += ["trace.iterations", "trace.spans", "trace.wall_s", "trace.untraced_wall_s",
              "trace.uncovered_s", "trace.uncovered_frac", "trace.overhead_frac",
              "checks.failed_frac"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "catalog.bytes_written":
        return "bytes"
    return "count"


def measure_setup(env: dict, reps: int, warm_up: bool = False) -> tuple[list[float], list[float]]:
    """Wall seconds of `reps` fresh set-up processes, and their build_system share."""
    walls, builds = [], []
    for rep in range(reps + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
            text=True, timeout=120, stdin=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(info["file"]).resolve().is_relative_to(SRC):
            raise SetupError(f"magicgen imported from {info['file']}, not {SRC}")
        if rep or not warm_up:
            walls.append(wall)
            builds.append(info["build_system_s"])
    return walls, builds


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(outcome, builds: list[float], scale: float) -> dict[str, float]:
    """Per-layer metrics; seconds are scaled to the reference host."""
    from perfbench.tracing import self_times

    m = {name: 0.0 for name in per_layer_names()}
    m["constraints.build_system_s"] = statistics.median(builds)
    m["checks.failed_frac"] = outcome.checks.failed_frac
    traced = outcome.traced
    iters = len(traced)
    m["trace.iterations"] = iters
    if not iters:
        return m
    subtree_s: list[float] = []
    nonempty = 0
    for tracer in traced:
        spans = tracer.spans
        st = self_times(spans)
        m["trace.spans"] += len(spans)
        for s in spans:
            dur = s["end"] - s["start"]
            module = s["name"].split(".")[0]
            if s["name"] == "bench.iteration":
                m["trace.wall_s"] += dur
                m["trace.uncovered_s"] += st[s["id"]]
                continue
            m[f"{module}.self_s"] += st[s["id"]]
            if module == "enumerator":
                m["enumerator.busy_s"] += dur
                subtree_s.append(dur)
            elif f"{s['name']}_s" in m:
                m[f"{s['name']}_s"] += dur
        for name in PER_LAYER_COUNTS:
            m[name] += tracer.counts.get(name, 0)
        m["enumerator.shard_wait_s"] += tracer.counts.get("enumerator.shard_wait_s", 0.0)
        nonempty += tracer.counts.get("enumerator.nonempty_subtrees", 0)
    total_subtrees = m["enumerator.subtrees"]
    m["enumerator.nonempty_subtree_frac"] = nonempty / total_subtrees if total_subtrees else 0.0
    m["enumerator.subtree_p50_s"] = _percentile(subtree_s, 0.5)
    m["enumerator.subtree_p90_s"] = _percentile(subtree_s, 0.9)
    # Everything else is per traced iteration.
    for name in m:
        if name.endswith("_s") or name in PER_LAYER_COUNTS:
            if name not in ("constraints.build_system_s", "enumerator.subtree_p50_s",
                            "enumerator.subtree_p90_s"):
                m[name] /= iters
    m["trace.spans"] /= iters
    untraced = outcome.walls
    if untraced:
        m["trace.untraced_wall_s"] = statistics.fmean(untraced)
        m["trace.overhead_frac"] = m["trace.wall_s"] / m["trace.untraced_wall_s"] - 1
    if m["trace.wall_s"]:
        m["trace.uncovered_frac"] = m["trace.uncovered_s"] / m["trace.wall_s"]
    return {k: v * scale if k.endswith("_s") else v for k, v in m.items()}


def end_to_end_metrics(outcome, setup_walls: list[float], scale: float) -> dict[str, float]:
    """End-to-end metrics; seconds are scaled to the reference host."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    total_s = sum(outcome.walls) * scale
    return {
        "setup_s": statistics.median(setup_walls) * scale,
        "wall_s": statistics.median(outcome.walls) * scale,
        "squares_per_s": sum(outcome.squares) / total_s,
        "projected_full_count_days": statistics.median(outcome.full_count_s) * scale / 86400,
        "peak_rss_mb": (self_kb + child_kb) / 1024,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "magicgen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, outcome, setup_walls, host, nproc: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        # Raw seconds, before scaling to the reference host.
        "cpus": sorted(host.samples),
        "reference_loop_s": host.reference_s,
        "scale": host.scale,
        "setup_walls_s": setup_walls,
        "iteration_walls_s": outcome.walls,
        "samples": {
            "setup_s": len(setup_walls),
            "wall_s": len(outcome.walls),
            "projected_full_count_days": len(outcome.full_count_s),
            "traced_iterations": len(outcome.traced),
            "reference_loop_s": sum(map(len, host.samples.values())),
        },
        **outcome.provenance,
    }


WORKLOAD_NAMES = ("order4-pipeline", "order5-subtrees", "order4-catalog")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one magicgen benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magicgen" / "__init__.py").is_file():
        print(f"error: no magicgen package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import magicgen

    if not Path(magicgen.__file__).resolve().is_relative_to(SRC):
        print(f"error: magicgen imported from {magicgen.__file__}", file=sys.stderr)
        return 2
    from perfbench import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out_base = ROOT / ".bench_out"
    out_base.mkdir(exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work_dir = Path(tempfile.mkdtemp(prefix=run_id + "-", dir=out_base))
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[: workloads.CPUS_USED[args.workload]]
    os.sched_setaffinity(0, cpus)
    host = workloads.HostSpeed(cpus)
    try:
        host.sample()
        setup_walls, builds = measure_setup(env, SETUP_REPS // 2, warm_up=True)
        run = workloads.Run(ROOT, args.seed, args.seconds, bool(args.trace),
                            work_dir, run_id, env, host)
        outcome = workloads.WORKLOADS[args.workload](run)
        after = measure_setup(env, SETUP_REPS - SETUP_REPS // 2)
        host.sample()
        setup_walls += after[0]
        builds += after[1]
        if args.trace:
            metrics = layer_metrics(outcome, builds, host.scale)
        else:
            metrics = end_to_end_metrics(outcome, setup_walls, host.scale)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = provenance(args, outcome, setup_walls, host, len(allowed))
    for problem in outcome.checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        spans = [s for tracer in outcome.traced for s in tracer.spans]
        with open(out_base / f"spans-{run_id}.json", "w") as fh:
            json.dump({"provenance": prov, "spans": spans}, fh)
    checks = outcome.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or _unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
