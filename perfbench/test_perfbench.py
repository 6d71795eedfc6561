"""Tests of the benchmark itself: seeded inputs, output gates, span arithmetic.

Run with the package on the path:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from magicgen import catalog, enumerator, pipeline
from perfbench import gates, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


def _good_report() -> dict:
    return {
        "square_count": gates.ORDER4_SQUARES,
        "total_generators": gates.ORDER4_GENERATORS,
        "trigg_populations": dict(gates.TRIGG_POPULATIONS),
        "classes": {
            letter: {"closure_orbit_histogram": {str(k): v for k, v in hist.items()}}
            for letter, hist in gates.CLOSURE_HISTOGRAMS.items()
        },
        "discrepancies": [],
    }


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_order5_sample_is_deterministic_per_seed():
    first = list(itertools.islice(workloads.order5_sample(7, 16), 3))
    again = list(itertools.islice(workloads.order5_sample(7, 16), 3))
    other = list(itertools.islice(workloads.order5_sample(8, 16), 3))
    assert first == again
    assert first != other


def test_order5_sample_pairs_are_complementary_prefixes():
    batch = next(workloads.order5_sample(3, 50))
    assert len(batch) == 50
    for prefix, comp in batch:
        assert len(prefix) == workloads.ORDER5_DEPTH
        assert len(set(prefix)) == len(prefix)
        assert all(1 <= v <= 25 for v in prefix)
        assert comp == tuple(26 - v for v in prefix)


# ---------------------------------------------------------------------------
# Gates: pass on true output, fire on doctored output
# ---------------------------------------------------------------------------


def test_report_gate_passes_the_published_census():
    checks = gates.Checks()
    gates.check_report(checks, _good_report())
    assert checks.attempted > 0 and checks.failed == 0


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r.update(square_count=gates.ORDER4_SQUARES - 1),
        lambda r: r.update(total_generators=94),
        lambda r: r["classes"]["B"]["closure_orbit_histogram"].update({"32": 19}),
        lambda r: r.update(discrepancies=[{"subject": "trigg_A"}]),
    ],
    ids=["dropped-square", "generator-count", "histogram", "discrepancy"],
)
def test_report_gate_fires_on_doctored_report(doctor):
    report = _good_report()
    doctor(report)
    checks = gates.Checks()
    gates.check_report(checks, report)
    assert checks.failed_frac > 0


def test_pipeline_artifacts_match_the_recorded_digest(tmp_path):
    pipeline.run_pipeline(4, tmp_path, log=lambda msg: None)
    checks = gates.Checks()
    digest = gates.check_pipeline_run(checks, 0, tmp_path)
    assert digest == gates.PIPELINE_DIGEST
    assert checks.failed == 0, checks.problems

    # One changed byte in any artifact must fail the run.
    target = tmp_path / "summary.txt"
    data = bytearray(target.read_bytes())
    data[0] ^= 1
    target.write_bytes(bytes(data))
    checks = gates.Checks()
    gates.check_pipeline_run(checks, 0, tmp_path)
    assert checks.failed_frac > 0


def test_pipeline_gate_fires_on_failed_exit(tmp_path):
    checks = gates.Checks()
    gates.check_pipeline_run(checks, 1, tmp_path)
    assert checks.failed == checks.attempted == 2


@pytest.fixture(scope="module")
def order4_round_trip(tmp_path_factory):
    squares = list(enumerator.enumerate_shards_parallel(4, enumerator.single_cell_shards(4), 2))
    serial = [sq.cells for sq in enumerator.iter_squares(4)]
    path = tmp_path_factory.mktemp("catalog") / "catalog.txt"
    text = catalog.catalog_text(squares, 4)
    catalog.write_atomic(path, text)
    verdict = catalog.verify_catalog(path, 4)
    read_back = [sq.cells for sq in catalog.read_catalog(path, 4)]
    return [sq.cells for sq in squares], serial, text, read_back, verdict


def test_catalog_gate_passes_the_true_round_trip(order4_round_trip):
    sharded, serial, text, read_back, verdict = order4_round_trip
    checks = gates.Checks()
    gates.check_catalog_round_trip(
        checks, sharded, serial, text, read_back, verdict.ok, verdict.count
    )
    assert checks.failed == 0, checks.problems


def test_catalog_gate_fires_on_a_dropped_square(order4_round_trip):
    sharded, serial, text, read_back, verdict = order4_round_trip
    dropped = sharded[:100] + sharded[101:]
    checks = gates.Checks()
    gates.check_catalog_round_trip(
        checks, dropped, serial, catalog.catalog_text([], 4), dropped, True, len(dropped)
    )
    assert checks.failed_frac > 0


def test_catalog_gate_fires_on_reordered_shards(order4_round_trip):
    sharded, serial, text, read_back, verdict = order4_round_trip
    swapped = sharded[1:] + sharded[:1]
    checks = gates.Checks()
    gates.check_catalog_round_trip(
        checks, swapped, serial, text, swapped, verdict.ok, verdict.count
    )
    assert checks.failed_frac > 0


def _first_order5_subtree():
    cells = enumerator.trial_cells(5)[: workloads.ORDER5_DEPTH]
    square = next(enumerator.iter_squares(5))
    prefix = tuple(square.cells[c] for c in cells)
    return cells, prefix


def test_order5_gates_pass_a_true_subtree_pair():
    cells, prefix = _first_order5_subtree()
    comp = gates.complement(prefix)
    count = enumerator.count_squares(5, enumerator.shard_for(5, cells, prefix))
    comp_count = enumerator.count_squares(5, enumerator.shard_for(5, cells, comp))
    squares = [sq.cells for sq in enumerator.iter_squares(5, enumerator.shard_for(5, cells, prefix))]
    checks = gates.Checks()
    gates.check_pair(checks, prefix, count, comp_count)
    gates.check_subtree_squares(checks, prefix, cells, squares, count)
    assert count >= 1
    assert checks.failed == 0, checks.problems


def test_order5_gates_fire_on_doctored_counts_and_squares():
    cells, prefix = _first_order5_subtree()
    squares = [sq.cells for sq in enumerator.iter_squares(5, enumerator.shard_for(5, cells, prefix))]
    count = len(squares)

    checks = gates.Checks()
    gates.check_pair(checks, prefix, count, count + 1)
    assert checks.failed_frac > 0

    checks = gates.Checks()
    gates.check_subtree_squares(checks, prefix, cells, squares, count + 1)
    assert checks.failed_frac > 0

    broken = list(squares[0])
    broken[-1], broken[-2] = broken[-2], broken[-1]
    checks = gates.Checks()
    gates.check_subtree_squares(checks, prefix, cells, [tuple(broken)] + squares[1:], count)
    assert checks.failed_frac > 0

    checks = gates.Checks()
    gates.check_subtree_squares(checks, gates.complement(prefix), cells, squares, count)
    assert checks.failed_frac > 0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "b", "start": 1.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "c", "start": 2.0, "end": 5.0, "parent": 1},
        {"id": 4, "name": "d", "start": 7.0, "end": 8.0, "parent": 1},
        {"id": 5, "name": "e", "start": 7.5, "end": 7.6, "parent": 4},
    ]
    st = tracing.self_times(spans)
    assert st[1] == pytest.approx(5.0)
    assert st[4] == pytest.approx(0.9)
    assert st[2] == pytest.approx(2.0)


def test_wrapped_library_calls_record_spans_and_restore():
    tracer = tracing.Tracer("t")
    original = enumerator.count_squares
    tracer.install(tracing.LIBRARY_TARGETS)
    try:
        with tracer.span("bench.iteration"):
            assert enumerator.count_squares(3) == 8
            assert sum(1 for _ in enumerator.iter_squares(3)) == 8
    finally:
        tracer.restore()
    assert enumerator.count_squares is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["bench.iteration", "enumerator.count_squares", "enumerator.iter_squares"]
    root = tracer.spans[0]["id"]
    assert all(s["parent"] == root for s in tracer.spans[1:])
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    assert tracer.counts["enumerator.squares"] == 16
    assert tracer.counts["enumerator.subtrees"] == 2


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def test_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order4-catalog",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert set(run.per_layer_names()) == set(result["metrics"])


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order4-catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_to_the_reference_host():
    ref = workloads.REFERENCE_S
    host = workloads.HostSpeed([0, 1])
    host.samples = {0: [2 * ref, 2 * ref, 9 * ref], 1: [6 * ref]}
    assert host.scale == pytest.approx(0.25)

    cpu = min(os.sched_getaffinity(0))
    host = workloads.HostSpeed([cpu])
    before = os.sched_getaffinity(0)
    host.sample(reps=2)
    assert os.sched_getaffinity(0) == before
    assert len(host.samples[cpu]) == 2 and host.scale > 0
