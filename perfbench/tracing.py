"""Spans recorded around calls into magicgen, kept in memory until the run ends.

A span has a name, a start and end on the system-wide monotonic clock
(`time.perf_counter`, so spans written by a child process line up with
the parent's), the id of the span that caused it, and the run id shared
by every span of one benchmark run.  Spans are only recorded while a
`Tracer` is installed, which happens only for traced iterations, so the
untraced iterations behind the end-to-end figures carry no tracing cost.

Wrapping works on the public names that magicgen's modules call each
other through: `install` swaps a module or class attribute for a
recording wrapper and `restore` puts the original back.  A generator's
span opens when it is created and closes when it is exhausted (or
closed); it is the active parent only while the generator runs, so work
the consumer does between items is not charged to it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Iterable

# (owner path, attribute, span name, kind).  Owner paths name a module or
# a class inside one; kind is "func", "gen" or "classmethod".
PIPELINE_TARGETS = (
    ("magicgen.cli", "run_pipeline", "pipeline.run_pipeline", "func"),
    ("magicgen.pipeline", "iter_squares", "enumerator.iter_squares", "gen"),
    ("magicgen.pipeline", "catalog_text", "catalog.format", "func"),
    ("magicgen.pipeline", "classification_text", "catalog.format", "func"),
    ("magicgen.pipeline", "group_text", "catalog.format", "func"),
    ("magicgen.pipeline", "write_atomic", "catalog.write", "func"),
    ("magicgen.classifier:DudeneyCensus", "from_catalog", "classifier.from_catalog", "classmethod"),
    ("magicgen.pipeline", "generator_census", "generators.census", "func"),
    ("magicgen.pipeline", "symmetry_group", "groups.symmetry_group", "func"),
    ("magicgen.generators", "symmetry_group", "groups.symmetry_group", "func"),
    ("magicgen.generators", "decompose", "generators.decompose", "func"),
    ("magicgen.generators", "symmetric_closure_partition", "generators.closure_partition", "func"),
    ("magicgen.pipeline", "classify_catalog", "pipeline.classify_catalog", "func"),
    ("magicgen.pipeline", "attach_orbits", "pipeline.attach_orbits", "func"),
    ("magicgen.pipeline", "generators_text", "pipeline.report", "func"),
    ("magicgen.pipeline", "report_data", "pipeline.report", "func"),
    ("magicgen.pipeline", "emit_report", "pipeline.report", "func"),
)

# Names the in-process workloads call through (they look each one up on
# its module at call time, so a swapped attribute is seen).
LIBRARY_TARGETS = (
    ("magicgen.enumerator", "count_squares", "enumerator.count_squares", "func"),
    ("magicgen.enumerator", "iter_squares", "enumerator.iter_squares", "gen"),
    ("magicgen.enumerator", "enumerate_shards_parallel", "enumerator.shards_parallel", "gen"),
    ("magicgen.catalog", "catalog_text", "catalog.format", "func"),
    ("magicgen.catalog", "write_atomic", "catalog.write", "func"),
    ("magicgen.catalog", "read_catalog", "catalog.read", "func"),
    ("magicgen.catalog", "verify_catalog", "catalog.verify", "func"),
)


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self, run_id: str, first_id: int = 1) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = first_id
        self._originals: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> dict:
        """Start a span whose parent is the innermost active span."""
        span = {
            "run": self.run_id,
            "id": self._next_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._next_id += 1
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        if span["end"] is None:
            span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """An active span around a block: spans opened inside are its children."""
        span = self.open(name)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            self.close(span)

    def adopt(self, spans: Iterable[dict]) -> None:
        """Take spans recorded elsewhere (a child process) into this run."""
        for s in spans:
            self.spans.append(dict(s, run=self.run_id))
            self._next_id = max(self._next_id, s["id"] + 1)

    # -- wrapping ----------------------------------------------------------

    def install(self, targets: Iterable[tuple[str, str, str, str]]) -> None:
        for owner_path, attr, name, kind in targets:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if kind == "classmethod" else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            if kind == "func":
                wrapped = self._wrap_func(original, name)
            elif kind == "gen":
                wrapped = self._wrap_gen(original, name)
            else:
                wrapped = classmethod(self._wrap_func(original.__func__, name))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap_func(self, fn: Callable, name: str) -> Callable:
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_gen(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            return self._drive(fn(*args, **kwargs), span, name, args)

        return wrapper

    def _drive(self, inner, span: dict, name: str, args: tuple):
        items = 0
        first_cell = None
        heads = 0
        try:
            while True:
                t0 = time.perf_counter()
                self._stack.append(span["id"])
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                items += 1
                if name == "enumerator.shards_parallel":
                    # Single-cell shards pin the first trial cell, so a new
                    # value there marks the wait for the next buffered shard.
                    head = item.cells[_first_trial_cell(item.order)]
                    if head != first_cell:
                        self.counts["enumerator.shard_wait_s"] += time.perf_counter() - t0
                        first_cell = head
                        heads += 1
                yield item
        finally:
            inner.close()
            self.close(span)
            self.counts["enumerator.squares"] += items
            if name == "enumerator.shards_parallel":
                self.counts["enumerator.subtrees"] += len(args[1])
                self.counts["enumerator.nonempty_subtrees"] += heads
            else:
                self.counts["enumerator.subtrees"] += 1
                self.counts["enumerator.nonempty_subtrees"] += bool(items)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _resolve(path: str):
    module_name, _, cls = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


@functools.lru_cache(maxsize=None)
def _first_trial_cell(n: int) -> int:
    from magicgen import enumerator

    return enumerator.trial_cells(n)[0]


def _count_subtree(counts, args, kwargs, result) -> None:
    counts["enumerator.squares"] += result
    counts["enumerator.subtrees"] += 1
    counts["enumerator.nonempty_subtrees"] += bool(result)


def _count_orbits(counts, args, kwargs, result) -> None:
    counts["generators.orbits"] += len(result.orbits)


def _count_write(counts, args, kwargs, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["catalog.bytes_written"] += len(text.encode())
    counts["catalog.files_written"] += 1


_COUNTERS = {
    "enumerator.count_squares": _count_subtree,
    "generators.decompose": _count_orbits,
    "generators.closure_partition": _count_orbits,
    "catalog.write": _count_write,
}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = _union_length(
            (max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], ())
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total
