"""Names and output other code reaches into magicgen by: the package's
exports, the attributes the benchmark's tracer wraps, and the pipeline's
stderr line the benchmark times.  A refactor that drops one fails here
rather than only in a benchmark run."""

from __future__ import annotations

import importlib

import pytest

import magicgen
from magicgen.cli import main
from perfbench.tracing import LIBRARY_TARGETS, PIPELINE_TARGETS


def test_every_exported_name_exists():
    missing = [name for name in magicgen.__all__ if not hasattr(magicgen, name)]
    assert missing == []


@pytest.mark.parametrize(
    "owner_path, attr, kind",
    [
        (owner, attr, kind)
        for owner, attr, _, kind in PIPELINE_TARGETS + LIBRARY_TARGETS
    ],
)
def test_traced_name_resolves(owner_path, attr, kind):
    module_name, _, cls_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name)
    if kind == "classmethod":
        assert isinstance(owner.__dict__.get(attr), classmethod)
    else:
        assert callable(getattr(owner, attr, None))


def test_pipeline_reports_the_enumerate_stage_first(tmp_path, capsys):
    # perfbench's order4-pipeline takes full_count_s from this line.
    assert main(["pipeline", "--order", "4", "--out-dir", str(tmp_path)]) == 0
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("# stage=enumerate count=")
