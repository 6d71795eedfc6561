"""Names and output other code reaches into magicgen by: the package's
exports, the attributes the benchmark's tracer wraps, and the pipeline's
stderr line the benchmark times.  A refactor that drops one fails here
rather than only in a benchmark run.  Every export, and every public name a
module of the package defines, must also have a caller in the package or
the benchmark, not only in tests."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import magicgen
from magicgen.cli import main
from perfbench.tracing import LIBRARY_TARGETS, PIPELINE_TARGETS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magicgen"

# Public names with no caller outside the tests, kept on purpose.  FastClassifier
# is the paper's supervised-classifier analogue; whether it stays in the
# package is an open question in ROADMAP.md.
TEST_ONLY_EXPORTS = {"FastClassifier"}


def test_every_exported_name_exists():
    missing = [name for name in magicgen.__all__ if not hasattr(magicgen, name)]
    assert missing == []


def _uses(path: Path) -> set[str]:
    """Names a module uses outside the def or class that binds each one.

    A use is a name or attribute that is read or deleted (assigning one
    binds it), a string constant that is an identifier (the benchmark's
    tracer names its targets so), or an import alias.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing |= {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(getattr(node, "ctx", None), ast.Store):
            name = None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else None
        if isinstance(node, ast.alias) and node.asname:
            name = node.name
        if name and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _public_definitions(path: Path) -> set[str]:
    """Public names a module binds at top level: defs, classes, assignments."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_export_has_a_caller_outside_the_tests():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py"]
    used = set().union(*map(_uses, paths))
    public = set(magicgen.__all__).union(*map(_public_definitions, PACKAGE.glob("*.py")))
    assert "write_catalog" in public and "SUPPORTED_ORDERS" in public
    assert public - used == TEST_ONLY_EXPORTS


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
