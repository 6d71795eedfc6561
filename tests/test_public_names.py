"""Names and output other code reaches into magicgen by: the package's
exports, the attributes the benchmark's tracer wraps, and the pipeline's
stderr line the benchmark times.  A refactor that drops one fails here
rather than only in a benchmark run.  Every export, every public name a
module of the package defines and every public method and property of its
classes must also have a caller in the package or the benchmark, not only
in tests."""

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


def test_every_exported_name_exists():
    missing = [name for name in magicgen.__all__ if not hasattr(magicgen, name)]
    assert missing == []


def _methods(node: ast.ClassDef) -> set[str]:
    """Names of the methods and properties a class body defines (not its fields)."""
    return {item.name for item in node.body if isinstance(item, ast.FunctionDef)}


def _uses(source: str) -> tuple[set[str], set[str]]:
    """Names and attributes a module reads outside the def or class binding each.

    A name is used where it is read or deleted (assigning one binds it) as
    a name or an attribute, named by a string constant that is an
    identifier, or imported under an alias.  The attributes are those read
    or deleted.  A class binds its methods, so one read only through self
    inside its own class is not among them.
    """
    names: set[str] = set()
    attributes: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing |= {node.name}
        if isinstance(node, ast.ClassDef):
            enclosing |= _methods(node)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(getattr(node, "ctx", None), ast.Store):
            name = None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else None
        if isinstance(node, ast.alias) and node.asname:
            name = node.name
        if name and name not in enclosing:
            names.add(name)
            if isinstance(node, ast.Attribute):
                attributes.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return names, attributes


def _public_definitions(source: str) -> set[str]:
    """Public names a module binds at top level (defs, classes, assignments),
    and the public methods and properties of its classes as Class.name."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{method}" for method in _methods(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.rpartition(".")[2].startswith("_")}


def _unused(defining: list[str], calling: list[str], traced: set[str]) -> set[str]:
    """Public names and members of the defining sources that nothing uses.

    A module-level name counts as used when a calling source uses it; a
    member, when a calling source reads it as an attribute or it is one of
    the traced attribute names.
    """
    names: set[str] = set()
    members = set(traced)
    for source in calling:
        used, attributes = _uses(source)
        names |= used
        members |= attributes
    public = set().union(*map(_public_definitions, defining))
    return {
        name
        for name in public
        if (name.partition(".")[2] not in members if "." in name else name not in names)
    }


def test_every_export_has_a_caller_outside_the_tests():
    defining = [p.read_text() for p in PACKAGE.glob("*.py")]
    calling = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    calling += [
        p.read_text()
        for p in (ROOT / "perfbench").glob("*.py")
        if p.name != "test_perfbench.py"
    ]
    public = set().union(*map(_public_definitions, defining))
    assert {"write_catalog", "SUPPORTED_ORDERS", "DudeneyCensus.from_catalog"} <= public
    assert set(magicgen.__all__) <= public
    traced = {attr for _, attr, _, _ in PIPELINE_TARGETS + LIBRARY_TARGETS}
    assert _unused(defining, calling, traced) == set()


BOX = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Box:
    size: int

    def __len__(self):
        return self.size

    def grow(self):
        return self.shrink()

    def shrink(self):
        return Box(self.size - 1)

    @property
    def area(self):
        return self.size * self.size

    @classmethod
    def traced(cls):
        return cls(1)
"""

BOX_CALLER = """
def grown_area(size):
    return Box(size).grow().area
"""


def test_member_scan_flags_a_method_read_only_inside_its_class():
    # The caller reads grow and the property area as attributes and the
    # tracer names traced; shrink is read only through self.
    assert _unused([BOX], [BOX, BOX_CALLER], {"traced"}) == {"Box.shrink"}
    # Without them nothing is read from outside the class.  The dunder
    # __len__ and the dataclass field size are never checked.
    everything = {"Box", "Box.grow", "Box.shrink", "Box.area", "Box.traced"}
    assert _public_definitions(BOX) == everything
    assert _unused([BOX], [BOX], set()) == everything


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
