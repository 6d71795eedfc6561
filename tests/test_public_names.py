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


def _sources(folder: Path, package: str, skip: str = "") -> dict[str, str]:
    """Module name -> source for each module of a package folder."""
    return {
        package if p.stem == "__init__" else f"{package}.{p.stem}": p.read_text()
        for p in sorted(folder.glob("*.py"))
        if p.name != skip
    }


# What a name is bound to: a module's dotted name, or a (module, name) pair.
Ref = str | tuple[str, str]


def _bindings(sources: dict[str, str]) -> dict[str, dict[str, Ref]]:
    """Per module, what each name it imports is bound to.

    `import a.b` binds a to module a, `import a.b as c` binds c to module
    a.b, and `from a import b` binds b to module a.b if that is one of the
    sources, else to the pair (a, b).  Relative imports are resolved
    against the importing module's package.
    """
    bound: dict[str, dict[str, Ref]] = {}
    for module, source in sources.items():
        is_package = any(m.startswith(module + ".") for m in sources)
        package = module if is_package else module.rpartition(".")[0]
        names = bound[module] = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.partition(".")[0]
                    names[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parent = package.rsplit(".", node.level - 1)[0]
                    base = f"{parent}.{base}" if base else parent
                for alias in node.names:
                    full = f"{base}.{alias.name}"
                    names[alias.asname or alias.name] = (
                        full if full in sources else (base, alias.name)
                    )
    return bound


def _resolve(ref: Ref, bound: dict[str, dict[str, Ref]]) -> Ref:
    """Follow a (module, name) pair through imports to the module defining it."""
    while isinstance(ref, tuple) and bound.get(ref[0], {}).get(ref[1], ref) != ref:
        ref = bound[ref[0]][ref[1]]
    return ref


def _reached(
    calling: dict[str, str], bound: dict[str, dict[str, Ref]]
) -> tuple[set[tuple[str, str]], set[str]]:
    """The (module, name) pairs the calling modules read, and the attributes.

    A name read in a module is that module's own unless an import binds
    it; an imported one is followed to the module defining it, and an
    attribute read on a module (or on the package) is that module's name.
    A read inside the def or class binding the name does not count, and a
    class binds its methods, so one read only through self inside its own
    class is not among the attributes.  Strings never count.
    """

    def target(node: ast.AST, module: str) -> Ref | None:
        if isinstance(node, ast.Name):
            return _resolve(bound[module].get(node.id, (module, node.id)), bound)
        if isinstance(node, ast.Attribute):
            owner = target(node.value, module)
            if isinstance(owner, str):
                full = f"{owner}.{node.attr}"
                return full if full in bound else _resolve((owner, node.attr), bound)
        return None

    names: set[tuple[str, str]] = set()
    attributes: set[str] = set()

    def visit(node: ast.AST, module: str, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing |= {node.name}
        if isinstance(node, ast.ClassDef):
            enclosing |= _methods(node)
        read = isinstance(node, (ast.Name, ast.Attribute))
        if read and not isinstance(node.ctx, ast.Store):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                ref = target(node, module)
                if isinstance(ref, tuple):
                    names.add(ref)
                if isinstance(node, ast.Attribute):
                    attributes.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, module, enclosing)

    for module, source in calling.items():
        visit(ast.parse(source), module, frozenset())
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


def _unused(
    defining: dict[str, str], calling: dict[str, str], traced: set[tuple[str, str]]
) -> set[str]:
    """Public names and members of the defining modules that nothing uses.

    A module-level name counts as used where a calling module reaches it
    or a traced (module, attribute) pair names it; a member, when a
    calling module reads it as an attribute or a traced
    (module:Class, attribute) pair names it.  Each is given as
    module.name.
    """
    bound = _bindings(defining | calling)
    names, members = _reached(calling, bound)
    for owner, attr in traced:
        if ":" in owner:
            members.add(attr)
        else:
            names.add(_resolve((owner, attr), bound))
    return {
        f"{module}.{name}"
        for module, source in defining.items()
        for name in _public_definitions(source)
        if (
            name.partition(".")[2] not in members
            if "." in name
            else (module, name) not in names
        )
    }


def test_every_export_has_a_caller_outside_the_tests():
    defining = _sources(PACKAGE, "magicgen")
    calling = {m: source for m, source in defining.items() if m != "magicgen"}
    calling |= _sources(ROOT / "perfbench", "perfbench", skip="test_perfbench.py")
    public = set().union(*map(_public_definitions, defining.values()))
    assert {"write_catalog", "SUPPORTED_ORDERS", "DudeneyCensus.from_catalog"} <= public
    assert set(magicgen.__all__) <= public
    traced = {(owner, attr) for owner, attr, _, _ in PIPELINE_TARGETS + LIBRARY_TARGETS}
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
from box import Box


def grown_area(size):
    return Box(size).grow().area
"""


def test_member_scan_flags_a_method_read_only_inside_its_class():
    # The caller reads grow and the property area as attributes and the
    # tracer names traced; shrink is read only through self.
    calling = {"box": BOX, "caller": BOX_CALLER}
    assert _unused({"box": BOX}, calling, {("box:Box", "traced")}) == {"box.Box.shrink"}
    # Without them nothing is read from outside the class.  The dunder
    # __len__ and the dataclass field size are never checked.
    everything = {"Box", "Box.grow", "Box.shrink", "Box.area", "Box.traced"}
    assert _public_definitions(BOX) == everything
    assert _unused({"box": BOX}, {"box": BOX}, set()) == {f"box.{n}" for n in everything}


LIMITS = """
LIMIT = 3


def helper():
    return 1
"""

OTHER = """
LIMIT = 4


def report():
    return {"helper": LIMIT}
"""

CALLERS = {
    # An imported name counts once it is read, and an attribute read on a
    # module counts too; LIMIT is imported but never read.
    "pkg.absolute": "from pkg.limits import helper\n\nhelper()\n",
    "pkg.relative": "from . import other\nfrom .limits import LIMIT\n\nother.report()\n",
}


def test_a_name_counts_only_where_it_is_reached():
    modules = {"pkg.limits": LIMITS, "pkg.other": OTHER}
    # other reads its own LIMIT and names helper in a string: neither
    # reaches limits' names.
    unreached = {"pkg.limits.LIMIT", "pkg.limits.helper", "pkg.other.report"}
    assert _unused(modules, modules, set()) == unreached
    assert _unused(modules, modules | CALLERS, set()) == {"pkg.limits.LIMIT"}
    traced = {("pkg.other", "report")}
    assert _unused(modules, modules, traced) == unreached - {"pkg.other.report"}
    # An attribute read on the package reaches the module it re-exports from.
    package = {"pkg": "from .limits import helper\n", "pkg.main": "import pkg\n\npkg.helper()\n"}
    assert _unused({"pkg.limits": LIMITS}, package, set()) == {"pkg.limits.LIMIT"}


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
