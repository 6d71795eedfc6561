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


# What an expression is known to hold: an instance of a package class
# ("of", Ref), the class itself ("class", Ref), a function or method
# ("call", (return annotation, module)), or items of a kind ("items",
# Kind).  None is unknown.
Kind = tuple | None

# An annotation, the module it is written in, and whether it is a return
# annotation (of a function or method) rather than a value's.
Annotation = tuple[ast.AST | None, str, bool]


def _annotations(sources: dict[str, str]) -> dict[Ref | tuple[Ref, str], Annotation]:
    """The annotation of each top-level function and each class attribute.

    Keys are (module, function) and ((module, Class), attribute).  A
    field, property or `self.f = param` in __init__ has its value's
    annotation; a function or method, its return annotation.
    """
    table: dict = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                table[module, node.name] = (node.returns, module, True)
            if not isinstance(node, ast.ClassDef):
                continue
            owner = (module, node.name)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    table[owner, item.target.id] = (item.annotation, module, False)
                if not isinstance(item, ast.FunctionDef):
                    continue
                decorators = {ast.unparse(d) for d in item.decorator_list}
                called = not decorators & {"property", "cached_property"}
                table[owner, item.name] = (item.returns, module, called)
                params = {a.arg: a.annotation for a in item.args.args}
                for stmt in ast.walk(item) if item.name == "__init__" else ():
                    if (
                        isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Name)
                        and ast.unparse(stmt.targets[0]).startswith("self.")
                    ):
                        annotation = params.get(stmt.value.id)
                        table[owner, stmt.targets[0].attr] = (annotation, module, False)
    return table


def _reached(
    calling: dict[str, str], bound: dict[str, dict[str, Ref]]
) -> tuple[set[tuple[str, str]], set[tuple[tuple[str, str], str]]]:
    """The (module, name) pairs the calling modules read, and the members.

    A name read in a module is that module's own unless an import binds
    it; an imported one is followed to the module defining it, and an
    attribute read on a module (or on the package) is that module's name.
    A read inside the def or class binding the name does not count, and a
    class binds its methods.  Strings never count.

    A member counts, as ((module, Class), name), only where its owner is
    known: read on self or cls outside that class's own body, or on an
    expression whose class the annotations give (a parameter, a field or
    property, a function or method result, a constructor call, a name
    bound to one of these or looping over their items).  A read on
    anything else (a Path, an untyped parameter) names no member.
    """
    table = _annotations(calling)
    classes = {key[0] for key in table if isinstance(key[0], tuple)}

    def target(node: ast.AST, module: str) -> Ref | None:
        if isinstance(node, ast.Name):
            return _resolve(bound[module].get(node.id, (module, node.id)), bound)
        if isinstance(node, ast.Attribute):
            owner = target(node.value, module)
            if isinstance(owner, str):
                full = f"{owner}.{node.attr}"
                return full if full in bound else _resolve((owner, node.attr), bound)
        return None

    def annotated(node: ast.AST | None, module: str) -> Kind:
        """The kind an annotation names: quoted, `X | None` or X[item, ...]."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp):
            return annotated(node.left, module) or annotated(node.right, module)
        if isinstance(node, ast.Subscript):
            inner = node.slice
            first = inner.elts[0] if isinstance(inner, ast.Tuple) else inner
            item = annotated(first, module)
            return ("items", item) if item else None
        ref = target(node, module) if node is not None else None
        return ("of", ref) if ref in classes else None

    def looked_up(key) -> Kind:
        """The kind of a function or class attribute, by its table key."""
        if key not in table:
            return None
        annotation, module, called = table[key]
        return ("call", (annotation, module)) if called else annotated(annotation, module)

    def kind(node: ast.AST, module: str, env: dict[str, Kind]) -> Kind:
        """What the expression node holds, where that is known."""
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.Call):
            called = kind(node.func, module, env)
            if called and called[0] == "class":
                return "of", called[1]
            return annotated(*called[1]) if called and called[0] == "call" else None
        if isinstance(node, ast.Subscript):
            held = kind(node.value, module, env)
            return held[1] if held and held[0] == "items" else None
        if isinstance(node, ast.Attribute):
            owner = kind(node.value, module, env)
            if owner and owner[0] in ("of", "class"):
                return looked_up((owner[1], node.attr))
        ref = target(node, module)
        return ("class", ref) if ref in classes else looked_up(ref)

    def bind(node: ast.AST, held: Kind, env: dict[str, Kind]) -> None:
        """Bind a target: a lone name takes held, names unpacked from it none."""
        if isinstance(node, ast.Name):
            env[node.id] = held
        elif isinstance(node, (ast.Tuple, ast.List, ast.Starred)):
            for part in ast.iter_child_nodes(node):
                bind(part, None, env)

    names: set[tuple[str, str]] = set()
    members: set[tuple[tuple[str, str], str]] = set()

    def visit(node, module, enclosing, inside, env, owner=None):
        """Record the reads under node.  enclosing holds the names bound by
        the defs and classes around it, inside those classes as Refs, env
        the kinds of local names, and owner the class whose body holds node."""
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            env = env | {a.arg: annotated(a.annotation, module) for a in params}
            decorators = {ast.unparse(d) for d in getattr(node, "decorator_list", [])}
            if owner and params and "staticmethod" not in decorators:
                # A method of owner's: its self, or its cls for a classmethod.
                cls = "classmethod" in decorators
                env[params[0].arg] = ("class" if cls else "of", owner)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing |= {node.name}
        owner = None
        if isinstance(node, ast.ClassDef):
            enclosing |= _methods(node)
            owner = (module, node.name)
            inside |= {owner}
        read = isinstance(node, (ast.Name, ast.Attribute))
        if read and not isinstance(node.ctx, ast.Store):
            name = node.id if isinstance(node, ast.Name) else node.attr
            ref = target(node, module)
            if name not in enclosing and isinstance(ref, tuple):
                names.add(ref)
            if isinstance(node, ast.Attribute):
                held = kind(node.value, module, env)
                if held and held[0] in ("of", "class") and held[1] not in inside:
                    members.add((held[1], node.attr))
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            # Each loop binds its name before the element is read.
            env = dict(env)
            children = node.generators + [c for c in children if c not in node.generators]
        source = getattr(node, "iter", None) or getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.For, ast.comprehension)):
            # The value or iterable is read before the target is bound.
            held = None
            if source is not None:
                visit(source, module, enclosing, inside, env)
                held = kind(source, module, env)
                children.remove(source)
            if isinstance(node, (ast.For, ast.comprehension)):
                held = held[1] if held and held[0] == "items" else None
            if isinstance(node, ast.AnnAssign):
                held = annotated(node.annotation, module)
            for name in getattr(node, "targets", None) or [node.target]:
                bind(name, held, env)
        for child in children:
            visit(child, module, enclosing, inside, env, owner)

    for module, source in calling.items():
        visit(ast.parse(source), module, frozenset(), frozenset(), {})
    return names, members


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
    calling module reads it on an owner of its class or a traced
    (module:Class, attribute) pair names it.  Each is given as
    module.name.
    """
    bound = _bindings(defining | calling)
    names, members = _reached(calling, bound)
    for owner, attr in traced:
        module, _, cls = owner.partition(":")
        if cls:
            members.add(((module, cls), attr))
        else:
            names.add(_resolve((owner, attr), bound))
    unused = set()
    for module, source in defining.items():
        for name in _public_definitions(source):
            cls, _, member = name.rpartition(".")
            used = ((module, cls), member) in members if cls else (module, name) in names
            if not used:
                unused.add(f"{module}.{name}")
    return unused


def _package() -> tuple[dict[str, str], dict[str, str], set[tuple[str, str]]]:
    """The package's modules, the modules calling into it, and the tracer's
    (owner, attribute) targets."""
    defining = _sources(PACKAGE, "magicgen")
    calling = {m: source for m, source in defining.items() if m != "magicgen"}
    calling |= _sources(ROOT / "perfbench", "perfbench", skip="test_perfbench.py")
    traced = {(owner, attr) for owner, attr, _, _ in PIPELINE_TARGETS + LIBRARY_TARGETS}
    return defining, calling, traced


def test_every_export_has_a_caller_outside_the_tests():
    defining, calling, traced = _package()
    public = set().union(*map(_public_definitions, defining.values()))
    assert {"write_catalog", "SUPPORTED_ORDERS", "DudeneyCensus.from_catalog"} <= public
    assert set(magicgen.__all__) <= public
    assert _unused(defining, calling, traced) == set()


def test_a_member_counts_only_on_an_owner_of_its_class():
    # cli.py and perfbench call Path.read_text(), which names no member of
    # the package, so a read_text method nothing calls is still flagged.
    defining, calling, traced = _package()
    field = "    generator: Square\n"
    assert defining["magicgen.groups"].count(field) == 1
    method = "\n    def read_text(self) -> str:\n        return ''\n"
    stray = {"magicgen.groups": defining["magicgen.groups"].replace(field, field + method)}
    flagged = _unused(defining | stray, calling | stray, traced)
    assert flagged == {"magicgen.groups.Orbit.read_text"}


def _unread_imports(sources: dict[str, str]) -> set[str]:
    """module.name for each name a module imports and never reads."""
    unread = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.add(f"{module}.{name}")
    return unread


def test_every_import_is_read_or_traced():
    # The package's re-exports in __init__.py are its interface, not leftovers.
    defining, _, traced = _package()
    modules = {m: source for m, source in defining.items() if m != "magicgen"}
    targets = {f"{owner}.{attr}" for owner, attr in traced}
    assert _unread_imports(modules) - targets == set()
    assert _unread_imports(modules) == {"magicgen.pipeline.symmetry_group"}
    # A leftover import is flagged; one read only in an annotation is not.
    head = "from __future__ import annotations\n"
    source = modules["magicgen.squares"]
    assert source.count(head) == 1
    leftover = source.replace(head, head + "from typing import Callable, Sequence\n")
    leftover += "\n\ndef first(items: Sequence[int]) -> int:\n    return items[0]\n"
    assert _unread_imports({"magicgen.squares": leftover}) == {"magicgen.squares.Callable"}


BOX = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Box:
    size: int

    def __len__(self):
        return self.size

    def grow(self) -> "Box":
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


OWNERS = """
from box import Box


def total_area(boxes: list[Box], path):
    path.shrink()
    return sum(box.area for box in boxes)
"""


def test_a_member_counts_where_annotations_give_its_class():
    # area is read on the items of an annotated list; shrink only on an
    # untyped parameter, which names no member; grow and traced nowhere.
    calling = {"box": BOX, "owners": OWNERS}
    unused = {"box.Box.grow", "box.Box.shrink", "box.Box.traced"}
    assert _unused({"box": BOX}, calling, set()) == unused


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
