"""Every function, class and constant the package defines has a caller inside it.

Public API should not exist only to feed the tests. A function or method,
module-level class, or module-level constant (an upper-case name) that
nothing in ``src/lislsim`` references, outside its own definition and
``__init__.py``, is dead or test-only code. References are matched by name
(a bare name or an attribute), so two definitions that share a name count
as used once either of them is.

Exempt are the library entry points that the README "Library use" example
imports (read from README.md, and each must exist), dunder methods, and
overrides of a base-class method (the base class calls them).

Every name a module other than ``__init__.py`` imports is read in it, so a
deletion leaves no import behind. ``lislsim.topology`` defines no public
name beyond a pinned set, so its reader's helpers stay private. Only
``topology`` (which builds it) and ``kernels`` (which reads it) name the
CSR layout's ``down_edges``.

The package namespace is lazy: each exported name is listed in ``__all__``
and ``dir(lislsim)``, and ``from lislsim import <name>`` gives the defining
submodule's own object.
"""

import ast
import importlib
from pathlib import Path

import pytest

import lislsim

PACKAGE = Path(lislsim.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _library_entry_points() -> set[str]:
    """Names the README "Library use" example imports from ``lislsim``."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "lislsim"
        for alias in node.names
    }


# what a script may call without any caller in the package
LIBRARY_ENTRY_POINTS = _library_entry_points()


def _module_names(path: Path):
    """(node, name) of every module-level class and upper-case constant of a module."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            found.append((node, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                (node, t.id) for t in targets
                if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
            )
    return found


def _definitions(path: Path):
    """(function node, enclosing class name or None) for every def in a module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, owner))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def _references() -> dict[str, list[tuple[Path, int]]]:
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def _overrides_a_base(path: Path, owner: str, name: str) -> bool:
    cls = getattr(importlib.import_module(f"lislsim.{path.stem}"), owner)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def _unreferenced(refs, path: Path, node, name: str) -> bool:
    own = range(node.lineno, node.end_lineno + 1)
    return not any(p != path or line not in own for p, line in refs.get(name, ()))


def test_every_function_has_a_caller_in_the_package():
    refs = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, owner in _definitions(path):
            name = node.name
            if name in LIBRARY_ENTRY_POINTS or (name.startswith("__") and name.endswith("__")):
                continue
            if owner is not None and _overrides_a_base(path, owner, name):
                continue
            if _unreferenced(refs, path, node, name):
                unused.append(f"{path.name}:{node.lineno} {owner + '.' if owner else ''}{name}")
    assert not unused, "defined but never referenced in the package: " + ", ".join(unused)


def test_every_class_and_constant_has_a_caller_in_the_package():
    refs = _references()
    unused = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node, name in _module_names(path)
        if _unreferenced(refs, path, node, name)
    ]
    assert not unused, "defined but never referenced in the package: " + ", ".join(unused)


def test_every_library_entry_point_exists():
    # a README that still imports a deleted name must not exempt it silently
    assert LIBRARY_ENTRY_POINTS, "README 'Library use' imports nothing from lislsim"
    missing = sorted(name for name in LIBRARY_ENTRY_POINTS if not hasattr(lislsim, name))
    assert not missing, "README 'Library use' imports names lislsim lacks: " + ", ".join(missing)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_import_is_used():
    # __init__.py imports to re-export; every other module imports to use
    unused = [
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert not unused, "imported but never used: " + ", ".join(unused)


# every public name lislsim.topology defines; a new one needs a reason to be public
TOPOLOGY_PUBLIC = {
    "MAX_DELAY_MS", "MAX_NODES", "MissingEdgeError", "NodeRoster", "SeriesFormatError", "Snapshot",
    "SnapshotSeries", "export_series", "import_series", "pack_keys",
}


def test_topology_gains_no_public_name():
    public = set()
    for node in ast.parse((PACKAGE / "topology.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            public.update(t.id for t in targets if isinstance(t, ast.Name))
    public = {name for name in public if not name.startswith("_")}
    assert public == TOPOLOGY_PUBLIC, public ^ TOPOLOGY_PUBLIC


# every flag of each subcommand; a new one needs a reason to exist
CLI_FLAGS = {
    "generate": {"config", "out"},
    "run": {"config", "series", "algorithm", "eta-s", "gamma", "cost-thrsh", "out"},
    "sweep": {"config", "series", "gamma", "out"},
    "table2": {"eta-s"},
}


def test_cli_flags_are_pinned():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    subcommands = {  # subparser variable -> subcommand name
        node.targets[0].id: node.value.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", None) == "add_parser"
    }
    flags = {name: set() for name in subcommands.values()}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
                and getattr(node.func.value, "id", None) in subcommands):
            flags[subcommands[node.func.value.id]].update(
                arg.value.removeprefix("--") for arg in node.args
                if isinstance(arg, ast.Constant) and arg.value.startswith("--")
            )
    assert flags == CLI_FLAGS


def test_only_topology_and_kernels_name_the_csr_layout():
    # topology builds the CSR halves and kernels.shortest_route reads them; every other
    # module hands Snapshot.csr() over whole, so a new layout changes these two alone
    namers = sorted(path.name for path in PACKAGE.glob("*.py")
                    if "down_edges" in path.read_text(encoding="utf-8"))
    assert namers == ["kernels.py", "topology.py"], namers


def test_only_topology_reads_a_clock():
    # the runtime ledger has one clock, SnapshotSeries._clock: no other module times work
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "time")
    )
    assert importers == ["topology.py"], importers


# numpy's BLAS entry points; ``linalg`` covers the whole ``np.linalg`` namespace
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_no_blas_call():
    # lislsim/__init__.py starts numpy with one OpenBLAS thread, which costs nothing only
    # while lislsim makes no BLAS call
    calls = sorted(
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Name) and node.id in BLAS_NAMES)
        or (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES)
    )
    assert not calls, ("the single-thread OpenBLAS default relies on lislsim making no "
                       "BLAS call: " + ", ".join(calls))


# every name ``lislsim`` exports, by the submodule that defines it
EXPORTS = {
    "constellation": ("ConstellationParams", "GroundStation", "ScenarioParams",
                      "generate_series"),
    "topology": ("NodeRoster", "SeriesFormatError", "Snapshot", "SnapshotSeries",
                 "export_series", "import_series"),
    "routing": ("Route", "RoutingSchedule", "alpr", "alpr_average_latency", "dijkstra",
                "disjoint_routes", "ilpr", "ilsr", "isasr", "isasr_stability_cost",
                "run_algorithm"),
    "oracle": ("dp_optimal", "optimum_schedule", "route_delay_matrix"),
    "metrics": ("MetricsReport", "average_jitter", "evaluate", "histogram",
                "outage_probability"),
    "config": ("ExperimentConfig", "default_config", "load_config"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names
])
def test_every_export_resolves_to_its_definition(module, name):
    # the package imports each name from its submodule on first use
    assert name in lislsim.__all__ and name in dir(lislsim)
    namespace = {}
    exec(f"from lislsim import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"lislsim.{module}"), name)


def test_all_lists_the_exports_once():
    exported = [name for names in EXPORTS.values() for name in names]
    assert sorted(lislsim.__all__) == sorted(exported)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lislsim.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from lislsim import no_such_name", {})
