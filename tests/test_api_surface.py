"""Every function the package defines has a caller inside the package.

Public API should not exist only to feed the tests. A function or method
that nothing in ``src/lislsim`` references, outside its own definition and
``__init__.py``, is dead or test-only code. References are matched by name
(a bare name or an attribute), so two definitions that share a name count
as used once either of them is.

Exempt are the library entry points that README "Library use" names, dunder
methods, and overrides of a base-class method (the base class calls them).
"""

import ast
import importlib
from pathlib import Path

import lislsim

PACKAGE = Path(lislsim.__file__).parent

# README "Library use": what a script may call without any caller in the package
LIBRARY_ENTRY_POINTS = {
    "default_config", "generate_series", "ilsr", "isasr",
    "evaluate", "dp_optimal", "brute_force_optimal", "enumerate_routes",
}


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
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in refs.get(name, ())):
                unused.append(f"{path.name}:{node.lineno} {owner + '.' if owner else ''}{name}")
    assert not unused, "defined but never referenced in the package: " + ", ".join(unused)
