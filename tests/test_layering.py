"""Import layering of the package: module-level imports only, and no cycles."""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

import kuwalls

PACKAGE = Path(kuwalls.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules an import names; '__init__' stands for the package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        module = ".".join(part for part in ("kuwalls" if node.level else "", node.module) if part)
        names = [f"{module}.{alias.name}" for alias in node.names] if node.module is None else [module]
    parts = [name.split(".") for name in names if name.split(".")[0] == "kuwalls"]
    return {p[1] if len(p) > 1 and p[1] in MODULES else "__init__" for p in parts}


def test_no_imports_inside_functions():
    local = [
        f"{name}.py:{inner.lineno} in {func.name}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_package_import_graph_is_acyclic():
    graph = {
        name: {
            target
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for target in _package_modules(node)
        }
        for name, tree in MODULES.items()
    }
    assert graph["cli"] >= {"__init__", "walls", "checks"}  # the graph sees the package's own imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
