"""Import layering of the package: where imports may sit, and no cycles.

Imports sit at module level, with two narrow exceptions that keep each CLI
call from importing more than it uses:

* each ``cli.cmd_*`` subcommand imports, in its body, the kuwalls modules it
  calls (``CLI_LOCAL_IMPORTS`` lists them);
* the package's PEP 562 ``__getattr__`` loads the module defining a public
  name with ``importlib.import_module``, the only dynamic import in the
  package (no other module names ``importlib`` or ``__import__``).

Every other function-local import fails the first test.  It checks each
function node on its own (methods and nested functions included), so two
functions of one name, such as the ``__init__`` methods of a module's classes,
are each checked, and only module-level ``cli`` functions are exempt.  The
acyclicity test walks function bodies too, and counts the package's lazy
exports as imports of ``__init__``.
"""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

import kuwalls

PACKAGE = Path(kuwalls.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}

#: The functions allowed to import, with the package modules each imports.
CLI_LOCAL_IMPORTS = {
    "cmd_euler": {"chern", "kulattice"},
    "cmd_walls": {"catalog", "chern", "diagram", "walls"},
    "cmd_roots": {"delpezzo"},
    "cmd_catalog": {"catalog", "chern"},
    "cmd_check": {"checks", "chern"},
}


def _package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules an import names; '__init__' stands for the package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        module = ".".join(part for part in ("kuwalls" if node.level else "", node.module) if part)
        names = [f"{module}.{alias.name}" for alias in node.names] if node.module is None else [module]
    parts = [name.split(".") for name in names if name.split(".")[0] == "kuwalls"]
    return {p[1] if len(p) > 1 and p[1] in MODULES else "__init__" for p in parts}


def _local_imports(tree: ast.AST) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, list[ast.AST]]]:
    """Every function in ``tree`` (methods and nested functions too) with the imports in its body."""
    return [
        (func, [inner for inner in ast.walk(func) if isinstance(inner, (ast.Import, ast.ImportFrom))])
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _cli_subcommands() -> dict[str, ast.FunctionDef]:
    """The module-level ``cli`` functions allowed to import, by name."""
    return {
        node.name: node
        for node in MODULES["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name in CLI_LOCAL_IMPORTS
    }


def _imports_outside(modules: dict[str, ast.Module], allowed: set[ast.AST]) -> list[str]:
    """Each import inside a function of ``modules`` that is not one of the ``allowed`` functions."""
    return [
        f"{name}.py:{inner.lineno} in {func.name}"
        for name, tree in modules.items()
        for func, imports in _local_imports(tree)
        if func not in allowed
        for inner in imports
    ]


def test_no_imports_inside_functions():
    assert _imports_outside(MODULES, set(_cli_subcommands().values())) == []


def test_ban_sees_every_function_of_a_name():
    # two methods share a name: an import in the first is still found
    tree = ast.parse(
        "class A:\n    def __init__(self):\n        import os\n"
        "class B:\n    def __init__(self):\n        pass\n"
    )
    assert _imports_outside({"chern": tree}, set()) == ["chern.py:3 in __init__"]


def test_cli_subcommands_import_only_their_own_modules():
    subcommands = _cli_subcommands()
    imports = {func.name: nodes for func, nodes in _local_imports(MODULES["cli"]) if func in subcommands.values()}
    found = {name: {target for node in imports[name] for target in _package_modules(node)} for name in subcommands}
    assert found == CLI_LOCAL_IMPORTS
    # nothing else: the standard library is imported at module level
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1 for nodes in imports.values() for node in nodes)


def _is_dynamic_import(node: ast.AST) -> bool:
    """Whether a node names ``importlib``, ``import_module`` or ``__import__``."""
    if isinstance(node, ast.Name):
        return node.id in {"importlib", "import_module", "__import__"}
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "importlib" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "importlib"
    return False


def test_only_the_package_hook_imports_dynamically():
    init = MODULES["__init__"]
    hook = next(node for node in init.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__")
    allowed = [
        *(node for node in init.body if isinstance(node, ast.ImportFrom) and node.module == "importlib"),
        *(node for node in ast.walk(hook) if isinstance(node, ast.Name) and node.id == "import_module"),
    ]
    found = [node for tree in MODULES.values() for node in ast.walk(tree) if _is_dynamic_import(node)]
    assert allowed and all(node in allowed for node in found)


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
    graph["__init__"] |= set(kuwalls._EXPORTS)  # the modules the package's __getattr__ imports
    assert graph["cli"] >= {"__init__", "walls", "checks"}  # the graph sees the package's own imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
