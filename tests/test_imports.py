"""Every import in the package, its tests and its scripts is used: a name
imported at module or function scope must be read in that scope. A module's
``__all__`` counts as a read. Every name a module exports in ``__all__`` is
bound in it. The package declares no linter, so this is the check. The
package root and the CLI import no numpy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import apranking

PACKAGE = Path(apranking.__file__).parent
TESTS = Path(__file__).parent
SCRIPTS = TESTS.parent / "scripts"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports_in(scope):
    """(bound name, line) of each import made directly in ``scope``, not in
    a nested function or class."""
    found, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list:
    """Sorted (line, name) of the imports that their scope never reads."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        if scope is tree:
            read |= exported
        unused += [(line, name) for name, line in imports_in(scope) if name not in read]
    return sorted(unused)


def test_no_unused_imports():
    found = {
        f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
        for folder in (PACKAGE, TESTS, SCRIPTS)
        for path in sorted(folder.glob("*.py"))
    }
    assert any(name.startswith("scripts/") for name in found)
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_every_exported_name_is_bound():
    # __main__ runs the CLI on import; neither it nor __init__ has an __all__
    stale = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"apranking.{path.stem}")
        stale[path.stem] = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert {name: names for name, names in stale.items() if names} == {}


def test_the_check_sees_each_scope():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import ceil, floor\n"
        "__all__ = ['floor']\n"
        "def f():\n"
        "    import json\n"
        "    from dataclasses import replace\n"
        "    def g():\n"
        "        return replace, np\n"
        "    return ceil(1.5), g\n"
    )
    # os and json are never read; np and replace are read in a nested
    # function, floor through __all__; a keyword argument named like an
    # import does not read it
    assert unused_imports(source) == [(1, "os"), (6, "json")]
    assert unused_imports("from dataclasses import replace\nx = dict(replace=False)\n") == [(1, "replace")]


def test_package_root_and_cli_load_no_numpy():
    # the CLI pins numpy's thread pools, so importing it must not load numpy
    code = "import sys, apranking, apranking.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
