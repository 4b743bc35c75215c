"""Module boundaries of the package, read from its source with `ast`.

No module imports another module's underscore name: what one module needs
of another is public there.  `bounds`, `cli` and `harness` import no numpy
when they load: `bounds`, `ci` and `--help` never load it, and `harness`
reaches grid cells only through the `quadforms` builders.  `exact` and
`bounds` are leaves that import nothing of the package, and `exact`
imports numpy nowhere, so exact work in a fresh process loads no numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quadbetti"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
NO_MODULE_LEVEL_NUMPY = ("harness", "cli", "bounds")
LEAVES = ("exact", "bounds")


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _load_time_imports(node):
    """The import statements that run when the module loads: none inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _load_time_imports(child)


def _imported_modules(nodes):
    """The absolute names, or the dots of a relative one, that import statements name."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_every_module_is_read():
    assert {"bounds", "cli", "exact", "harness", "homology", "quadforms"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_is_imported_from_another_module(module):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "quadbetti")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{module} imports private names: {private}"


@pytest.mark.parametrize("module", NO_MODULE_LEVEL_NUMPY)
def test_no_numpy_import_at_module_level(module):
    numpy = [name for name in _imported_modules(_load_time_imports(_tree(module))) if name.split(".")[0] == "numpy"]
    assert not numpy, f"{module} imports numpy at module level: {numpy}"


@pytest.mark.parametrize("module", LEAVES)
def test_leaf_imports_nothing_of_the_package(module):
    package = [name for name in _imported_modules(ast.walk(_tree(module)))
               if name.startswith(".") or name.split(".")[0] == "quadbetti"]
    assert not package, f"{module} imports {package}"


def test_exact_imports_no_numpy_anywhere():
    numpy = [name for name in _imported_modules(ast.walk(_tree("exact"))) if name.split(".")[0] == "numpy"]
    assert not numpy, f"exact imports {numpy}"


def test_exact_loads_no_numpy_in_a_fresh_process():
    done = subprocess.run([sys.executable, "-c", "import sys, quadbetti.exact; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
