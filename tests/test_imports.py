"""Module boundaries of the package, read from its source with `ast`.

No module imports another module's underscore name: what one module needs
of another is public there.  `bounds`, `cli` and `harness` import no numpy
when they load: `bounds`, `ci` and `--help` never load it, and `harness`
reaches grid cells only through the `quadforms` builders.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quadbetti"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
NO_MODULE_LEVEL_NUMPY = ("harness", "cli", "bounds")


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


def test_every_module_is_read():
    assert {"bounds", "cli", "harness", "homology", "quadforms"} <= set(MODULES)


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
    numpy = [
        f"line {node.lineno}"
        for node in _load_time_imports(_tree(module))
        if any(name.split(".")[0] == "numpy" for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]))
    ]
    assert not numpy, f"{module} imports numpy at module level: {numpy}"
