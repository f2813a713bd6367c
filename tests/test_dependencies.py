"""The package imports numpy and the standard library only, as pyproject declares."""

import ast
import pathlib
import sys

import ofdmradar

PACKAGE = pathlib.Path(ofdmradar.__file__).parent


def top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_scipy_or_another_undeclared_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    undeclared = sorted({f"{path.name}: {name}" for path in modules
                         for name in top_level_imports(path)
                         if name not in sys.stdlib_module_names
                         and name not in ("numpy", "ofdmradar")})
    assert undeclared == []
