"""The package imports nothing outside the standard library and itself."""
import ast
import sys
from pathlib import Path

import ncomplex

PACKAGE = Path(ncomplex.__file__).resolve().parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [(path.name, name)
               for path in modules
               for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[0] not in sys.stdlib_module_names | {"ncomplex"}]
    assert foreign == []
