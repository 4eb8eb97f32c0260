"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qtcatalan").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_the_package():
    # numpy and sympy may be installed beside the package, so an import of
    # either would run here and fail only where they are not
    imported = {name.partition(".")[0] for path in SOURCES for name in _absolute_imports(path)}
    assert len(SOURCES) >= 10 and {"functools", "__future__"} <= imported
    assert imported - sys.stdlib_module_names <= {"qtcatalan"}
