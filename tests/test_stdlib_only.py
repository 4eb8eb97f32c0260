"""Checks of the sources: the runtime imports nothing outside the standard
library, loads no module it does not need, and every function and class it
defines is used."""

import ast
import subprocess
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


def test_import_loads_no_pool_dataclass_or_thread_machinery():
    # a short `qtc` call is mostly import time: parallel_map forks its own
    # workers and records are slotted classes, so none of these is needed.
    # Counted from the interpreter's own start, so what `site` loads is not.
    code = (
        "import sys; before = set(sys.modules); import qtcatalan; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = {name.partition(".")[0] for name in out.stdout.split()}
    assert "qtcatalan" in loaded
    assert loaded & {"concurrent", "multiprocessing", "threading", "dataclasses", "inspect"} == set()


def _python_files(*dirs):
    root = Path(__file__).resolve().parents[1]
    return [path for d in dirs for path in sorted((root / d).rglob("*.py"))]


def _definitions():
    # {name: where} of every function and class the package defines, dunder
    # methods aside; a name defined twice is kept at its first definition
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined


def _referenced(paths, unread_attributes=frozenset()):
    # every name the files at paths mention: a call, an attribute (but for
    # unread_attributes) or a string such as a tracer target
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in unread_attributes:
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                referenced.add(node.value)
    return referenced


def test_every_definition_is_referenced():
    # a function or class of the package that nothing names, whether a call,
    # an attribute or a string such as a tracer target, is dead code
    defined = _definitions()
    referenced = _referenced(_python_files("src", "tests", "perfbench"))
    assert len(defined) > 100
    assert {name: where for name, where in defined.items() if name not in referenced} == {}


#: The package definitions that only tests name, each kept for its reason.
#: A test-only helper belongs in tests/oracles.py, not here.
TEST_ONLY_DEFINITIONS = {
    "phi_inv",  # the inverse of phi: the paper's explicit decomposition, a bijection both ways
    "omega_inv",  # the inverse of omega_map, likewise
    "classify",  # the case of stat's definition a subpartition falls into, as the paper states it
    "is_valid",  # the chain index records' membership tests; the listings test regions on integers
    "to_poly",  # BinomialFactor's and FactoredRational's values; the benchmark's tracer wraps FactoredRational's sum
    "parse_json",  # reads back the JSON interchange format that render_json writes
}


#: The methods of the builtin types: the benchmark's s.encode() or
#: d.items() reads one of these, not a package method of the same name.
BUILTIN_METHODS = set().union(*map(dir, (str, bytes, bytearray, int, float, list, dict, tuple, set, frozenset)))


def test_only_the_named_definitions_serve_tests_alone():
    # what the commands, the routes and the benchmark never name; the
    # package's __init__ names every export, so it is left out.  The
    # benchmark's bare names and strings are the tracer's targets, and its
    # attributes count unless a builtin type defines them
    sources = [path for path in _python_files("src") if path.name != "__init__.py"]
    referenced = _referenced(sources) | _referenced(_python_files("perfbench"), BUILTIN_METHODS)
    assert set(_definitions()) - referenced == TEST_ONLY_DEFINITIONS
