"""The routes stay independent: no route imports another to get its answer."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtcatalan"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
ROUTES = {"tableaux", "tesler", "chains", "closed_forms", "verification"}
#: the summing engines of the Tesler and tableau routes, which the oracles
#: are checked against
ENGINES = {
    "f_tesler", "_decoded", "_packed_walk", "_combine", "f_tableaux", "h_tableaux", "_plan",
    "sum_of_products", "divide_sum_of_products", "exact_divide",
}


def _package_imports(path):
    """{imported module: names taken from it} over every import of the
    package's own modules in the file at path, relative or absolute."""
    imports = {}
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 and not node.module:  # from . import tesler
                for alias in node.names:
                    imports.setdefault(alias.name, set()).add("*")
                continue
            if node.level == 1:
                target = parts[0]
            elif node.level == 0 and parts[0] == "qtcatalan":
                target = parts[1] if len(parts) > 1 else "__init__"
            else:
                continue
            imports.setdefault(target, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qtcatalan":
                    imports.setdefault(parts[1] if len(parts) > 1 else "__init__", set()).add("*")
    return imports


def _reach(module):
    # every package module that module.py imports, directly or through others
    seen, todo = set(), [module]
    while todo:
        for target in _package_imports(PACKAGE / f"{todo.pop()}.py"):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def test_the_parser_sees_the_package_imports():
    assert set(_package_imports(PACKAGE / "verification.py")) >= {"chains", "tableaux", "tesler", "closed_forms"}
    assert "integer_entries" in _package_imports(PACKAGE / "tesler.py")["errors"]


@pytest.mark.parametrize("route", ["tableaux", "tesler", "chains", "closed_forms"])
def test_no_route_reaches_another_route(route):
    # a route reaches only the base layer; verification and cli combine routes
    assert _reach(route) & (ROUTES | {"__init__"}) == set()


def test_the_oracles_name_no_engine_they_check():
    # the oracles take only named helpers from the package's modules, so an
    # engine could reach them only by name; a whole module or the package
    # imported would hide one behind an attribute
    imports = _package_imports(ORACLES)
    assert "_weight_factors" in imports["tableaux"] and "_key" in imports["tesler"]
    assert "__init__" not in imports and all("*" not in names for names in imports.values())
    assert set().union(*imports.values()) & ENGINES == set()
