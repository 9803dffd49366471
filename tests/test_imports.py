"""Every library module uses each name it imports, and no private one.

A representation that is deleted tends to leave its imports behind; this
check reads the source of each module of the package, ``__init__`` aside
(it imports to re-export), and names every imported name that the module
never mentions again.  A helper that one module borrows from another's
privates belongs to the borrower, so a module of the package importing an
underscore name from another is named too.
"""

import ast
from pathlib import Path

import pytest

import quantalab

MODULES = sorted(p for p in Path(quantalab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_named():
    source = "from fractions import Fraction\nimport itertools\nitertools.count()\n"
    assert unused_imports(source) == ["Fraction (line 1)"]


def private_imports(source: str) -> list[str]:
    """Underscore names imported from another module of the package."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or node.module.split(".")[0] == "quantalab")
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_named():
    source = ("from __future__ import annotations\n"
              "from fractions import _gcd\n"
              "from .quantale import ONE, _scaled\n"
              "from quantalab.qfun import _code\n")
    assert private_imports(source) == ["_code (line 4)", "_scaled (line 3)"]
