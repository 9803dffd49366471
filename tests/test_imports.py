"""Every library module uses each name it imports, no private one and
nothing of the test suite; its classes write no equality by fields of their
own; and each command loads only the modules it runs.

A representation that is deleted tends to leave its imports behind; this
check reads the source of each module of the package and names every
imported name that the module never mentions again.  A helper that one
module borrows from another's privates belongs to the borrower, so a module
of the package importing an underscore name from another is named too.  The
slow oracles that the fast paths are tested against live in ``tests/``; a
library module that imports one of them, or a test file, is named as well.

The package resolves its public names on first access, and the layers
import each other where they are used, so reading a t-norm or running a
``counterexample`` never loads the finite carrier, nor the finite function,
filter and monad stack, a ``laws`` run never loads the interval carrier,
and only a scenario file loads its reader.  The import graph is checked in
a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantalab

PACKAGE = Path(quantalab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


TESTS = Path(__file__).parent
TEST_MODULES = frozenset({TESTS.name} | {p.stem for p in TESTS.glob("*.py")})


def imports_of_test_code(source: str) -> list[str]:
    """Modules of the test suite (the oracles, a test file, or the tests
    package) that source imports."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names
                if name.split(".")[0] in TEST_MODULES]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_test_code(path):
    # the slow oracles live in tests/ so that the library never runs them
    assert imports_of_test_code(path.read_text()) == []


def test_an_import_of_test_code_is_named():
    source = ("import json\n"
              "from oracles import eval_at\n"
              "import tests.test_cli\n"
              "from .qfun import sub\n"
              "from test_quantale import square_lattice\n")
    assert imports_of_test_code(source) == [
        "oracles (line 2)", "test_quantale (line 5)", "tests.test_cli (line 3)"]


def equality_faults(source: str) -> list[str]:
    """Classes that define ``__eq__`` without ``__hash__``, which leaves them
    unhashable, and classes other than ``Record`` that define ``_key``:
    equality by fields is written once, in ``base.Record``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        defined |= {target.id for item in node.body if isinstance(item, ast.Assign)
                    for target in item.targets if isinstance(target, ast.Name)}
        if "__eq__" in defined and "__hash__" not in defined:
            out.append(f"{node.name} defines __eq__ without __hash__ (line {node.lineno})")
        if "_key" in defined and node.name != "Record":
            out.append(f"{node.name} defines _key (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_equality_is_hashable_and_written_once(path):
    assert equality_faults(path.read_text()) == []


def test_an_equality_fault_is_named():
    source = ("class Record:\n"
              "    def _key(self): pass\n"
              "class Point:\n"
              "    def __eq__(self, other): pass\n"
              "class Pair:\n"
              "    _key = None\n"
              "    def __eq__(self, other): pass\n"
              "    def __hash__(self): pass\n")
    assert equality_faults(source) == ["Point defines __eq__ without __hash__ (line 3)",
                                       "Pair defines _key (line 5)"]


# Runs the script in argv[1] with the CLI's output and exit swallowed, then
# prints the modules the interpreter holds.
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    try:
        exec(sys.argv[1])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""

BLOCK = {"type": "tnorm", "blocks": [{"lo": "1/4", "hi": "1/2", "kind": "lukasiewicz"}]}


def loaded_modules(script: str, tmp_path, package_only: bool = True) -> set[str]:
    """The quantalab modules (or with package_only false, all modules) a
    fresh interpreter holds after running script in tmp_path, next to a
    t-norm file, a laws scenario file and a counterexample scenario file."""
    (tmp_path / "block.json").write_text(json.dumps(BLOCK))
    (tmp_path / "cx.json").write_text(json.dumps({
        "quantale": BLOCK, "variant": "filter",
        "witness_catalog": [{"kind": "ramp", "scale": "1/4"}]}))
    (tmp_path / "laws.json").write_text(json.dumps({
        "quantale": {"type": "finite", "carrier": ["0/1", "1/1"],
                     "tensor": [["0/1", "0/1"], ["0/1", "1/1"]], "unit": "1/1"},
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 1}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE, script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return {m for m in json.loads(out.stdout) if not package_only or m.startswith("quantalab")}


FINITE_STACK = {"quantalab.finite", "quantalab.monad", "quantalab.semifilter",
                "quantalab.prefilter", "quantalab.qfun", "quantalab.classical"}
# what every subcommand loads: the shared values and the quantale reader,
# and neither carrier
FRONT = {"quantalab", "quantalab.base", "quantalab.cli", "quantalab.errors",
         "quantalab.serialize"}


def test_importing_the_cli_loads_only_the_front(tmp_path):
    # the import that bench/run.py's set-up probe times
    assert loaded_modules("import quantalab.cli", tmp_path) == FRONT


def test_reading_a_tnorm_loads_no_finite_stack(tmp_path):
    loaded = loaded_modules("import quantalab.cli\n"
                            "from quantalab.serialize import load_quantale\n"
                            "load_quantale('block.json')", tmp_path)
    assert "quantalab.quantale" in loaded
    assert loaded & (FINITE_STACK | {"quantalab.counterexample", "quantalab.scenario"}) \
        == set()


def test_checking_a_tnorm_loads_no_finite_carrier(tmp_path):
    loaded = loaded_modules("from quantalab.cli import main\n"
                            "main(['quantale', '--quantale', 'block.json', '--check', 'axioms',\n"
                            "      '--check', 'adjunction', '--grid-step', '1/4'])", tmp_path)
    assert loaded == FRONT | {"quantalab.quantale"}


def test_reading_a_scenario_without_a_catalog_loads_no_counterexample(tmp_path):
    loaded = loaded_modules("from quantalab.serialize import load_scenario\n"
                            "load_scenario('laws.json').x_set", tmp_path)
    assert "quantalab.qfun" in loaded
    assert "quantalab.counterexample" not in loaded
    assert "quantalab.monad" not in loaded


def test_a_counterexample_command_loads_only_its_layers(tmp_path):
    loaded = loaded_modules(
        "from quantalab.cli import main\n"
        "main(['counterexample', '--quantale', 'block.json', '--t', '3/8',\n"
        "      '--s', '3/8', '--truncation', '20'])", tmp_path)
    assert loaded == FRONT | {"quantalab.counterexample", "quantalab.quantale"}


def test_a_counterexample_from_a_scenario_loads_no_finite_stack(tmp_path):
    # the scenario's label sets are built only when a law run reads them
    loaded = loaded_modules(
        "from quantalab.cli import main\n"
        "main(['counterexample', '--scenario', 'cx.json', '--t', '3/8',\n"
        "      '--s', '3/8', '--truncation', '20'])", tmp_path)
    assert loaded == FRONT | {"quantalab.counterexample", "quantalab.quantale",
                              "quantalab.scenario"}


COMMANDS = {
    "quantale": "['quantale', '--quantale', 'block.json', '--check', 's']",
    "laws": "['laws', '--scenario', 'laws.json']",
    "counterexample": "['counterexample', '--quantale', 'block.json', '--t', '3/8', "
                      "'--s', '3/8', '--truncation', '20']",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_neither_click_nor_dataclasses(tmp_path, command):
    # import click costs about 30 ms per op, and import dataclasses about
    # 10 ms, as it loads inspect, ast, dis and tokenize
    loaded = loaded_modules(f"from quantalab.cli import main\nmain({COMMANDS[command]})",
                            tmp_path, package_only=False)
    assert "quantalab.cli" in loaded
    assert loaded & {"click", "dataclasses"} == set()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_plain_command_line_loads_no_argparse(tmp_path, command):
    # a plain command line is read by Command.read; import argparse, with
    # gettext and locale, and building its parsers cost about 6 ms per op
    loaded = loaded_modules(f"from quantalab.cli import main\nmain({COMMANDS[command]})",
                            tmp_path, package_only=False)
    assert "quantalab.cli" in loaded
    assert "argparse" not in loaded


def test_an_abbreviated_flag_goes_to_argparse(tmp_path):
    loaded = loaded_modules("from quantalab.cli import main\n"
                            "main(['laws', '--scen', 'laws.json'])",
                            tmp_path, package_only=False)
    assert "argparse" in loaded


def test_a_laws_command_loads_no_counterexample(tmp_path):
    loaded = loaded_modules("from quantalab.cli import main\n"
                            "main(['laws', '--scenario', 'laws.json'])", tmp_path)
    assert FINITE_STACK | {"quantalab.scenario"} <= loaded
    assert "quantalab.counterexample" not in loaded
    # nor the interval carrier: the law run builds and tests no t-norm
    assert "quantalab.quantale" not in loaded


def test_every_public_name_resolves_to_its_module_object():
    assert quantalab.__all__
    for name in quantalab.__all__:
        obj = getattr(quantalab, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(quantalab.__all__) <= set(dir(quantalab))


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quantalab.no_such_name
    with pytest.raises(ImportError):
        from quantalab import no_such_name  # noqa: F401


def test_variant_lives_in_base():
    import quantalab.base
    import quantalab.counterexample
    import quantalab.monad
    assert quantalab.monad.Variant is quantalab.base.Variant
    assert quantalab.counterexample.Variant is quantalab.base.Variant
    assert quantalab.Variant is quantalab.base.Variant
