import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import enabling

MODULES = [enabling] + [
    importlib.import_module(f"enabling.{info.name}")
    for info in pkgutil.iter_modules(enabling.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from enabling import *", namespace)
    assert set(enabling.__all__) <= namespace.keys()


LIBRARY = [m for m in MODULES[1:] if m.__name__ != "enabling.cli"]


def test_package_exports_the_union_of_its_modules_names():
    names = [name for module in LIBRARY for name in module.__all__]
    assert sorted(enabling.__all__) == sorted(names)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_each_name_is_listed_by_the_module_that_defines_it(module):
    owners = {name: getattr(getattr(module, name), "__module__", module.__name__)
              for name in module.__all__}
    assert {name: m for name, m in owners.items() if m != module.__name__} == {}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_check_sits_in_an_assert(module):
    # python -O strips asserts, so a check that must hold is written as a raise.
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_no_library_module_holds_a_float_constant(module):
    # Every number the library computes with is a Fraction or an int; only
    # the command line's display hues may be floats.
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, (float, complex))] == []


# Each module imports only from those before it: a helper two modules share
# lives in the lower one, and no import cycle can form.
IMPORT_ORDER = ["graphs", "lp", "constructions", "bounds", "cliques", "certificates",
                "search", "cli"]


def test_modules_import_only_from_modules_earlier_in_the_order():
    names = {info.name for info in pkgutil.iter_modules(enabling.__path__)}
    assert sorted(IMPORT_ORDER) == sorted(names)
    late = []
    for rank, name in enumerate(IMPORT_ORDER):
        path = Path(enabling.__path__[0]) / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                late += [(name, t) for t in targets if t not in IMPORT_ORDER[:rank]]
    assert late == []


def _setattr_calls(tree):
    """Line numbers of every ``object.__setattr__`` in a syntax tree."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__" and isinstance(node.value, ast.Name)
            and node.value.id == "object"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_a_frozen_object_is_written_only_in_its_init(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    inits = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assert _setattr_calls(tree) - set().union(*map(_setattr_calls, inits)) == set()
