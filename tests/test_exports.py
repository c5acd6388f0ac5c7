import importlib
import pkgutil

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
