from __future__ import annotations

import importlib
import pkgutil

import pytest

import hermspec

MODULES = ["hermspec"] + [
    f"hermspec.{info.name}" for info in pkgutil.iter_modules(hermspec.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
