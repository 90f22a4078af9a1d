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


def test_every_memo_is_bounded():
    # A functools memo without a bound grows for the life of the process;
    # only an argument-free one, which holds a single entry, may go without.
    sizes = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == name:
                sizes[f"{name}.{attr}"] = obj.cache_parameters()["maxsize"]
    assert "hermspec.classify._cycle_witness" in sizes
    assert {memo for memo, size in sizes.items() if size is None} == {
        "hermspec.graphs._entry_array"
    }
