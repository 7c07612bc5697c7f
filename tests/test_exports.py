"""Every name that mvmodal or one of its modules lists in __all__ resolves."""
import importlib
import pkgutil

import pytest

import mvmodal

MODULES = ["mvmodal", *(f"mvmodal.{m.name}" for m in pkgutil.iter_modules(mvmodal.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
