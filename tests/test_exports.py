"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import exprk

# __main__ runs main() on import, so it is not imported here
MODULES = ["exprk"] + [f"exprk.{m.name}" for m in pkgutil.iter_modules(exprk.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
