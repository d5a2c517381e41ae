import importlib
import pkgutil

import pytest

import asaikit

MODULES = sorted(f"asaikit.{m.name}" for m in pkgutil.iter_modules(asaikit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})
