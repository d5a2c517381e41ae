import importlib
import pkgutil
from pathlib import Path

import pytest

import asaikit

MODULES = sorted(f"asaikit.{m.name}" for m in pkgutil.iter_modules(asaikit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})


def test_roots_of_unity_only_in_arith():
    """Twisted sums go through the arith series helpers: no other module calls expjpi."""
    src = Path(asaikit.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "arith.py" and "expjpi" in p.read_text()]
    assert not offenders
