"""Every name a symchain module exports is defined there."""

import importlib
import pkgutil

import pytest

import symchain

MODULES = sorted(m.name for m in pkgutil.iter_modules(symchain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"symchain.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
