"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import featherprune

MODULES = sorted(info.name for info in pkgutil.iter_modules(featherprune.__path__))


def test_package_exports_resolve():
    missing = [name for name in featherprune.__all__ if not hasattr(featherprune, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"featherprune.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
