"""Every exported name resolves.

A name left in an ``__all__`` after its definition is deleted fails only
when a user star-imports or looks it up; here it fails the suite.
"""

import importlib
import pkgutil

import pytest

import lfgibbs

MODULES = ["lfgibbs"] + sorted(
    info.name for info in pkgutil.walk_packages(lfgibbs.__path__, "lfgibbs."))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
