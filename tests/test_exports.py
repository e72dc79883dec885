"""Every name in a ``toepsolve`` module's ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import toepsolve

MODULES = ["toepsolve"] + [m.name for m in pkgutil.walk_packages(toepsolve.__path__, "toepsolve.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
