"""Every module's ``__all__`` names each public export once, and each
name resolves — a stale entry otherwise breaks only ``import *``.

Modules are checked as well as packages: a name deleted from a module
but left in its ``__all__`` is invisible to a package that does not
re-export it."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
