"""Every package's ``__all__`` names each public export once, and each
name resolves — a stale entry otherwise breaks only ``import *``."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_export_list_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert missing == []
