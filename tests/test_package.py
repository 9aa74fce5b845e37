"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import zenotraj

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(zenotraj.__path__))


def test_package_all_resolves():
    missing = [name for name in zenotraj.__all__ if not hasattr(zenotraj, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"zenotraj.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

