"""The examples in the library's docstrings and README's library quick
start run and hold, and every name the package exports exists."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import freegroups

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(freegroups.__path__, freegroups.__name__ + ".")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0 and result.attempted > 0


def test_every_exported_name_resolves():
    # A name deleted from the library must leave the package's __all__ too.
    assert [name for name in freegroups.__all__ if not hasattr(freegroups, name)] == []
    assert len(set(freegroups.__all__)) == len(freegroups.__all__)
