"""The examples in the library's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import freegroups

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(freegroups.__path__, freegroups.__name__ + ".")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
