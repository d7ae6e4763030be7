"""The examples in the library's docstrings and README's library quick
start run and hold, and the package exports a fixed set of names, each
listed in the `__all__` of the one module that defines it."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import freegroups

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(freegroups.__path__, freegroups.__name__ + ".")
)

# The modules whose `__all__` the package exports.
LIBRARY = ["freegroups." + m for m in ("words", "stallings", "whitehead", "ellipticity")]

EXPORTED = {
    "Alphabet",
    "AlphabetMismatchError",
    "CertificateError",
    "CyclicWord",
    "DoesNotGenerateError",
    "EllipticityAnswer",
    "FreeSplitting",
    "GraphFormatError",
    "Letter",
    "NielsenBudgetError",
    "NielsenTransformation",
    "NotABasisError",
    "NotFoldedError",
    "PairClass",
    "RankMismatchError",
    "SplittingError",
    "Subgroup",
    "TrivialIntersectionError",
    "TrivialWordError",
    "WhiteheadAut",
    "WhiteheadBudgetError",
    "Word",
    "WordFormatError",
    "XDigraph",
    "apply_nielsen",
    "apply_whitehead",
    "build_subgroup",
    "classify_pair",
    "conjugate_subgroups",
    "conjugator_into",
    "contains",
    "contains_conjugate",
    "core",
    "cyclic_reduce",
    "digraph_isomorphic",
    "enumerate_relabelings",
    "enumerate_whitehead",
    "equal_length_orbit",
    "factor_index",
    "find_cycle",
    "fold",
    "format_letters",
    "free_reduce",
    "graph_from_text",
    "graph_to_dot",
    "graph_to_text",
    "has_cycle",
    "intersect",
    "is_primitive",
    "letter_support",
    "minimize_tuple",
    "nielsen_bound",
    "nielsen_decompose",
    "parse_cyclic",
    "parse_word",
    "path_word",
    "primitive_in_intersection",
    "same_orbit",
    "signed_support",
    "spanning_tree_basis",
    "splittings_distance_two",
    "standard_basis",
    "total_length",
    "type_graph",
    "verify_splitting",
    "word_elliptic",
    "words_distance_two",
}


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


def test_exports_are_pinned():
    # An export cannot be dropped or added without editing this list.
    assert set(freegroups.__all__) == EXPORTED
    assert len(freegroups.__all__) == len(EXPORTED)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_only_its_own_names(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if getattr(module, n).__module__ != name] == []


def test_each_name_is_exported_by_one_module():
    names = [n for name in LIBRARY for n in importlib.import_module(name).__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(freegroups.__all__)
