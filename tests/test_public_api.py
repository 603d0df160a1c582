"""The package's public names are its modules' ``__all__`` lists, joined."""

from fractions import Fraction

import pytest

import liederiv
from liederiv import derivations, lie, linalg, parabolic

MODULES = (derivations, lie, linalg, parabolic)


def test_package_all_joins_the_module_lists():
    assert liederiv.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(liederiv.__all__)) == len(liederiv.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_defined_in_its_module(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if (module, name) == (linalg, "Q"):  # the one alias: the rationals themselves
            assert obj is Fraction
        else:
            assert obj.__module__ == module.__name__, name


def test_each_public_name_imports_from_the_package():
    namespace = {}
    exec("from liederiv import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name
