"""The package's public names are its modules' ``__all__`` lists, joined."""

import importlib
import inspect
import json
from fractions import Fraction
from pathlib import Path

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


def test_benchmark_call_counters_name_public_functions():
    # each ``<layer>.<name>.calls`` metric of BENCHMARK.json counts the calls
    # of a public function of that layer's module, or of one of the two
    # ``Subspace`` classmethods; a traced benchmark run fails with "metrics
    # not measured" when one is gone, and this test fails with it
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"].removesuffix(".calls") for m in spec["per_layer"]
             if m["name"].endswith(".calls")]
    assert names
    for name in names:
        layer, attr = name.split(".", 1)
        module = importlib.import_module(f"liederiv.{layer}")
        if attr in ("Subspace.from_vectors", "Subspace.from_sparse"):
            assert isinstance(vars(module.Subspace)[attr.split(".")[1]], classmethod), name
        else:
            fn = getattr(module, attr, None)
            assert not attr.startswith("_") and inspect.isfunction(fn), name
            assert fn.__module__ == module.__name__, name
