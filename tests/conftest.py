import pytest

from liederiv.derivations import derivation_algebra
from liederiv.parabolic import build_standard_parabolic


@pytest.fixture(scope="session")
def golden_q():
    """The running example: gl_6 with blocks 3, 2, 1."""
    return build_standard_parabolic((3, 2, 1))


@pytest.fixture(scope="session")
def golden_der(golden_q):
    return derivation_algebra(golden_q.algebra)


@pytest.fixture(scope="session")
def borel3_q():
    return build_standard_parabolic((1, 1, 1))


@pytest.fixture(scope="session")
def borel3_der(borel3_q):
    return derivation_algebra(borel3_q.algebra)
