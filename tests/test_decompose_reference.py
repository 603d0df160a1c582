"""``constructive_decompose`` against the Fraction recipe of ``decompose_reference``.

The library splits a derivation in integers over one common denominator
and forms l_part in one pass; the reference takes each scalar as a
``Fraction`` and l_part as D - ``ad_matrix``. Both must give equal results
in every field and in ``to_json_dict``, or raise the same error with the
same message, pair and diagnostics: on derivations of every composition of
n <= 6 at extra center 0 and 1, scaled to den 1 and divided to den > 1, on
perturbed maps, on tables with N > 1, and on tables swapped into q.
"""

import random

import pytest

import decompose_reference
from scaled_reference import scaled_parabolic
from liederiv.derivations import (
    DecompositionError,
    NotADerivationError,
    constructive_decompose,
    derivation_algebra,
    random_combination,
)
from liederiv.lie import EndoMatrix, LieAlgebra, first_leibniz_violation
from liederiv.linalg import Q
from liederiv.parabolic import build_standard_parabolic, compositions


def _outcome(decompose, q, D):
    """Every field of the split and its JSON, or the error's type, message,
    pair and diagnostics."""
    try:
        r = decompose(q, D)
    except (NotADerivationError, DecompositionError) as exc:
        return type(exc), str(exc), getattr(exc, "pair", None), getattr(exc, "diagnostics", None)
    return r.l_part, r.p, r.d_gamma, r.c_gamma, r.h_star, r.to_json_dict()


def _maps(q, der, rng):
    """Drawn maps of q: a derivation, it times its den (den 1), it over 7
    den and over 2 den, and, unless every map is a derivation (q abelian),
    it plus a unit map that breaks Leibniz."""
    L = q.algebra
    D = random_combination(L, der, rng)
    maps = [D, EndoMatrix(L, D.cols), EndoMatrix(L, D.cols, 7 * D.den),
            EndoMatrix(L, D.cols, 2 * D.den)]
    d = L.dim
    while any(L.int_table):  # else every map is a derivation
        a, b = rng.randrange(d), rng.randrange(d)
        unit = EndoMatrix(L, [{a: rng.choice((-2, -1, 1, 3))} if j == b else {} for j in range(d)])
        if first_leibniz_violation(L, unit) is not None:
            return maps + [D + unit, EndoMatrix(L, D.cols, 3 * D.den) + unit]
    return maps


def _assert_same(q, maps):
    """Equal outcomes on each map; each scalar of a split is an int, or a
    Fraction whose denominator is not 1."""
    for D in maps:
        got = _outcome(constructive_decompose, q, D)
        assert got == _outcome(decompose_reference.constructive_decompose, q, D)
        if isinstance(got[0], EndoMatrix):
            assert all(type(v) is int or type(v) is Q and v.denominator > 1
                       for scalars in got[1:5] for v in scalars.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_split_matches_reference_on_every_composition(n):
    for blocks in compositions(n):
        for z in (0, 1):
            q = build_standard_parabolic(blocks, extra_center=z)
            der = derivation_algebra(q.algebra)
            rng = random.Random(f"{blocks}/{z}")
            maps = [m for _ in range(2) for m in _maps(q, der, rng)]
            assert any(D.den == 1 for D in maps) and any(D.den > 1 for D in maps)
            _assert_same(q, maps)


@pytest.mark.parametrize("blocks, s", [((2, 1, 2), Q(3, 2)), ((3, 2, 1), Q(-2, 3)),
                                       ((1, 1, 1), Q(1, 5)), ((4,), Q(1, 2))])
def test_split_matches_reference_on_a_table_with_denominators(blocks, s):
    # the rescaled table keeps the build's certificates and has N > 1
    q = scaled_parabolic(blocks, s, extra_center=1)
    assert q.algebra.denominator > 1
    der = derivation_algebra(q.algebra)
    rng = random.Random(str(blocks))
    _assert_same(q, [m for _ in range(3) for m in _maps(q, der, rng)])


@pytest.mark.parametrize("blocks", [(2, 1), (3, 2, 1), (1, 2, 2), (5,)])
def test_split_matches_reference_on_a_swapped_table(blocks):
    # an equal table read back from JSON is uncertified, so every map meets
    # the Leibniz gate
    q = build_standard_parabolic(blocks)
    q.algebra = LieAlgebra.from_json_dict(q.algebra.to_json_dict())
    der = derivation_algebra(q.algebra)
    rng = random.Random(str(blocks))
    _assert_same(q, [m for _ in range(3) for m in _maps(q, der, rng)])


def test_split_matches_reference_where_a_residual_check_fails():
    # the (1,2) table in q = (2,1): five of the eight oracle basis maps fail
    # a residual check and raise DecompositionError
    q = build_standard_parabolic((2, 1))
    q.algebra = build_standard_parabolic((1, 2)).algebra
    maps = [EndoMatrix.from_flat(q.algebra, row) for row in derivation_algebra(q.algebra).rows]
    outcomes = [_outcome(constructive_decompose, q, D) for D in maps]
    assert sum(o[0] is DecompositionError for o in outcomes) == 5
    _assert_same(q, maps + [EndoMatrix(q.algebra, D.cols, 5 * D.den) for D in maps])
