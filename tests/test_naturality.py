"""Naturality under the diagram automorphism of gl_n.

theta(X) = -w0 X^T w0, with w0 the antidiagonal permutation, is an
automorphism of gl_n that maps the block parabolic of (b_1, ..., b_r) onto
that of (b_r, ..., b_1). In the adapted bases it is a signed permutation P:
I -> -I, Z[t] -> Z[t], h_k -> h_(n-k) and x_(i,j) -> -x_(n+1-j, n+1-i), and a
derivation transports as D -> P D P^-1. The oracle, the theorem check and
the constructive split of the reversed composition must agree with the
transported ones, so the closed-form build, the oracle's shortened walk and
the recipe are checked against an independent symmetry, not against each
other.
"""

import random

import pytest

from liederiv.derivations import (constructive_decompose, derivation_algebra,
                                  random_combination, verify_main_theorem)
from liederiv.lie import EndoMatrix
from liederiv.linalg import Subspace
from liederiv.parabolic import build_standard_parabolic, compositions


def _signed_permutation(q, r):
    """P from q onto r, the parabolic of the reversed composition: P x_a is
    sign[a] times the basis vector image[a] of r."""
    n = q.n
    image, sign = list(range(q.dim)), [1] * q.dim
    sign[0] = -1  # I -> -I; each Z[t] is fixed
    for k, a in q.coroot_index.items():
        image[a] = r.coroot_index[n - k]
    for (i, j), a in q.root_index.items():
        image[a], sign[a] = r.root_index[(n + 1 - j, n + 1 - i)], -1
    return image, sign


def _transport_cols(cols, image, sign):
    """The columns of P D P^-1 for the columns of D: entry (i, j) of D moves
    to (image[i], image[j]) with sign[i] sign[j]."""
    out = [{} for _ in cols]
    for j, col in enumerate(cols):
        out[image[j]] = {image[i]: sign[i] * sign[j] * e for i, e in col.items()}
    return out


@pytest.mark.parametrize("extra_center", [0, 1, 2])
def test_reversal_transports_table_der_report_and_split(extra_center):
    for n in range(1, 8):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks, extra_center=extra_center)
            r = build_standard_parabolic(blocks[::-1], extra_center=extra_center)
            image, sign = _signed_permutation(q, r)
            assert sorted(image) == list(range(q.dim)) == list(range(r.dim))
            # the table, entry for entry
            moved = [{} for _ in range(q.dim)]
            for a, row in enumerate(q.algebra.int_table):
                moved[image[a]] = {
                    image[b]: {image[k]: sign[a] * sign[b] * sign[k] * v for k, v in ks.items()}
                    for b, ks in row.items()}
            assert moved == r.algebra.int_table, blocks

            d = q.dim
            der, der_r = derivation_algebra(q.algebra), derivation_algebra(r.algebra)
            assert Subspace.from_sparse(d * d, [
                {image[f // d] * d + image[f % d]: sign[f // d] * sign[f % d] * v
                 for f, v in row.items()} for row in der.rows]) == der_r, blocks
            assert verify_main_theorem(q, der) == verify_main_theorem(r, der_r), blocks

            D = random_combination(q.algebra, der, random.Random(n))
            res = constructive_decompose(q, D)
            res_r = constructive_decompose(
                r, EndoMatrix(r.algebra, _transport_cols(D.cols, image, sign), D.den))
            assert res_r.l_part == EndoMatrix(
                r.algebra, _transport_cols(res.l_part.cols, image, sign), res.l_part.den)
            assert res_r.p == {image[a]: sign[a] * v for a, v in res.p.items()}, blocks
