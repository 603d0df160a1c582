"""Parabolics with fractional structure constants, for the tests.

``build_standard_parabolic`` realizes each root generator x_(i,j) as the
matrix unit e_ij, so its constants are ints. Taking s e_ij instead, for a
nonzero rational s, turns each constant c_ab^k into
(sigma_a sigma_b / sigma_k) c_ab^k, where sigma is s on the root generators
and 1 on the central generators and the coroots: [x_(i,j), x_(j,l)] = s
x_(i,l) and [x_(i,j), x_(j,i)] = s^2 (h_i + ... + h_(j-1)). The table then
has a common denominator N > 1 while every subspace and derivation
dimension stays the same.
"""

from liederiv.lie import LieAlgebra
from liederiv.linalg import Q
from liederiv.parabolic import build_standard_parabolic


def scaled_parabolic(blocks, s, extra_center: int = 0):
    """A fresh parabolic for blocks whose table is that of the basis with
    s e_ij for x_(i,j); at s = 1 it is the build as it is."""
    q = build_standard_parabolic(blocks, extra_center=extra_center)
    s = Q(s)
    if s != 1:
        sigma = dict.fromkeys(q.root_index.values(), s)
        L = q.algebra
        q.algebra = LieAlgebra(L.dim, L.labels, [
            (a, b, k, v * sigma.get(a, 1) * sigma.get(b, 1) / sigma.get(k, 1))
            for a, b, k, v in L.triples()
        ])
        # rescaling basis vectors is an isomorphism that maps each basis
        # vector to a multiple of itself, so the build's certificates carry
        # over: Jacobi holds, every bracket the oracle's argument reads stays
        # nonzero, so the walked pairs still cut out Der q and the oracle
        # takes the same pairs, and every bracket keeps its support
        q.algebra._jacobi = L._jacobi
        q.algebra._generators = L._generators
        q.algebra._support = L._support
    return q
