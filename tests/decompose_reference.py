"""The constructive split in Fractions, the way the library first wrote it.

``constructive_decompose`` runs in integers over one common denominator and
sums D - ad p in a single pass. The reference here takes the long way, one
value at a time: every scalar is a ``Fraction``, h* comes from its own copy
of the closed-form inverse of the type A Cartan matrix, ad p is formed by
``ad_matrix`` and subtracted with ``EndoMatrix.__sub__``, and the residual
checks and the Leibniz gate run on the result. It returns the same
``DecompositionResult`` or raises the same errors, so the tests can compare
the two field by field.
"""

from fractions import Fraction as Q

from liederiv.derivations import (DecompositionError, DecompositionResult, NotADerivationError,
                                  _sum_certified)
from liederiv.lie import ad_matrix, first_leibniz_violation


def cartan_solve(c) -> list[Q]:
    """The b with A b = c for the type A Cartan matrix A of size len(c), by
    (A^-1)_jk = min(j, k) (n - max(j, k)) / n, n = len(c) + 1."""
    n = len(c) + 1
    return [sum((Q(min(j, k) * (n - max(j, k)), n) * ck for k, ck in enumerate(c, 1)), Q(0))
            for j in range(1, n)]


def root_line_reduction(q, D):
    """(x, d_gamma): d_gamma[(i, j)] is half the x_(i,j) coefficient of D
    on +-(h_min(i,j) + ... + h_(max(i,j)-1)), signed by j - i, and x = -d_gamma
    on the root generators where it is not 0."""
    h = q.coroot_index
    d_gamma, x = {}, {}
    for (i, j), pos in q.root_index.items():
        lo, hi = min(i, j), max(i, j)
        s = sum((Q(D.cols[h[k]].get(pos, 0), D.den) for k in range(lo, hi)), Q(0))
        dg = s / 2 if i < j else -s / 2
        d_gamma[(i, j)] = dg
        if dg:
            x[pos] = -dg
    return x, d_gamma


def _residual_failure(q, l_part):
    center = set(q.center_indices)
    for jdx, col in enumerate(l_part.cols):
        if any(i not in center for i in col):
            return f"residual map does not land in the center at column {jdx}"
    for jdx in q.derived_indices:
        if l_part.cols[jdx]:
            return f"residual map does not kill the derived algebra at column {jdx}"
    return None


def constructive_decompose(q, D) -> DecompositionResult:
    """D = l_part + ad(x + h*), checked as ``derivations.constructive_decompose``
    checks it: the Leibniz gate runs when a residual check fails or the build's
    certificates do not put lid + ad q in Der q (``_sum_certified``, the one rule)."""
    L = q.algebra
    if D.algebra is not L:
        raise ValueError("maps belong to different algebras")
    n = q.n
    x, d_gamma = root_line_reduction(q, D)
    c_gamma = {root: Q(D.cols[pos].get(pos, 0), D.den) for root, pos in q.root_index.items()}
    b = cartan_solve([c_gamma[(k, k + 1)] for k in range(1, n)])
    h_star = {q.coroot_index[k]: bk for k, bk in enumerate(b, 1) if bk}
    p = {**x, **h_star}
    l_part = D - ad_matrix(L, p)
    message = _residual_failure(q, l_part)
    if message is not None or not _sum_certified(q):
        pair = first_leibniz_violation(L, D)
        if pair is not None:
            raise NotADerivationError(pair)
    if message is not None:
        raise DecompositionError(message, {"d_gamma": d_gamma, "c_gamma": c_gamma,
                                           "h_star": h_star, "p": p})
    return DecompositionResult(l_part=l_part, p=p, d_gamma=d_gamma, c_gamma=c_gamma,
                               h_star=h_star)
