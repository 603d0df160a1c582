"""The theorem check by two eliminations, a reference for the one-elimination
``derivations.verify_main_theorem``.

ad q is reduced on its own (``inner_derivations``) and then again inside
S = lid + ad q, and the direct sum is read off the dimensions. The closures,
the formula and the order of the witnesses are those of the library check.
"""

from liederiv.derivations import (
    VerificationReport,
    _sum_certified,
    formula_dim,
    inner_derivations,
    l_ideal,
)
from liederiv.lie import EndoMatrix, ad_matrix
from liederiv.linalg import Subspace, contains


def two_elimination_report(q, der: Subspace) -> VerificationReport:
    L = q.algebra
    d = L.dim
    inner = inner_derivations(L)
    lid = l_ideal(q)
    S = Subspace.from_sparse(d * d, lid.rows + inner.rows)
    # with S == der, the intersection is 0 iff the dimensions add up
    direct_sum = None if S == der and lid.dim + inner.dim == der.dim else {"kind": "direct_sum"}
    expected = formula_dim(q)
    formula = None if expected == der.dim else {"kind": "formula", "expected": expected,
                                                "oracle": der.dim}
    kept = [(name, {p: r for r, p in enumerate(ix)})
            for name, ix in (("g_z", q.center_indices), ("derived", q.derived_indices))]
    l_closure = next(({"kind": "l_closure", "der_index": di, "subspace": name,
                       "vector_index": piv[min(out)]}
                      for di, flat in enumerate(der.rows) for name, piv in kept
                      if (out := [f // d for f in flat if f // d in piv and f % d not in piv])),
                     None)
    certified = _sum_certified(q)
    suspects = [di for di, flat in enumerate(der.rows) if not certified or not contains(S, flat)]
    ads = [ad_matrix(L, {i: 1}) for i in range(d)]
    inner_closure = next(({"kind": "inner_closure", "der_index": di, "basis_index": i}
                          for di in suspects
                          for D in [EndoMatrix.from_flat(L, der.rows[di])]
                          for i, A in enumerate(ads)
                          if not contains(inner, (EndoMatrix(L, map(D.apply, A.cols), A.den)
                                                  - EndoMatrix(L, map(A.apply, D.cols), D.den)
                                                  ).flat())),
                         None)
    witnesses = (direct_sum, formula, l_closure, inner_closure)
    return VerificationReport(
        der_dim=der.dim,
        l_dim=lid.dim,
        inner_dim=inner.dim,
        h1_dim=der.dim - inner.dim,
        formula_dim=expected,
        direct_sum_ok=direct_sum is None,
        l_is_ideal_ok=l_closure is None,
        inner_is_ideal_ok=inner_closure is None,
        formula_ok=formula is None,
        counterexample=next((w for w in witnesses if w is not None), None),
    )
