"""Derivation algebras of block parabolics: oracle, decomposition, theorem checks.

Three independent routes to the same objects meet here. The oracle computes
Der q as the exact kernel of the Leibniz system in the dim^2 matrix unknowns.
The structural route builds the ideal of center-valued maps killing the
derived algebra, plus the span of the adjoint maps. The constructive route
peels an arbitrary derivation into those two pieces explicitly: first an
inner correction read off the Cartan images, then a Cartan element from the
simple-root eigenvalues by the closed-form inverse of the type A Cartan
matrix, leaving a map into the center.

Every map is an ``EndoMatrix``, integer columns over one denominator, and
every vector of q a sparse coordinate dict, from the input to the JSON
payload, which alone writes them out dense. In endomorphism space a map
is flattened column-major (entry (i, j) at index j*dim + i), fixed
package-wide so subspaces of maps are comparable everywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm

from .lie import (EndoMatrix, LieAlgebra, _leibniz_failures, first_leibniz_violation, grading,
                  jacobi_holds)
from .linalg import Q, Subspace, _RowReducer, _over, _ratio
from .parabolic import ParabolicAlgebra, _cartan_adjugate

__all__ = [
    "NotADerivationError",
    "DecompositionError",
    "DecompositionResult",
    "VerificationReport",
    "derivation_algebra",
    "inner_derivations",
    "l_ideal",
    "verify_main_theorem",
    "constructive_decompose",
    "root_line_reduction",
    "split_derivation",
    "dimension_formula",
    "formula_dim",
    "complexify",
    "extend_derivation",
    "random_combination",
]


class NotADerivationError(ValueError):
    """A matrix failed the Leibniz identity; carries the first bad pair."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"Leibniz identity fails at basis pair {pair}")
        self.pair = pair


class DecompositionError(RuntimeError):
    """The constructed decomposition violated its own invariants."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _flat_ad(L: LieAlgebra, a: int) -> dict[int, int]:
    """``int_table[a]``, the map N ad x_a, flattened (column b at index b*dim + k)."""
    d = L.dim
    return {b * d + k: v for b, ks in L.int_table[a].items() for k, v in ks.items()}


def derivation_algebra(L: LieAlgebra) -> Subspace:
    """Der L as a subspace of endomorphism space (ambient dim = dim^2): the
    kernel of the Leibniz system
    d([x_i,x_j]) - [d x_i, x_j] - [x_i, d x_j] = 0 over all i < j.

    It is exact: each equation is taken times N > 0, the common denominator
    of the constants, which makes it integral and leaves the kernel as it
    is. The system is block diagonal by the weights of ``grading`` (D_{l,k}
    has weight w_l - w_k). Once ``jacobi_holds`` certifies every ad x, the
    block of a nonzero weight mu is ad(L_mu), as the Leibniz identity at
    (h*, x_k) reads (w_k - w_l) D_{l,k} = N [D h*, x_k]_l, else every weight
    is 0. A build certifies G = (x_(1,2), ..., x_(n-1,n))
    (``ParabolicAlgebra.__init__``), and only the pairs that meet G are walked;
    other tables walk every pair. A weight-0 D keeps each weight space: Dh is in
    the center plus the coroots for h of weight 0, and D x_a = lam_a x_a. (1) At
    (x_(k,k+1), h) the equation reads alpha_k(Dh) = 0 for every k, so Dh is
    central (the Cartan matrix is invertible). (2) So every equation at (h, y)
    holds: [Dh, y] = 0, and D commutes with ad h, a scalar on each weight space.
    (3) At (x_(k,k+1), x_(k+1,k)), k in delta', it reads D h_k = (lam_(k,k+1) +
    lam_(k+1,k)) h_k, a central multiple of h_k, so both are 0. (4) At
    (x_(i,i+1), x_(i+1,j)) and (x_(i-1,i), x_(i,j)) it reads lam_(i,j) =
    lam_(i,i+1) + lam_(i+1,j) and lam_(i-1,j) = lam_(i-1,i) + lam_(i,j), as
    [e_ij, e_jl] = e_il for l != i; by induction on |i - j|, lam is additive on
    the roots of q. (5) An additive lam, with Dh central and 0 on the coroots of
    delta', meets every equation at a pair of roots. So the walked weight-0
    equations have the kernel of the whole weight-0 block (for n = 1, G is
    empty and q abelian). Only the weight-0 equations at the walked pairs that
    have a term are fed to the one elimination. It numbers D_{l,k} top - (k*d +
    l), top = d*d - 1, so ``_RowReducer.kernel_rows`` writes the block's
    canonical rows. Blocks share no coordinate, so one small
    elimination of the ad x of nonzero weight gives the canonical rows of every
    nonzero-weight block. Sorted by pivot, they are the canonical basis, with
    no second elimination.
    """
    d = L.dim
    top = d * d - 1
    T = L.int_table  # N times the constants; same kernel, see above
    jacobi = jacobi_holds(L)
    W = grading(L) if jacobi else (0,) * d
    gens = L._generators if jacobi else None
    # rowmap[j][l] = entries (m, val) with val = coefficient of x_l in [x_m, x_j]
    rowmap: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(d)]
    for m, ad_m in enumerate(T):
        for j, ks in ad_m.items():
            for k, v in ks.items():
                rowmap[j].setdefault(k, []).append((m, v))
    by_weight: dict[int, list[int]] = {}
    for k in range(d):
        by_weight.setdefault(W[k], []).append(k)
    red = _RowReducer()  # blocks share no unknown, so it keeps them apart

    for i, ri in enumerate(rowmap):
        # the pairs (i, j), i < j, that meet the certified generators, or every pair
        js = range(i + 1, d) if gens is None or i in gens else gens[bisect_right(gens, i):]
        for j in js:
            cdict, rj = T[i].get(j, {}), rowmap[j]
            # the equation (i, j, l) has its unknowns in block w_l - w_i - w_j
            for l in by_weight.get(W[i] + W[j], ()):
                on_i, on_j = rj.get(l, ()), ri.get(l, ())
                if cdict or on_i or on_j:  # else the equation reads 0 = 0
                    row: dict[int, int] = {}
                    for k, v in cdict.items():
                        idx = top - (k * d + l)  # coefficient of D_{l,k}
                        row[idx] = row.get(idx, 0) + v
                    # [d x_i, x_j]_l = sum_m D_{m,i} c_{mj}^l enters negatively
                    for (m, v) in on_i:
                        idx = top - (i * d + m)
                        row[idx] = row.get(idx, 0) - v
                    # [x_i, d x_j]_l = sum_m D_{m,j} c_{im}^l = -sum_m D_{m,j} c_{mi}^l
                    for (m, v) in on_j:
                        idx = top - (j * d + m)
                        row[idx] = row.get(idx, 0) + v
                    red.add_row(row)  # it drops the zero entries

    # the weight-0 unknowns, the (k, l) in one block, in increasing k*d + l
    rows = red.kernel_rows(top, (k * d + l for k in range(d) for l in by_weight[W[k]]))
    nonzero = _RowReducer()  # the blocks ad(L_mu), mu != 0, share no column
    for x in range(d):
        if W[x]:
            nonzero.add_row(_flat_ad(L, x))
    rows += nonzero.rows()
    rows.sort(key=min)  # by pivot: each row's least column
    return Subspace(d * d, rows)


def inner_derivations(L: LieAlgebra) -> Subspace:
    """Span of the adjoint maps of all basis elements.

    ``int_table[a]`` is N ad x_a as sparse columns, the table ``ad_matrix``
    reads; flattened they span the same subspace as the ad x_a themselves.
    """
    return Subspace.from_sparse(L.dim ** 2, [_flat_ad(L, a) for a in range(L.dim)])


def l_ideal(q: ParabolicAlgebra) -> Subspace:
    """Maps sending the center + c block into the center, zero on the derived
    algebra: the span of the elementary matrices E(z, u) in the adapted basis."""
    d = q.algebra.dim
    return Subspace.units(
        d * d, (u * d + z for z in q.center_indices for u in q.center_indices + q.c_indices)
    )


def dimension_formula(center_dim: int, simple_count: int, selected_count: int, dim_qs: int) -> int:
    """(center_dim + simple_count - selected_count) * center_dim + dim_qs, for
    int arguments (not bools), else ValueError quoting the first value that is not."""
    for v in (center_dim, simple_count, selected_count, dim_qs):
        if type(v) is not int:
            raise ValueError(f"arguments must be ints, got {v!r}")
    if selected_count > simple_count:
        raise ValueError("selected simple roots exceed the simple root count")
    if min(center_dim, simple_count, selected_count, dim_qs) < 0:
        raise ValueError("arguments must be nonnegative")
    return (center_dim + simple_count - selected_count) * center_dim + dim_qs


def formula_dim(q: ParabolicAlgebra) -> int:
    """The dimension of Der q that ``dimension_formula`` predicts from q;
    the trace-zero part q_s complements the center."""
    z = len(q.center_indices)
    return dimension_formula(z, q.n - 1, len(q.delta_prime), q.dim - z)


@dataclass
class VerificationReport:
    """Outcome of the full decomposition check for one parabolic. ``formula_dim``
    is the predicted dim Der q; ``ok`` holds when no check left a witness."""

    der_dim: int
    l_dim: int
    inner_dim: int
    h1_dim: int
    formula_dim: int
    direct_sum_ok: bool
    l_is_ideal_ok: bool
    inner_is_ideal_ok: bool
    formula_ok: bool
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _sum_certified(q: ParabolicAlgebra) -> bool:
    """Whether S = l_ideal + ad q lies in Der q by the build's certificates, read
    against q's three index tuples on every call: the one rule of both fast paths."""
    # ``_of`` certifies Jacobi, so ad q, and records where the table's brackets
    # land. E(z, u), z in the center with ad x_z = 0, is a derivation iff no
    # bracket has a component on x_u. So where the recorded positions lie in the
    # derived algebra and miss the center and c, every E(z, u) of l_ideal is one,
    # and so is every map into the center that kills the derived algebra, which
    # is what the residual checks of the split pass. The tuples are public and
    # can be rewritten, so each is read here rather than trusted from the build
    L, lands = q.algebra, q.algebra._support
    return (lands is not None and set(lands) <= set(q.derived_indices).difference(
        q.center_indices, q.c_indices) and not any(L.int_table[z] for z in q.center_indices))


def verify_main_theorem(q: ParabolicAlgebra, der: Subspace) -> VerificationReport:
    """Check Der q = lid + ad q as a sum of ideals, lid the center-valued maps:
    (a) the two spans add up to der, the oracle kernel, (b) they meet in 0,
    (c) both are closed under [D, -] for every basis derivation D of der, (d)
    the dimension formula matches der. The witness is the first failure in
    the order (a)/(b), (d), then the two closures.

    One elimination, fed the ad x_a and then the units of lid, settles (a) and
    (b): lid meets ad q in 0 when each unit raises the rank, and its rows by
    pivot, compared with der's as they stand, are the canonical basis of S =
    lid + ad q. lid is closed iff D keeps the center and the derived algebra:
    no entry of D at a flat index j*d + i, j inside one, i outside. [D, ad x_i]
    = ad(D x_i) + R_i, R_i(x_j) D's Leibniz residual at (x_i, x_j), so [D, ad
    x_i] is in ad q iff R_i is, and the one evaluator of Leibniz and Jacobi
    (``lie._leibniz_failures``) gives every R_i. Only the D outside S are tested where the
    build's certificates hold for q's tuples as they stand (``_sum_certified``), else every D."""
    L = q.algebra
    d = L.dim
    if der.ambient_dim != d * d:
        raise ValueError("ambient dimensions differ")
    red = _RowReducer()  # (a) and (b), see above
    inner_dim = sum(red.add_row(_flat_ad(L, a)) for a in range(d))
    lid = l_ideal(q)
    independent = sum(map(red.add_row, lid.rows)) == lid.dim
    equal = red.pivot_rows == der._red.pivot_rows  # S == der: the same canonical rows
    direct_sum = None if equal and independent else {"kind": "direct_sum"}

    expected = formula_dim(q)
    formula = None if expected == der.dim else {"kind": "formula", "expected": expected,
                                                "oracle": der.dim}

    # [D, l_ideal] stays in l_ideal iff D keeps g_z and derived, as q = g_z + c + derived;
    # entry (i, j) of D sits at the flat index j*d + i, so D leaves a subspace
    # exactly where it has an entry in its ``leave``, j inside and i outside,
    # and piv maps a basis position to its place among the subspace's
    kept = []
    for name, ix in (("g_z", q.center_indices), ("derived", q.derived_indices)):
        outside = set(range(d)).difference(ix)
        kept.append((name, {p: r for r, p in enumerate(ix)},
                     {j * d + i for j in ix for i in outside}))
    l_closure = next(({"kind": "l_closure", "der_index": di, "subspace": name,
                       "vector_index": piv[min(leave.intersection(flat)) // d]}
                      for di, flat in enumerate(der.rows) for name, piv, leave in kept
                      if not leave.isdisjoint(flat)),
                     None)

    certified = _sum_certified(q)
    suspects = [] if certified and equal else [
        di for di, flat in enumerate(der.rows) if not certified or red.reduce(flat)]
    inner = inner_derivations(L) if suspects else None
    inner_closure = None
    for di in suspects:  # one map's residuals at a time
        cols, R = [{} for _ in range(d)], [{} for _ in range(d)]
        for f, e in der.rows[di].items():
            cols[f // d][f % d] = e
        # R[i] is N R_i flattened: N R_i(x_j) at column j, and R_j(x_i) = -R_i(x_j)
        for i, j, r in _leibniz_failures(L, cols):
            for k, v in r.items():
                R[i][j * d + k], R[j][i * d + k] = v, -v
        i = next((i for i in range(d) if not inner._member(R[i])), None)
        if i is not None:
            inner_closure = {"kind": "inner_closure", "der_index": di, "basis_index": i}
            break

    witnesses = (direct_sum, formula, l_closure, inner_closure)
    return VerificationReport(
        der_dim=der.dim,
        l_dim=lid.dim,
        inner_dim=inner_dim,
        h1_dim=der.dim - inner_dim,
        formula_dim=expected,
        direct_sum_ok=direct_sum is None,
        l_is_ideal_ok=l_closure is None,
        inner_is_ideal_ok=inner_closure is None,
        formula_ok=formula is None,
        counterexample=next((w for w in witnesses if w is not None), None),
    )


# ---------------------------------------------------------------------------
# constructive decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionResult:
    """D = l_part + ad(p), with the scalars read off along the way; p and
    h_star are sparse coordinate dicts."""

    l_part: EndoMatrix
    p: dict[int, Q]
    d_gamma: dict[tuple[int, int], Q]
    c_gamma: dict[tuple[int, int], Q]
    h_star: dict[int, Q]

    def to_json_dict(self) -> dict:
        """The JSON payload of ``decompose``. Every all-zero row of "l_part" is one
        list of "0" strings, shared as ``Subspace.rows`` are: callers must not
        mutate it."""
        d, den = self.l_part.algebra.dim, self.l_part.den
        zero = ["0"] * d
        rows = [zero] * d
        for j, col in enumerate(self.l_part.cols):
            for i, e in col.items():
                if rows[i] is zero:
                    rows[i] = ["0"] * d
                rows[i][j] = str(_over(e, den))
        return {
            "l_part": rows,
            "p": [str(self.p.get(i, 0)) for i in range(d)],
            "d_gamma": [[i, j, str(v)] for (i, j), v in sorted(self.d_gamma.items())],
            "c_gamma": [[i, j, str(v)] for (i, j), v in sorted(self.c_gamma.items())],
            "h_star": [str(self.h_star.get(i, 0)) for i in range(d)],
        }


def _check_leibniz(L: LieAlgebra, D: EndoMatrix) -> None:
    viol = first_leibniz_violation(L, D)
    if viol is not None:
        raise NotADerivationError(viol)


def root_line_reduction(
    q: ParabolicAlgebra, D: EndoMatrix
) -> tuple[dict[int, Q], dict[tuple[int, int], Q]]:
    """First reduction step: returns (x, the d_gamma table), x a sparse
    coordinate dict on the root generators.

    For each allowed root (i, j) take h = e_ii - e_jj, +-(h_min(i,j) + ... +
    h_(max(i,j)-1)) with the sign of j - i, on which the root takes the value
    2; the x_(i,j) coefficient of D(h) then determines the inner correction.
    When D satisfies Leibniz, D - ad x sends the Cartan into the center,
    annihilates the within-block coroots, and stabilizes every root line.
    The coefficient is summed in D's integer columns; each value is an int
    where 2 den divides it, else a Fraction.
    """
    cols, h, den2 = D.cols, q.coroot_index, 2 * D.den
    d_gamma: dict[tuple[int, int], Q] = {}
    x: dict[int, Q] = {}
    for (i, j), pos in q.root_index.items():
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        s = sign * sum(cols[h[k]].get(pos, 0) for k in range(lo, hi))
        d_gamma[(i, j)] = _ratio(s, den2)
        if s:
            x[pos] = _ratio(-s, den2)
    return x, d_gamma


def _residual_failure(q: ParabolicAlgebra, l_part: EndoMatrix) -> str | None:
    """The message of the first failing residual check of
    ``constructive_decompose``, or None when all pass."""
    center_set = set(q.center_indices)
    for jdx, col in enumerate(l_part.cols):
        if not center_set.issuperset(col):
            return f"residual map does not land in the center at column {jdx}"
    for jdx in q.derived_indices:
        if l_part.cols[jdx]:
            return f"residual map does not kill the derived algebra at column {jdx}"
    return None


def constructive_decompose(q: ParabolicAlgebra, D: EndoMatrix) -> DecompositionResult:
    """Split a derivation as l_part + ad(p), p = x + h*, in one pass.

    x is the inner correction read off the Cartan images
    (``root_line_reduction``). h* solves the Cartan-matrix system for the
    eigenvalues c_gamma of D - ad x on the simple root generators, each the
    diagonal entry of D itself: x sits on root generators, of nonzero
    weight, and the table is weight-homogeneous, so ad x has no diagonal
    entry on a root line. l_part = D - ad p must map into the center and
    be zero on the derived algebra. The Leibniz gate runs after the split, when a residual
    check fails or the build's certificates do not hold for q's tuples (``_sum_certified``):
    passing the checks puts D = l_part + ad p in S, and a certified S lies in Der q.
    A map that breaks Leibniz raises NotADerivationError with its first bad
    pair, and a derivation that fails a check raises DecompositionError.

    It runs in integers. x has denominator 2 den and h* = adj(A) c / n
    (``parabolic._cartan_adjugate``) denominator n den, so M = lcm(2, n) den
    clears both; with N the table's denominator, M N l_part =
    (M N / den) (den D) - sum_a (M p_a) int_table[a] is summed in one pass
    over D's integer columns and the table and divided out once
    (``EndoMatrix._canonical``). A scalar is a Fraction only where its
    denominator does not divide it.
    """
    L = q.algebra
    if D.algebra is not L:
        raise ValueError("maps belong to different algebras")
    n, den, cols = q.n, D.den, D.cols

    x, d_gamma = root_line_reduction(q, D)
    c_gamma = {root: _ratio(cols[pos].get(pos, 0), den) for root, pos in q.root_index.items()}

    # h* = sum b_k h_k with alpha_j(h*) = c_gamma(alpha_j); alpha_j(h_k) is
    # the type A Cartan matrix, so n den b = adj(A) (den c_gamma), in ints
    simple = [q.root_index[(k, k + 1)] for k in range(1, n)]
    nb = _cartan_adjugate([cols[pos].get(pos, 0) for pos in simple])
    h_star = {q.coroot_index[k]: _ratio(v, n * den) for k, v in enumerate(nb, 1) if v}
    p = {**x, **h_star}  # x sits on the root generators, h* on the coroots

    # M p in ints: the denominator of each value divides 2 den (x) or n den (h*)
    M = lcm(2, n) * den
    Mp = {pos: v.numerator * (M // v.denominator) for pos, v in p.items()}
    T, N = L.int_table, L.denominator
    a = M * N // den
    l_cols = [{i: a * e for i, e in c.items()} for c in cols]
    for pos, v in Mp.items():
        for j, ks in T[pos].items():
            col = l_cols[j]
            for k, t in ks.items():
                col[k] = col.get(k, 0) - v * t
    l_part = EndoMatrix._canonical(L, l_cols, M * N)

    message = _residual_failure(q, l_part)
    if message is not None or not _sum_certified(q):
        _check_leibniz(L, D)
    if message is not None:
        raise DecompositionError(message, {"d_gamma": d_gamma, "c_gamma": c_gamma,
                                           "h_star": h_star, "p": p})

    return DecompositionResult(
        l_part=l_part,
        p=p,
        d_gamma=d_gamma,
        c_gamma=c_gamma,
        h_star=h_star,
    )


def split_derivation(q: ParabolicAlgebra, D: EndoMatrix) -> tuple[EndoMatrix, EndoMatrix]:
    """Independent projection of a map of S = lid + ad q onto the two summands, with no
    use of the recipe: (center-valued part l, inner part D - l), by Zassenhaus's tag.
    The rows (ad x_a | 0) and (E | E), E a unit of ``l_ideal(q)``, reduce (den D | 0 | 1)
    to (0 | -k den l | k), k > 0, iff D - l lies in ad q; l is unique where lid meets ad q
    in 0, else 0 at the meet's pivots. Every D in S is split, a derivation or not: no gate,
    no certificate. A D outside raises NotADerivationError if it breaks Leibniz, else
    DecompositionError."""
    L = q.algebra
    if D.algebra is not L:
        raise ValueError("maps belong to different algebras")
    d, dd = L.dim, L.dim ** 2
    red = _RowReducer()
    inner_dim = sum(red.add_row(_flat_ad(L, a)) for a in range(d))
    lid = l_ideal(q)
    for E in lid.rows:  # E's entry at c copied to column dd + c
        red.add_row({**E, **{c + dd: e for c, e in E.items()}})
    # no stored row has an entry at column 2 dd, so k there is the product of
    # the pivots the row was multiplied by, each > 0
    rest = red.reduce({j * d + i: e for j, col in enumerate(D.cols) for i, e in col.items()}
                      | {2 * dd: 1})
    k = rest.pop(2 * dd)
    if min(rest, default=dd) < dd:
        _check_leibniz(L, D)
        raise DecompositionError(
            "derivation is not in the sum of the center-valued and inner maps",
            {"l_dim": lid.dim, "inner_dim": inner_dim})
    l_part = EndoMatrix.from_flat(L, {c - dd: -e for c, e in rest.items()}, k * D.den)
    return l_part, D - l_part


# ---------------------------------------------------------------------------
# complexification
# ---------------------------------------------------------------------------

def complexify(L: LieAlgebra) -> tuple[LieAlgebra, EndoMatrix]:
    """Dimension-doubled algebra with an operator J, J^2 = -1.

    Basis: x_1..x_d then J x_1..J x_d, with
    [x + J y, u + J v] = [x,u] - [y,v] + J([x,v] + [y,u]),
    so L embeds as the first d coordinates. Returns (doubled algebra, J).
    """
    d = L.dim
    labels = list(L.labels) + [f"i*{lab}" for lab in L.labels]
    triples = []
    for (i, j, k, v) in L.triples():
        triples.append((i, j, k, v))
        triples.append((i, j + d, k + d, v))
        triples.append((j, i + d, k + d, -v))
        triples.append((i + d, j + d, k, -v))
    hat = LieAlgebra(2 * d, labels, triples)
    # J x_k = x_{k+d} and J x_{k+d} = -x_k
    J = EndoMatrix(hat, [{k + d: 1} for k in range(d)] + [{k: -1} for k in range(d)])
    return hat, J


def extend_derivation(L: LieAlgebra, D: EndoMatrix, hat: LieAlgebra) -> EndoMatrix:
    """Extend a derivation of L to hat = complexify(L)[0], acting blockwise.

    The extension agrees with D on both copies, commutes with J, and
    stabilizes the embedded original algebra.
    """
    _check_leibniz(L, D)
    d = L.dim
    cols = list(D.cols) + [{i + d: e for i, e in c.items()} for c in D.cols]
    return EndoMatrix(hat, cols, D.den)


def random_combination(L: LieAlgebra, space: Subspace, rng) -> EndoMatrix:
    """A map of L drawn as a combination of the RREF basis of space, a
    subspace of L's maps, with coefficients from -9 to 9."""
    d = L.dim
    if space.ambient_dim != d * d:
        raise ValueError("ambient dimensions differ")
    den = lcm(*(next(iter(row.values())) for row in space.rows))  # of the pivots
    cols: list[dict[int, int]] = [{} for _ in range(d)]
    for row in space.rows:
        c = rng.randint(-9, 9) * (den // next(iter(row.values())))
        if c:
            for f, e in row.items():
                col = cols[f // d]
                col[f % d] = col.get(f % d, 0) + c * e
    return EndoMatrix._canonical(L, cols, den)
