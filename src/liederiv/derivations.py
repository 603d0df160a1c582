"""Derivation algebras of block parabolics: oracle, decomposition, theorem checks.

Three independent routes to the same objects meet here. The oracle computes
Der q as the exact kernel of the Leibniz system in the dim^2 matrix unknowns.
The structural route builds the ideal of center-valued maps killing the
derived algebra, plus the span of the adjoint maps. The constructive route
peels an arbitrary derivation into those two pieces explicitly: first an
inner correction read off the Cartan images, then a Cartan element from the
simple-root eigenvalues by the closed-form inverse of the type A Cartan
matrix, leaving a map into the center.

Every map is an ``EndoMatrix`` of sparse columns, and every vector of q a
sparse coordinate dict, from the input to the JSON payload, which alone
writes them out dense. In endomorphism space a map is flattened
column-major (entry (i, j) at index j*dim + i), fixed package-wide so
subspaces of maps are comparable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .lie import EndoMatrix, LieAlgebra, ad_matrix, first_leibniz_violation
from .linalg import Q, Subspace, contains, is_direct_sum, nullspace_of_rows, solve
from .parabolic import ParabolicAlgebra

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
    "cartan_solve",
    "split_derivation",
    "dimension_formula",
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


def _algebra_of(q) -> LieAlgebra:
    return q.algebra if isinstance(q, ParabolicAlgebra) else q


def _integral(row: dict) -> dict[int, int]:
    """A sparse row times the common denominator of its entries, as ints."""
    den = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in row.items()}


def derivation_algebra(L: LieAlgebra | ParabolicAlgebra) -> Subspace:
    """Der L as a subspace of endomorphism space (ambient dim = dim^2).

    Kernel of the Leibniz system
    d([x_i,x_j]) - [d x_i, x_j] - [x_i, d x_j] = 0 over all i < j,
    one scalar equation per output coordinate. Every coefficient of an
    equation is a signed sum of structure constants, so multiplying all
    constants by their common denominator N > 0 multiplies each equation by
    N and leaves the kernel exactly as it is; the rows are then integers
    (and N = 1 for a parabolic at root_scale 1).
    """
    L = _algebra_of(L)
    d = L.dim
    T = L.int_table  # N times the constants; same kernel, see above
    # rowmap[j][l] = entries (m, val) with val = coefficient of x_l in [x_m, x_j]
    rowmap: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(d)]
    for m, ad_m in enumerate(T):
        for j, ks in ad_m.items():
            for k, v in ks.items():
                rowmap[j].setdefault(k, []).append((m, v))

    def rows():
        for i in range(d):
            for j in range(i + 1, d):
                cdict = T[i].get(j, {})
                if cdict:
                    lset = range(d)
                else:
                    lset = sorted(rowmap[i].keys() | rowmap[j].keys())
                for l in lset:
                    row: dict[int, int] = {}
                    for k, v in cdict.items():
                        idx = k * d + l  # coefficient of D_{l,k}
                        row[idx] = row.get(idx, 0) + v
                    # [d x_i, x_j]_l = sum_m D_{m,i} c_{mj}^l enters negatively
                    for (m, v) in rowmap[j].get(l, ()):
                        idx = i * d + m
                        row[idx] = row.get(idx, 0) - v
                    # [x_i, d x_j]_l = sum_m D_{m,j} c_{im}^l = -sum_m D_{m,j} c_{mi}^l
                    for (m, v) in rowmap[i].get(l, ()):
                        idx = j * d + m
                        row[idx] = row.get(idx, 0) + v
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        yield row

    return nullspace_of_rows(d * d, rows())


def inner_derivations(q: ParabolicAlgebra | LieAlgebra) -> Subspace:
    """Span of the adjoint maps of all basis elements.

    ``int_table[a]`` is N ad x_a as sparse columns, the table ``ad_matrix``
    reads; flattened (column b at index b*d + k) they span the same
    subspace as the ad x_a themselves.
    """
    L = _algebra_of(q)
    d = L.dim
    ads = [{b * d + k: v for b, ks in ad_a.items() for k, v in ks.items()} for ad_a in L.int_table]
    return Subspace.from_sparse(d * d, ads)


def l_ideal(q: ParabolicAlgebra) -> Subspace:
    """Maps sending the center + c block into the center, zero on the derived
    algebra: the span of the elementary matrices E(z, u) in the adapted basis."""
    d = q.algebra.dim
    vectors = []
    for z in q.center_indices:
        for u in list(q.center_indices) + q.c.pivots():
            vectors.append({u * d + z: Q(1)})
    return Subspace.from_sparse(d * d, vectors)


def dimension_formula(center_dim: int, simple_count: int, selected_count: int, dim_qs: int) -> int:
    """(center_dim + simple_count - selected_count) * center_dim + dim_qs."""
    if selected_count > simple_count:
        raise ValueError("selected simple roots exceed the simple root count")
    if min(center_dim, simple_count, selected_count, dim_qs) < 0:
        raise ValueError("arguments must be nonnegative")
    return (center_dim + simple_count - selected_count) * center_dim + dim_qs


@dataclass
class VerificationReport:
    """Outcome of the full decomposition check for one parabolic."""

    der_dim: int
    l_dim: int
    inner_dim: int
    h1_dim: int
    direct_sum_ok: bool
    l_is_ideal_ok: bool
    inner_is_ideal_ok: bool
    formula_ok: bool
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return (
            self.direct_sum_ok
            and self.l_is_ideal_ok
            and self.inner_is_ideal_ok
            and self.formula_ok
        )

    def to_json_dict(self) -> dict:
        out = {
            "der_dim": self.der_dim,
            "l_dim": self.l_dim,
            "inner_dim": self.inner_dim,
            "h1_dim": self.h1_dim,
            "direct_sum_ok": self.direct_sum_ok,
            "l_is_ideal_ok": self.l_is_ideal_ok,
            "inner_is_ideal_ok": self.inner_is_ideal_ok,
            "formula_ok": self.formula_ok,
            "ok": self.ok,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def verify_main_theorem(q: ParabolicAlgebra, der: Subspace | None = None) -> VerificationReport:
    """Check Der q = (center-valued maps) + (inner maps) as a sum of ideals.

    (a) the two spans add up to the oracle kernel, (b) they intersect
    trivially, (c) both are closed under commutator with every oracle basis
    derivation D, (d) the dimension formula matches the oracle.

    For (c), the center-valued maps are closed under [D, -] exactly when D
    maps the center and the derived algebra into themselves. The inner maps
    are closed because [D, ad x] = ad(Dx) for any D that passes
    first_leibniz_violation; only a D that fails it has each [D, ad x_i]
    tested for membership in ad q. Every check runs; the witness is the
    first failure in the order (a)/(b), (d), then the two closures.
    """
    L = q.algebra
    d = L.dim
    if der is None:
        der = derivation_algebra(L)
    inner = inner_derivations(q)
    lid = l_ideal(q)

    # with lid + inner == der, the intersection is 0 iff the dimensions add up
    direct_sum = None if is_direct_sum([lid, inner], der) else {"kind": "direct_sum"}

    datum = q.root_datum
    expected = dimension_formula(
        len(q.center_indices),
        len(datum.delta),
        len(datum.delta_prime),
        q.semisimple_part.dim,
    )
    formula = None
    if expected != der.dim:
        formula = {"kind": "formula", "expected": expected, "oracle": der.dim}

    # [D, l_ideal] stays in l_ideal iff D keeps g_z and derived, as q = g_z + c + derived
    kept = [
        (name, space, vi, _integral(v))
        for name, space in (("g_z", q.g_z), ("derived", q.derived))
        for vi, v in enumerate(space.rows)
    ]
    l_closure = inner_closure = None
    for di, flat in enumerate(der.rows):
        # a positive multiple of D, with integer entries, passes each check
        # below exactly when D does
        D = EndoMatrix.from_flat(L, _integral(flat))
        if l_closure is None:
            for name, space, vi, v in kept:
                if not contains(space, D.apply(v)):
                    l_closure = {"kind": "l_closure", "der_index": di,
                                 "subspace": name, "vector_index": vi}
                    break
        if inner_closure is None and first_leibniz_violation(L, D) is not None:
            for i in range(d):
                A = ad_matrix(L, {i: 1})
                comm = EndoMatrix(L, map(D.apply, A.cols)) - EndoMatrix(L, map(A.apply, D.cols))
                if not contains(inner, comm.flat()):
                    inner_closure = {"kind": "inner_closure", "der_index": di, "basis_index": i}
                    break

    witnesses = (direct_sum, formula, l_closure, inner_closure)
    return VerificationReport(
        der_dim=der.dim,
        l_dim=lid.dim,
        inner_dim=inner.dim,
        h1_dim=der.dim - inner.dim,
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
        d = self.l_part.algebra.dim
        return {
            "l_part": [[str(e) for e in row] for row in self.l_part.dense_rows()],
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
) -> tuple[dict[int, Q], EndoMatrix, dict[tuple[int, int], Q]]:
    """First reduction step: returns (x, D - ad x, the d_gamma table), x as
    a sparse coordinate dict.

    For each allowed root (i, j) pick h = e_ii - e_jj, on which the root
    takes the value 2; the coefficient of the root generator in D(h) then
    determines the inner correction. When D satisfies Leibniz, the reduced
    map sends the Cartan into the center, annihilates the within-block
    coroots, and stabilizes every root line.
    """
    d_gamma: dict[tuple[int, int], Q] = {}
    x: dict[int, Q] = {}
    for root in q.roots:
        pos = q.root_index[root]
        h = q.cartan_element_for_root(root)
        dg = sum((D.cols[k].get(pos, 0) * c for k, c in h.items()), Q(0)) / 2
        d_gamma[root] = dg
        if dg:
            x[pos] = -dg
    return x, D - ad_matrix(q.algebra, x), d_gamma


def cartan_solve(c) -> list[Q]:
    """The b with A b = c for the type A Cartan matrix A of size len(c).

    With n = len(c) + 1, A^-1 has entries min(j, k) (n - max(j, k)) / n,
    1 <= j, k <= n - 1, so b is read off without elimination.
    """
    n = len(c) + 1
    return [
        sum((Q(min(j, k) * (n - max(j, k)), n) * ck for k, ck in enumerate(c, 1)), Q(0))
        for j in range(1, n)
    ]


def constructive_decompose(q: ParabolicAlgebra, D: EndoMatrix) -> DecompositionResult:
    """Split a derivation as l_part + ad(p) following the explicit recipe.

    Step 1 removes the root-generator components of the Cartan images with
    an inner correction ad(x). Step 2 reads the eigenvalue of the reduced
    map on each simple root generator and solves the Cartan-matrix system
    for an element h* with matching root values; subtracting ad(h*) then
    kills the whole derived algebra. What remains maps into the center and
    is zero on the derived algebra, which is verified and enforced.
    """
    L = q.algebra
    _check_leibniz(L, D)
    n = q.composition.n

    x, Dp, d_gamma = root_line_reduction(q, D)

    c_gamma: dict[tuple[int, int], Q] = {}
    for root in q.roots:
        pos = q.root_index[root]
        c_gamma[root] = Dp.cols[pos].get(pos, Q(0))

    # h* = sum b_k h_k with alpha_j(h*) = c_gamma(alpha_j); alpha_j(h_k) is
    # the type A Cartan matrix
    b = cartan_solve([c_gamma[(k, k + 1)] for k in range(1, n)])
    h_star = {q.coroot_index[k]: bk for k, bk in enumerate(b, 1) if bk}

    l_part = Dp - ad_matrix(L, h_star)
    p = {**x, **h_star}  # x sits on the root generators, h* on the coroots

    diagnostics = {
        "d_gamma": d_gamma,
        "c_gamma": c_gamma,
        "h_star": h_star,
        "p": p,
    }
    center_set = set(q.center_indices)
    for jdx, col in enumerate(l_part.cols):
        if any(i not in center_set for i in col):
            raise DecompositionError(
                f"residual map does not land in the center at column {jdx}", diagnostics
            )
    for jdx in q.derived.pivots():
        if l_part.cols[jdx]:
            raise DecompositionError(
                f"residual map does not kill the derived algebra at column {jdx}", diagnostics
            )
    if center_set & p.keys():
        raise DecompositionError("inner element has a central component", diagnostics)

    return DecompositionResult(
        l_part=l_part,
        p=p,
        d_gamma=d_gamma,
        c_gamma=c_gamma,
        h_star=h_star,
    )


def split_derivation(
    q: ParabolicAlgebra,
    D: EndoMatrix,
    lid: Subspace | None = None,
    inner: Subspace | None = None,
) -> tuple[EndoMatrix, EndoMatrix]:
    """Independent projection of a derivation onto the two summands.

    Solves for coordinates in the concatenated basis of the center-valued
    ideal and the inner maps; no use of the constructive recipe. Returns the
    (center-valued component, inner component). A map outside the sum
    raises NotADerivationError if it fails Leibniz, else DecompositionError.
    """
    L = q.algebra
    if lid is None:
        lid = l_ideal(q)
    if inner is None:
        inner = inner_derivations(q)
    # one equation per flat coordinate i: sum_k lam_k basis_k[i] = D[i]
    system: dict[int, dict[int, Q]] = {}
    for k, row in enumerate(lid.rows + inner.rows):
        for i, e in row.items():
            system.setdefault(i, {})[k] = e
    flat = D.flat()
    keys = sorted(system.keys() | flat.keys())
    lam = solve(
        lid.dim + inner.dim, [system.get(i, {}) for i in keys], [flat.get(i, 0) for i in keys]
    )
    if lam is None:
        _check_leibniz(L, D)
        raise DecompositionError(
            "derivation is not in the sum of the center-valued and inner maps",
            {"l_dim": lid.dim, "inner_dim": inner.dim},
        )
    l_part = EndoMatrix.from_flat(L, lid.combination({k: c for k, c in lam.items() if k < lid.dim}))
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
    J = EndoMatrix(hat, [{k + d: Q(1)} for k in range(d)] + [{k: Q(-1)} for k in range(d)])
    return hat, J


def extend_derivation(L: LieAlgebra, D: EndoMatrix, hat: LieAlgebra | None = None) -> EndoMatrix:
    """Extend a derivation of L to the doubled algebra, acting blockwise.

    The extension agrees with D on both copies, commutes with J, and
    stabilizes the embedded original algebra.
    """
    _check_leibniz(L, D)
    if hat is None:
        hat, _ = complexify(L)
    d = L.dim
    return EndoMatrix(hat, list(D.cols) + [{i + d: e for i, e in c.items()} for c in D.cols])


def random_combination(space: Subspace, rng, lo: int = -9, hi: int = 9) -> dict[int, Q]:
    """Integer random combination of the canonical basis of a subspace, as
    a sparse vector in the ``rows`` format; summed over a common denominator."""
    den = lcm(*(e.denominator for row in space.rows for e in row.values()))
    out: dict[int, int] = {}
    for row in space.rows:
        c = rng.randint(lo, hi)
        if c:
            for i, e in row.items():
                out[i] = out.get(i, 0) + c * e.numerator * (den // e.denominator)
    return {i: Q(v, den) for i, v in out.items() if v}
