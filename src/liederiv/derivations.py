"""Derivation algebras of block parabolics: oracle, decomposition, theorem checks.

Three independent routes to the same objects meet here. The oracle computes
Der q as the exact kernel of the Leibniz system in the dim^2 matrix unknowns.
The structural route builds the ideal of center-valued maps killing the
derived algebra, plus the span of the adjoint maps. The constructive route
peels an arbitrary derivation into those two pieces explicitly: first an
inner correction read off the Cartan images, then a Cartan element solved
from the simple-root eigenvalues, leaving a map into the center.

Endomorphisms are flattened column-major (image of basis j stacked), fixed
package-wide so subspaces of endomorphism space are comparable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .lie import (
    Element,
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    first_leibniz_violation,
)
from .linalg import (
    Matrix,
    Q,
    Subspace,
    Vector,
    contains,
    dense_vector,
    is_direct_sum,
    nullspace_of_rows,
    solve,
)
from .parabolic import ParabolicAlgebra

__all__ = [
    "NotADerivationError",
    "DecompositionError",
    "DerivationMatrix",
    "DecompositionResult",
    "VerificationReport",
    "flatten_endo",
    "unflatten_endo",
    "derivation_algebra",
    "inner_derivations",
    "l_ideal",
    "verify_main_theorem",
    "constructive_decompose",
    "root_line_reduction",
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


def flatten_endo(m: Matrix) -> Vector:
    """Column-major flattening: entry (i, j) lands at position j*dim + i."""
    if m.rows != m.cols:
        raise ValueError("only square endomorphisms are flattened")
    d = m.rows
    return tuple(m.at(i, j) for j in range(d) for i in range(d))


def unflatten_endo(dim: int, flat) -> Matrix:
    flat = tuple(flat)
    if len(flat) != dim * dim:
        raise ValueError("flattened length does not match dimension")
    return Matrix(dim, dim, [flat[j * dim + i] for i in range(dim) for j in range(dim)])


@dataclass(frozen=True)
class DerivationMatrix:
    """An endomorphism checked to satisfy the Leibniz identity."""

    endo: EndoMatrix

    def __post_init__(self):
        viol = first_leibniz_violation(self.endo.algebra, self.endo.matrix)
        if viol is not None:
            raise NotADerivationError(viol)

    @classmethod
    def from_matrix(cls, L: LieAlgebra, m: Matrix) -> DerivationMatrix:
        return cls(EndoMatrix(L, m))

    @property
    def matrix(self) -> Matrix:
        return self.endo.matrix


def _algebra_of(q) -> LieAlgebra:
    return q.algebra if isinstance(q, ParabolicAlgebra) else q


def _integer_table(L: LieAlgebra) -> dict[tuple[int, int], dict[int, int]]:
    """The structure constants times N, their common denominator, as ints."""
    N = lcm(*(v.denominator for ks in L.table.values() for v in ks.values()))
    return {p: {k: v.numerator * (N // v.denominator) for k, v in ks.items()}
            for p, ks in L.table.items()}


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
    table = _integer_table(L)  # N times the constants; same kernel, see above
    # rowmap[j][l] = entries (m, val) with val = coefficient of x_l in [x_m, x_j]
    rowmap: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(d)]
    for (a, b), ks in table.items():
        for k, v in ks.items():
            rowmap[b].setdefault(k, []).append((a, v))
            rowmap[a].setdefault(k, []).append((b, -v))

    def rows():
        for i in range(d):
            for j in range(i + 1, d):
                cdict = table.get((i, j), {})
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

    Each ad x_a is written flattened and sparse, straight from the table:
    column b is [x_a, x_b], at index b*d + k. The constants are scaled to
    integers as in derivation_algebra, which rescales every ad map alike
    and so spans the same subspace.
    """
    L = _algebra_of(q)
    d = L.dim
    ads: list[dict[int, int]] = [{} for _ in range(d)]
    for (a, b), ks in _integer_table(L).items():
        for k, v in ks.items():
            ads[a][b * d + k] = v
            ads[b][a * d + k] = -v
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
        # D as d sparse integer columns: flat index j*d + i is column j, row i.
        # A positive multiple of D passes each check below exactly when D does.
        cols: list[dict[int, int]] = [{} for _ in range(d)]
        for f, e in _integral(flat).items():
            cols[f // d][f % d] = e
        if l_closure is None:
            for name, space, vi, v in kept:
                image: dict[int, int] = {}  # D v, over the support of v
                for t, c in v.items():
                    for i, e in cols[t].items():
                        image[i] = image.get(i, 0) + c * e
                if not contains(space, image):
                    l_closure = {"kind": "l_closure", "der_index": di,
                                 "subspace": name, "vector_index": vi}
                    break
        if inner_closure is None and first_leibniz_violation(L, cols) is not None:
            D = unflatten_endo(d, dense_vector(d * d, flat))
            for i in range(d):
                A = ad_matrix(L.basis_element(i)).matrix
                if not contains(inner, flatten_endo(D * A - A * D)):
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
    """D = l_part + ad(p), with the scalars read off along the way."""

    l_part: EndoMatrix
    p: Element
    d_gamma: dict[tuple[int, int], Q]
    c_gamma: dict[tuple[int, int], Q]
    h_star: Element

    def to_json_dict(self) -> dict:
        return {
            "l_part": [[str(e) for e in row] for row in self.l_part.matrix.tolist()],
            "p": [str(e) for e in self.p.coords],
            "d_gamma": [[i, j, str(v)] for (i, j), v in sorted(self.d_gamma.items())],
            "c_gamma": [[i, j, str(v)] for (i, j), v in sorted(self.c_gamma.items())],
            "h_star": [str(e) for e in self.h_star.coords],
        }


def _as_matrix(q: ParabolicAlgebra, D) -> Matrix:
    if isinstance(D, DerivationMatrix):
        return D.matrix
    if isinstance(D, EndoMatrix):
        return D.matrix
    if isinstance(D, Matrix):
        return D
    raise TypeError("expected a DerivationMatrix, EndoMatrix, or Matrix")


def root_line_reduction(q: ParabolicAlgebra, D) -> tuple[Vector, Matrix, dict[tuple[int, int], Q]]:
    """First reduction step: returns (x, D - ad x, the d_gamma table).

    For each allowed root (i, j) pick h = e_ii - e_jj, on which the root
    takes the value 2; the coefficient of the root generator in D(h) then
    determines the inner correction. When D satisfies Leibniz, the reduced
    map sends the Cartan into the center, annihilates the within-block
    coroots, and stabilizes every root line.
    """
    L = q.algebra
    m = _as_matrix(q, D)
    d = L.dim
    d_gamma: dict[tuple[int, int], Q] = {}
    x = [Q(0)] * d
    for root in q.roots:
        pos = q.root_index[root]
        h = q.cartan_element_for_root(root)
        dg = sum((m.at(pos, k) * c for k, c in enumerate(h) if c), Q(0)) / 2
        d_gamma[root] = dg
        x[pos] -= dg
    adx = ad_matrix(L.element(x))
    return tuple(x), m - adx.matrix, d_gamma


def constructive_decompose(q: ParabolicAlgebra, D) -> DecompositionResult:
    """Split a derivation as l_part + ad(p) following the explicit recipe.

    Step 1 removes the root-generator components of the Cartan images with
    an inner correction ad(x). Step 2 reads the eigenvalue of the reduced
    map on each simple root generator and solves the Cartan-matrix system
    for an element h* with matching root values; subtracting ad(h*) then
    kills the whole derived algebra. What remains maps into the center and
    is zero on the derived algebra, which is verified and enforced.
    """
    L = q.algebra
    m = _as_matrix(q, D)
    if not isinstance(D, DerivationMatrix):
        viol = first_leibniz_violation(L, m)
        if viol is not None:
            raise NotADerivationError(viol)
    d = L.dim
    n = q.composition.n

    x, Dp, d_gamma = root_line_reduction(q, m)

    c_gamma: dict[tuple[int, int], Q] = {}
    for root in q.roots:
        pos = q.root_index[root]
        c_gamma[root] = Dp.at(pos, pos)

    h_star = [Q(0)] * d
    if n > 1:
        # alpha_k(h_m) is the type A Cartan matrix
        size = n - 1
        cartan = Matrix(
            size,
            size,
            [
                2 if k == mm else (-1 if abs(k - mm) == 1 else 0)
                for k in range(size)
                for mm in range(size)
            ],
        )
        rhs = [c_gamma[(k, k + 1)] for k in range(1, n)]
        b = solve(cartan, rhs)
        if b is None:  # invertible system; cannot happen
            raise DecompositionError("Cartan system inconsistent", {"rhs": rhs})
        for k in range(1, n):
            h_star[q.coroot_index[k]] = b[k - 1]

    adh = ad_matrix(L.element(h_star))
    l_mat = Dp - adh.matrix
    p = tuple(a + b for a, b in zip(x, h_star))

    diagnostics = {
        "d_gamma": d_gamma,
        "c_gamma": c_gamma,
        "h_star": h_star,
        "p": p,
    }
    center_set = set(q.center_indices)
    for jdx in range(d):
        col = l_mat.col(jdx)
        if any(col[i] for i in range(d) if i not in center_set):
            raise DecompositionError(
                f"residual map does not land in the center at column {jdx}", diagnostics
            )
    for jdx in q.derived.pivots():
        if any(l_mat.col(jdx)):
            raise DecompositionError(
                f"residual map does not kill the derived algebra at column {jdx}", diagnostics
            )
    if any(p[i] for i in center_set):
        raise DecompositionError("inner element has a central component", diagnostics)

    return DecompositionResult(
        l_part=EndoMatrix(L, l_mat),
        p=L.element(p),
        d_gamma=d_gamma,
        c_gamma=c_gamma,
        h_star=L.element(h_star),
    )


def split_derivation(
    q: ParabolicAlgebra,
    D,
    lid: Subspace | None = None,
    inner: Subspace | None = None,
) -> tuple[Matrix, Matrix]:
    """Independent projection of a derivation onto the two summands.

    Solves for coordinates in the concatenated basis of the center-valued
    ideal and the inner maps; no use of the constructive recipe. Returns the
    (center-valued component, inner component) as matrices.
    """
    L = q.algebra
    m = _as_matrix(q, D)
    d = L.dim
    if lid is None:
        lid = l_ideal(q)
    if inner is None:
        inner = inner_derivations(q)
    basis = lid.vectors() + inner.vectors()
    cols = len(basis)
    flat = flatten_endo(m)
    system = Matrix(d * d, cols, [basis[k][i] for i in range(d * d) for k in range(cols)])
    lam = solve(system, flat)
    if lam is None:
        raise NotADerivationError(first_leibniz_violation(L, m) or (0, 0))
    l_comp = unflatten_endo(d, lid.combination(lam[: lid.dim]))
    return l_comp, m - l_comp


# ---------------------------------------------------------------------------
# complexification
# ---------------------------------------------------------------------------

def complexify(L: LieAlgebra) -> tuple[LieAlgebra, Matrix, EndoMatrix]:
    """Dimension-doubled algebra with an operator J, J^2 = -1.

    Basis: x_1..x_d then J x_1..J x_d, with
    [x + J y, u + J v] = [x,u] - [y,v] + J([x,v] + [y,u]).
    Returns (doubled algebra, embedding matrix of L, J).
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
    embed = Matrix(2 * d, d, [1 if i == j else 0 for i in range(2 * d) for j in range(d)])
    jflat = [Q(0)] * (4 * d * d)
    for k in range(d):
        jflat[(k + d) * 2 * d + k] = Q(1)   # J x_k = x_{k+d}
        jflat[k * 2 * d + (k + d)] = Q(-1)  # J x_{k+d} = -x_k
    J = EndoMatrix(hat, Matrix(2 * d, 2 * d, jflat))
    return hat, embed, J


def extend_derivation(L: LieAlgebra, D, hat: LieAlgebra | None = None) -> EndoMatrix:
    """Extend a derivation of L to the doubled algebra, acting blockwise.

    The extension agrees with D on both copies, commutes with J, and
    stabilizes the embedded original algebra.
    """
    m = D.matrix if isinstance(D, (EndoMatrix, DerivationMatrix)) else D
    viol = first_leibniz_violation(L, m)
    if viol is not None:
        raise NotADerivationError(viol)
    if hat is None:
        hat, _, _ = complexify(L)
    d = L.dim
    flat = [Q(0)] * (4 * d * d)
    for i in range(d):
        for j in range(d):
            e = m.at(i, j)
            if e:
                flat[i * 2 * d + j] = e
                flat[(i + d) * 2 * d + (j + d)] = e
    return EndoMatrix(hat, Matrix(2 * d, 2 * d, flat))


def random_combination(space: Subspace, rng, lo: int = -9, hi: int = 9) -> Vector:
    """Integer random combination of the canonical basis of a subspace."""
    return space.combination([rng.randint(lo, hi) for _ in space.rows])
