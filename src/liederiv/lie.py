"""Lie algebras as labeled bases with sparse structure-constant tables.

An algebra is a dimension, a tuple of basis labels, and a table of triples
(i, j, k, value) meaning [x_i, x_j] = sum_k value * x_k. Only i < j pairs are
stored canonically; the i > j half is implied by antisymmetry and i = j is
zero. The raw input triples are kept so that defective tables can be
diagnosed instead of silently repaired.

Brackets of general vectors take sparse coordinate dicts (index -> value),
the format of ``Subspace.rows``; ``bracket`` converts Elements at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Matrix, Q, Subspace, Vector, dense_vector, nullspace_of_rows, vec

__all__ = [
    "LieAlgebra",
    "Element",
    "EndoMatrix",
    "ValidationReport",
    "validate_structure",
    "bracket",
    "bracket_span",
    "center",
    "ad_matrix",
    "restrict",
    "is_derivation",
    "first_leibniz_violation",
]


class LieAlgebra:
    __slots__ = ("dim", "labels", "table", "_raw", "_adj")

    def __init__(self, dim: int, labels, triples):
        labels = tuple(labels) if labels is not None else tuple(f"x{i}" for i in range(dim))
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        raw: list[tuple[int, int, int, Q]] = []
        lower: dict[tuple[int, int, int], Q] = {}
        upper: dict[tuple[int, int, int], Q] = {}
        for (i, j, k, v) in triples:
            v = Q(v)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"triple ({i},{j},{k}) out of range for dim {dim}")
            raw.append((i, j, k, v))
            if v == 0 or i == j:
                continue
            if i < j:
                lower[(i, j, k)] = lower.get((i, j, k), Q(0)) + v
            else:
                # i > j: antisymmetry implies the i < j entry; explicit i < j
                # triples take precedence (conflicts surface in validation)
                upper[(j, i, k)] = upper.get((j, i, k), Q(0)) - v
        table: dict[tuple[int, int], dict[int, Q]] = {}
        for key, v in {**upper, **lower}.items():
            if v != 0:
                i, j, k = key
                table.setdefault((i, j), {})[k] = v
        self.dim = dim
        self.labels = labels
        self.table = table
        self._raw = tuple(raw)
        self._adj: dict[int, list[tuple[int, int, dict[int, Q]]]] | None = None

    def triples(self) -> list[tuple[int, int, int, Q]]:
        """Canonical i < j triples, sorted."""
        out = []
        for (i, j), ks in self.table.items():
            for k, v in ks.items():
                out.append((i, j, k, v))
        out.sort(key=lambda t: (t[0], t[1], t[2]))
        return out

    def bracket_coords(self, i: int, j: int) -> dict[int, Q]:
        """Sparse coordinates of [x_i, x_j]."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -v for k, v in self.table.get((j, i), {}).items()}

    def bracket_sparse(self, x: dict[int, Q], y: dict[int, Q]) -> dict[int, Q]:
        """Bilinear extension of the table to sparse coordinate dicts
        (index -> value, as in ``Subspace.rows``); zero entries are dropped."""
        out: dict[int, Q] = {}
        for i, a in x.items():
            for j, b in y.items():
                if i < j:
                    ks, c = self.table.get((i, j)), a * b
                elif i > j:
                    ks, c = self.table.get((j, i)), -a * b
                else:
                    continue
                if ks:
                    for k, v in ks.items():
                        out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def adjacency(self) -> dict[int, list[tuple[int, int, dict[int, Q]]]]:
        """For each j, the pairs (partner i, sign, coords of [x_i, x_j])."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int, dict[int, Q]]]] = {m: [] for m in range(self.dim)}
            for (i, j), ks in self.table.items():
                adj[j].append((i, 1, ks))
                adj[i].append((j, -1, ks))
            self._adj = adj
        return self._adj

    def element(self, coords) -> Element:
        return Element(self, vec(coords))

    def basis_element(self, i: int) -> Element:
        return Element(self, tuple(Q(1) if j == i else Q(0) for j in range(self.dim)))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": list(self.labels),
            "sc": [[i, j, k, str(v)] for (i, j, k, v) in self.triples()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> LieAlgebra:
        return cls(
            data["dim"],
            data.get("basis"),
            [(i, j, k, Q(v)) for (i, j, k, v) in data["sc"]],
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}, {len(self.table)} bracket pairs)"


@dataclass(frozen=True)
class Element:
    algebra: LieAlgebra
    coords: Vector

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def __add__(self, other: Element) -> Element:
        self._same(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Element) -> Element:
        self._same(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, a) -> Element:
        a = Q(a)
        return Element(self.algebra, tuple(a * c for c in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _same(self, other: Element) -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")


@dataclass(frozen=True)
class EndoMatrix:
    """A linear endomorphism in the algebra basis; column j is the image of x_j."""

    algebra: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        d = self.algebra.dim
        if self.matrix.rows != d or self.matrix.cols != d:
            raise ValueError("endomorphism shape does not match algebra dimension")

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise ValueError("element belongs to a different algebra")
        return Element(self.algebra, self.matrix.mul_vec(x.coords))

    def __add__(self, other: EndoMatrix) -> EndoMatrix:
        return EndoMatrix(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: EndoMatrix) -> EndoMatrix:
        return EndoMatrix(self.algebra, self.matrix - other.matrix)


@dataclass
class ValidationReport:
    antisymmetry_violations: list[tuple[int, int, int]] = field(default_factory=list)
    jacobi_violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations


def validate_structure(L: LieAlgebra) -> ValidationReport:
    """Check the raw table for antisymmetry defects and the Jacobi identity.

    Antisymmetry defects are reported at the i < j orientation; alternation
    defects ([x_i, x_i] != 0) are reported as (i, i, k).
    """
    report = ValidationReport()
    given: dict[tuple[int, int, int], Q] = {}
    for (i, j, k, v) in L._raw:
        given[(i, j, k)] = given.get((i, j, k), Q(0)) + v
    bad = set()
    for (i, j, k), v in given.items():
        if i == j:
            if v != 0:
                bad.add((i, j, k))
        elif i < j and (j, i, k) in given and v != -given[(j, i, k)]:
            bad.add((i, j, k))
    report.antisymmetry_violations = sorted(bad)

    touched = sorted({i for p in L.table for i in p})
    # Jacobi can only fail on triples meeting the table support
    for ai in range(len(touched)):
        for bi in range(ai + 1, len(touched)):
            for ci in range(bi + 1, len(touched)):
                i, j, k = touched[ai], touched[bi], touched[ci]
                acc: dict[int, Q] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = L.bracket_coords(a, b)
                    for m, v in inner.items():
                        outer = L.bracket_coords(m, c)
                        for t, w in outer.items():
                            acc[t] = acc.get(t, Q(0)) + v * w
                if any(v != 0 for v in acc.values()):
                    report.jacobi_violations.append((i, j, k))
    report.jacobi_violations.sort()
    return report


def bracket(x: Element, y: Element) -> Element:
    if x.algebra is not y.algebra:
        raise ValueError("elements belong to different algebras")
    L = x.algebra
    w = L.bracket_sparse(
        {i: v for i, v in enumerate(x.coords) if v}, {j: v for j, v in enumerate(y.coords) if v}
    )
    return Element(L, dense_vector(L.dim, w))


def bracket_span(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of all brackets of basis vectors of a with those of b."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    return Subspace.from_sparse(L.dim, [L.bracket_sparse(u, v) for u in a.rows for v in b.rows])


def center(L: LieAlgebra) -> Subspace:
    """Joint kernel of all ad maps: {z : [z, x_j] = 0 for every basis x_j}."""
    rows = []
    for j in range(L.dim):
        per_k: dict[int, dict[int, Q]] = {}
        for (i, sign, ks) in L.adjacency()[j]:
            for k, v in ks.items():
                per_k.setdefault(k, {})[i] = sign * v
        rows.extend(per_k.values())
    return nullspace_of_rows(L.dim, rows)


def ad_matrix(x: Element) -> EndoMatrix:
    """The map y -> [x, y] as a matrix (column j = coords of [x, x_j])."""
    L = x.algebra
    d = L.dim
    flat = [Q(0)] * (d * d)
    for (i, j), ks in L.table.items():
        xi, xj = x.coords[i], x.coords[j]
        if xi:
            for k, v in ks.items():
                flat[k * d + j] += xi * v
        if xj:
            for k, v in ks.items():
                flat[k * d + i] -= xj * v
    return EndoMatrix(L, Matrix(d, d, flat))


def restrict(L: LieAlgebra, s: Subspace, labels=None) -> LieAlgebra:
    """The algebra induced on a bracket-closed subspace.

    Coordinates are taken against the canonical basis of s, so the induced
    table is deterministic. Raises if some bracket of basis vectors escapes
    s, naming the offending pair.
    """
    if s.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    rows = s.rows
    if labels is None:
        labels = tuple(L.labels[p] for p in s.pivots())
    triples = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            coords = s.coordinates_of(L.bracket_sparse(rows[a], rows[b]))
            if coords is None:
                raise ValueError(
                    f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
                )
            for k, v in enumerate(coords):
                if v:
                    triples.append((a, b, k, v))
    return LieAlgebra(len(rows), labels, triples)


def first_leibniz_violation(L: LieAlgebra, m) -> tuple[int, int] | None:
    """First pair (i, j), i < j, where m breaks the Leibniz identity, if any.

    m is a dim x dim ``Matrix`` or its list of dim sparse columns: column j
    is a dict row index -> value (int or Fraction) holding the image of x_j.
    Both forms give the same answer.
    """
    d = L.dim
    if isinstance(m, Matrix):
        if m.rows != d or m.cols != d:
            raise ValueError("matrix shape does not match algebra dimension")
        cols = [{t: e for t, e in enumerate(m.col(j)) if e} for j in range(d)]
    else:
        cols = list(m)
        if len(cols) != d:
            raise ValueError("column count does not match algebra dimension")
    table = L.table
    for i in range(d):
        for j in range(i + 1, d):
            # m[x_i, x_j] - [m x_i, x_j] - [x_i, m x_j], summed sparsely; a
            # bracket [x_a, x_b] with a > b is -table[(b, a)], so its terms
            # are added instead of subtracted
            acc: dict[int, Q] = {}
            for k, v in table.get((i, j), {}).items():
                for t, e in cols[k].items():
                    acc[t] = acc.get(t, 0) + v * e
            for t, e in cols[i].items():
                if t < j:
                    for k, v in table.get((t, j), {}).items():
                        acc[k] = acc.get(k, 0) - e * v
                elif t > j:
                    for k, v in table.get((j, t), {}).items():
                        acc[k] = acc.get(k, 0) + e * v
            for t, e in cols[j].items():
                if t > i:
                    for k, v in table.get((i, t), {}).items():
                        acc[k] = acc.get(k, 0) - e * v
                elif t < i:
                    for k, v in table.get((t, i), {}).items():
                        acc[k] = acc.get(k, 0) + e * v
            if any(acc.values()):
                return (i, j)
    return None


def is_derivation(L: LieAlgebra, d: EndoMatrix | Matrix) -> bool:
    """Exact Leibniz check: d[x_i, x_j] = [d x_i, x_j] + [x_i, d x_j] for all i < j."""
    m = d.matrix if isinstance(d, EndoMatrix) else d
    return first_leibniz_violation(L, m) is None
