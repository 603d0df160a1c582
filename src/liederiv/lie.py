"""Lie algebras as labeled bases with one integer structure-constant table.

An algebra is given by a dimension, a tuple of basis labels, and triples
(i, j, k, value) meaning [x_i, x_j] = sum_k value * x_k. Per (i, j, k), the
sum of the explicit i < j triples is the constant; an i > j triple folds in
by antisymmetry only where no i < j one is given, and i = j is zero. The
one stored table is the constants times their common denominator N, as
integers, arranged as the N ad x_i maps; everything reads it. The raw input
triples are kept so that defective tables can be diagnosed instead of
silently repaired.

A vector of an algebra is a sparse coordinate dict (index -> value, zeros
dropped), the format of ``Subspace.rows``; ``bracket`` and ``ad_matrix``
take it as it is. Every linear map of an algebra is one ``EndoMatrix``:
its sparse columns, with ``int`` or ``Fraction`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from operator import add, sub

from .linalg import Q, Subspace, nullspace_of_rows, rational

__all__ = [
    "LieAlgebra",
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
    """``int_table[i][j]`` is {k: N c_ij^k} for every ordered pair with a
    nonzero bracket, so ``int_table[i]`` is the map N ad x_i as sparse
    columns; N, the common denominator of the constants, is ``denominator``.
    The dimension is an int. Structure constants are ints, Fractions or
    rational strings ("p", "p/q"), indices are ints; anything else raises
    ValueError naming its triple."""

    __slots__ = ("dim", "labels", "_raw", "int_table", "denominator")

    def __init__(self, dim: int, labels, triples):
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim {dim!r} is not a nonnegative int")
        labels = tuple(labels) if labels is not None else tuple(f"x{i}" for i in range(dim))
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        raw: list[tuple[int, int, int, Q]] = []
        lower: dict[tuple[int, int, int], Q] = {}
        upper: dict[tuple[int, int, int], Q] = {}
        for t in triples:
            i, j, k, v = t
            if not type(i) is type(j) is type(k) is int:
                raise ValueError(f"triple {tuple(t)!r} has an index that is not an int")
            # a Fraction passes the rule as it is; the triple is formatted
            # only for other values
            v = v if type(v) is Q else rational(v, f"in triple {tuple(t)!r}")
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
        consts = {key: v for key, v in {**upper, **lower}.items() if v}
        N = lcm(*(v.denominator for v in consts.values()))
        int_table: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for (i, j, k), v in consts.items():
            v = v.numerator * (N // v.denominator)
            int_table[i].setdefault(j, {})[k] = v
            int_table[j].setdefault(i, {})[k] = -v
        self.dim = dim
        self.labels = labels
        self._raw = tuple(raw)
        self.int_table = int_table
        self.denominator = N

    def triples(self) -> list[tuple[int, int, int, Q]]:
        """Canonical i < j triples, sorted."""
        N = self.denominator
        return [
            (i, j, k, Q(v, N))
            for i, row in enumerate(self.int_table)
            for j, ks in sorted(row.items())
            if j > i
            for k, v in sorted(ks.items())
        ]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": list(self.labels),
            "sc": [[i, j, k, str(v)] for (i, j, k, v) in self.triples()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> LieAlgebra:
        """The inverse of ``to_json_dict``; "basis" may be left out."""
        if not isinstance(data, dict):
            raise ValueError("algebra JSON must be an object with keys dim and sc")
        basis, sc = data.get("basis"), data.get("sc")
        if not (basis is None or isinstance(basis, list)) or not isinstance(sc, list):
            raise ValueError("algebra JSON basis and sc must be lists")
        if not all(isinstance(t, list) and len(t) == 4 for t in sc):
            raise ValueError("each sc triple must be a list [i, j, k, value]")
        return cls(data.get("dim"), basis, sc)

    def __repr__(self) -> str:
        pairs = sum(j > i for i, row in enumerate(self.int_table) for j in row)
        return f"LieAlgebra(dim {self.dim}, {pairs} bracket pairs)"


class EndoMatrix:
    """A linear map of an algebra as its sparse columns.

    ``cols[j]`` is a dict row -> value (int or Fraction), nonzero entries
    only, holding the image of x_j. The flat form is the ``Subspace.rows``
    format of endomorphism space: entry (i, j) sits at index j*dim + i.
    """

    __slots__ = ("algebra", "cols")

    def __init__(self, algebra: LieAlgebra, cols):
        d = algebra.dim
        cols = tuple({i: e for i, e in c.items() if e} for c in cols)
        if len(cols) != d:
            raise ValueError("column count does not match algebra dimension")
        if any(not 0 <= i < d for c in cols for i in c):
            raise ValueError("row index out of range for algebra dimension")
        self.algebra = algebra
        self.cols = cols

    @classmethod
    def from_flat(cls, algebra: LieAlgebra, flat) -> EndoMatrix:
        """The map with flat entries (index j*dim + i -> value)."""
        d = algebra.dim
        cols: list[dict] = [{} for _ in range(d)]
        for f, e in flat.items():
            if not 0 <= f < d * d:
                raise ValueError("flat index out of range for algebra dimension")
            cols[f // d][f % d] = e
        return cls(algebra, cols)

    def flat(self) -> dict:
        d = self.algebra.dim
        return {j * d + i: e for j, c in enumerate(self.cols) for i, e in c.items()}

    def dense_rows(self) -> list[list]:
        """Row-major entries, 0 where a column has no entry."""
        return [[c.get(i, 0) for c in self.cols] for i in range(self.algebra.dim)]

    def apply(self, v: dict) -> dict:
        """The image of a sparse vector (index -> value), zeros dropped."""
        out: dict = {}
        for j, x in v.items():
            for i, e in self.cols[j].items():
                out[i] = out.get(i, 0) + e * x
        return {i: e for i, e in out.items() if e}

    def _combine(self, other: EndoMatrix, op) -> EndoMatrix:
        if other.algebra is not self.algebra:
            raise ValueError("maps belong to different algebras")
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            for i, e in b.items():
                c[i] = op(c.get(i, 0), e)
            cols.append(c)
        return EndoMatrix(self.algebra, cols)

    def __add__(self, other: EndoMatrix) -> EndoMatrix:
        return self._combine(other, add)

    def __sub__(self, other: EndoMatrix) -> EndoMatrix:
        return self._combine(other, sub)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndoMatrix)
            and self.algebra is other.algebra
            and self.cols == other.cols
        )

    def __repr__(self) -> str:
        return f"EndoMatrix(dim {self.algebra.dim}, {sum(map(len, self.cols))} nonzero)"


@dataclass
class ValidationReport:
    antisymmetry_violations: list[tuple[int, int, int]] = field(default_factory=list)
    jacobi_violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations


def validate_structure(L: LieAlgebra) -> ValidationReport:
    """Check the raw triples for antisymmetry defects and the table for the
    Jacobi identity.

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

    # Jacobi is checked on N times the constants (it is homogeneous in
    # them), and can only fail on triples meeting the table support
    T = L.int_table
    touched = [i for i, row in enumerate(T) if row]
    for ai in range(len(touched)):
        for bi in range(ai + 1, len(touched)):
            for ci in range(bi + 1, len(touched)):
                i, j, k = touched[ai], touched[bi], touched[ci]
                acc: dict[int, int] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in T[a].get(b, {}).items():
                        for t, w in T[m].get(c, {}).items():
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    report.jacobi_violations.append((i, j, k))
    report.jacobi_violations.sort()
    return report


def bracket(L: LieAlgebra, x: dict, y: dict) -> dict:
    """[x, y] for sparse coordinate dicts (index -> value, as in
    ``Subspace.rows``); zero entries are dropped. An index outside the
    algebra raises ValueError."""
    if any(not 0 <= i < L.dim for v in (x, y) for i in v):
        raise ValueError("vector index out of range for algebra dimension")
    return _bracket(L, x, y)


def _bracket(L: LieAlgebra, x: dict, y: dict) -> dict:
    """``bracket`` without the index check, for the rows of subspaces of L:
    summed against the integer table, divided by N once at the end."""
    out: dict = {}
    T = L.int_table
    for i, a in x.items():
        row = T[i]
        for j, b in y.items():
            ks = row.get(j)
            if ks:
                c = a * b
                for k, v in ks.items():
                    out[k] = out.get(k, 0) + c * v
    N = L.denominator
    return {k: v if N == 1 else Q(v, N) for k, v in out.items() if v}


def bracket_span(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of all brackets of basis vectors of a with those of b."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    return Subspace.from_sparse(L.dim, [_bracket(L, u, v) for u in a.rows for v in b.rows])


def center(L: LieAlgebra) -> Subspace:
    """Joint kernel of all ad maps: {z : [z, x_j] = 0 for every basis x_j}.

    One equation per (j, k): sum_i z_i N c_ij^k = 0."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, ad_i in enumerate(L.int_table):
        for j, ks in ad_i.items():
            for k, v in ks.items():
                rows.setdefault((j, k), {})[i] = v
    return nullspace_of_rows(L.dim, rows.values())


def ad_matrix(L: LieAlgebra, x: dict) -> EndoMatrix:
    """The map y -> [x, y] for a sparse coordinate dict x: column j holds
    [x, x_j] = sum_i x_i [x_i, x_j].

    Summed in integers, x times the common denominator of its coordinates
    against ``int_table``, and divided by both factors at the end.
    """
    den = lcm(*(c.denominator for c in x.values()))
    cols: list[dict] = [{} for _ in range(L.dim)]
    for i, xi in x.items():
        if xi:
            xi = xi.numerator * (den // xi.denominator)
            for j, ks in L.int_table[i].items():
                col = cols[j]
                for k, v in ks.items():
                    col[k] = col.get(k, 0) + xi * v
    den *= L.denominator
    if den != 1:
        cols = [{k: Q(v, den) for k, v in c.items() if v} for c in cols]
    return EndoMatrix(L, cols)


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
            coords = s.coordinates_of(_bracket(L, rows[a], rows[b]))
            if coords is None:
                raise ValueError(
                    f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
                )
            triples.extend((a, b, k, v) for k, v in coords.items())
    return LieAlgebra(len(rows), labels, triples)


def first_leibniz_violation(L: LieAlgebra, m: EndoMatrix) -> tuple[int, int] | None:
    """First pair (i, j), i < j, where m breaks the Leibniz identity, if any.

    The check runs on integers: the columns times the common denominator of
    their entries, against N times the constants. Both factors are positive
    and the identity is linear in m and in the constants, so the verdict is
    the one for m itself.
    """
    d = L.dim
    if len(m.cols) != d:
        raise ValueError("column count does not match algebra dimension")
    den = lcm(*(e.denominator for c in m.cols for e in c.values()))
    cols = [{t: e.numerator * (den // e.denominator) for t, e in c.items()} for c in m.cols]
    rows: list[dict[int, int]] = [{} for _ in range(d)]  # rows[t][j] = m[t, j]
    for j, c in enumerate(cols):
        for t, e in c.items():
            rows[t][j] = e
    T = L.int_table
    for i in range(d):
        # acc[j] = m[x_i, x_j] - [m x_i, x_j] - [x_i, m x_j] for j > i, each
        # term summed over the support of a table row, a column or a row of m
        acc: dict[int, dict[int, int]] = {}
        for j, ks in T[i].items():
            if j > i:
                a = acc.setdefault(j, {})
                for k, v in ks.items():
                    for t, e in cols[k].items():
                        a[t] = a.get(t, 0) + v * e
        for t, e in cols[i].items():
            for j, ks in T[t].items():
                if j > i:
                    a = acc.setdefault(j, {})
                    for k, v in ks.items():
                        a[k] = a.get(k, 0) - e * v
        for t, ks in T[i].items():
            for j, e in rows[t].items():
                if j > i:
                    a = acc.setdefault(j, {})
                    for k, v in ks.items():
                        a[k] = a.get(k, 0) - e * v
        bad = [j for j, a in acc.items() if any(a.values())]
        if bad:
            return (i, min(bad))
    return None


def is_derivation(L: LieAlgebra, d: EndoMatrix) -> bool:
    """Exact Leibniz check: d[x_i, x_j] = [d x_i, x_j] + [x_i, d x_j] for all i < j."""
    return first_leibniz_violation(L, d) is None
