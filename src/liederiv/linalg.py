"""Exact linear algebra over arbitrary-precision rationals.

Subspaces kept as their unique reduced row echelon basis in sparse rows
(dicts col -> Fraction), together with nullspaces, linear solves and
subspace arithmetic. Everything downstream (structure constants, derivation
oracles, theorem checks) reduces to these operations, so they are exact and
deterministic by construction: equal subspaces have identical sparse bases.

Sparse vectors are dicts index -> value whose values are ints or Fractions;
the eliminator, ``nullspace_of_rows``, ``solve_rows`` and ``contains`` take
them as they are, and coordinates in a basis (``coordinates_of``,
``combination``) are sparse dicts row index -> value. The dense ``Matrix``
of Fraction entries is only an input form: of ``rref``, ``nullspace``,
``solve`` and the ``Subspace`` constructor. ``rational`` is the one rule for
exact scalar input. Linear maps of a Lie algebra are ``lie.EndoMatrix``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

Q = Fraction

Vector = tuple[Q, ...]

__all__ = [
    "Q",
    "Matrix",
    "Subspace",
    "rref",
    "nullspace",
    "solve",
    "solve_rows",
    "rational",
    "subspace_sum",
    "subspace_intersect",
    "contains",
    "is_direct_sum",
    "vec",
    "dense_vector",
    "unit_vector",
]


# the form str(Fraction) writes: "p/q" or "p", ASCII digits only
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational(e, where: str) -> Q:
    """e as an exact rational: an int (not a bool), a Fraction, or a string
    of the form str(Fraction) writes. Anything else, a float or a string
    such as "0.5" or "1e2" included, raises ValueError naming e and where."""
    if type(e) is int or isinstance(e, Q):
        return Q(e)
    if isinstance(e, str) and _RATIONAL_STRING.fullmatch(e):
        try:
            return Q(e)
        except (ValueError, ZeroDivisionError):  # zero denominator, too many digits
            pass
    shown = json.dumps(e, default=repr)
    raise ValueError(f"entry {shown} is not an integer or a rational string {where}")


def vec(values) -> Vector:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(v if type(v) is Q else Q(v) for v in values)


def dense_vector(n: int, sparse) -> Vector:
    """The length-n vector with the given sparse entries (index -> value)."""
    out = [Q(0)] * n
    for j, e in sparse.items():
        out[j] = e
    return tuple(out)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


class Matrix:
    """Dense rows x cols matrix with Fraction entries, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(e if type(e) is Q else Q(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, row_lists, cols: int | None = None) -> Matrix:
        row_lists = [tuple(r) for r in row_lists]
        if cols is None:
            if not row_lists:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(row_lists[0])
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(row_lists), cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Q:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return self.entries[j :: self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def mul_vec(self, v) -> Vector:
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Q(0)] * self.rows
        for j, x in enumerate(v):
            if x:
                for i, e in enumerate(self.entries[j :: self.cols]):
                    if e:
                        out[i] += e * x
        return tuple(out)

    def __mul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        # row i of the product is sum_k self[i, k] * other.row(k), over nonzero entries
        flat = []
        for i in range(self.rows):
            acc = [Q(0)] * other.cols
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in enumerate(other.row(k)):
                        if b:
                            acc[j] += a * b
            flat.extend(acc)
        return Matrix(self.rows, other.cols, flat)

    def __add__(self, other: Matrix) -> Matrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: Matrix) -> Matrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

class _RowReducer:
    """Incremental fraction-free elimination keeping rows fully reduced.

    Rows are sparse dicts col -> int, kept primitive (content 1, positive
    pivot). Elimination uses integer cross-multiplication, so no rational
    arithmetic happens until the final normalization divides each row by its
    pivot. Rows are mutually reduced at all times (each pivot column appears
    in exactly one row), which keeps fill-in bounded by the number of
    non-pivot columns and makes the extracted result the unique RREF of the
    fed rows, independent of feed order.
    """

    __slots__ = ("ncols", "pivot_rows", "col_index")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}
        self.col_index: dict[int, set[int]] = {}

    @staticmethod
    def _reduce_content(row: dict[int, int]) -> None:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            for c in row:
                row[c] //= g

    @staticmethod
    def _combine(target: dict[int, int], prow: dict[int, int], c: int) -> None:
        # target := prow[c] * target - target[c] * prow, entry at c cancels
        a = target.pop(c)
        b = prow[c]
        if b != 1:
            for col in target:
                target[col] *= b
        for col, v in prow.items():
            if col == c:
                continue
            nv = target.get(col, 0) - a * v
            if nv:
                target[col] = nv
            else:
                target.pop(col, None)
        _RowReducer._reduce_content(target)

    def add_row(self, row) -> bool:
        """Fold one row in; True if it increased the rank.

        Accepts a mapping col -> value (int or Fraction, both of which carry
        numerator and denominator); denominators are cleared up front.
        """
        den = lcm(*[v.denominator for v in row.values()])
        if den == 1:
            work = {c: v.numerator for c, v in row.items() if v}
        else:
            work = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        for c in sorted(work.keys() & self.pivot_rows.keys()):
            if c in work:
                self._combine(work, self.pivot_rows[c], c)
        if not work:
            return False
        piv = min(work)
        self._reduce_content(work)
        if work[piv] < 0:
            for c in work:
                work[c] = -work[c]
        for other_piv in list(self.col_index.get(piv, ())):
            other = self.pivot_rows[other_piv]
            before = set(other)
            self._combine(other, work, piv)
            after = set(other)
            for c in before - after:
                self.col_index[c].discard(other_piv)
            for c in after - before:
                self.col_index.setdefault(c, set()).add(other_piv)
        self.pivot_rows[piv] = work
        for c in work:
            self.col_index.setdefault(c, set()).add(piv)
        return True

    def add_dense_row(self, values) -> bool:
        return self.add_row({j: v for j, v in enumerate(values) if v})

    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def rref_sparse(self) -> list[dict[int, Q]]:
        """Rows of the RREF (pivot entries normalized to 1), in pivot order,
        each with its columns in increasing order."""
        out = []
        for piv in sorted(self.pivot_rows):
            r = self.pivot_rows[piv]
            pv = r[piv]
            out.append({c: Q(r[c], pv) for c in sorted(r)})
        return out


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Unique reduced row echelon form of m, with rank and pivot columns.

    The returned matrix has the shape of m (zero rows padded at the bottom).
    """
    s = Subspace(m.cols, m)
    flat = [e for v in s.vectors() for e in v] + [0] * ((m.rows - s.dim) * m.cols)
    return Matrix(m.rows, m.cols, flat), s.dim, s.pivots()


class Subspace:
    """A linear subspace, stored as its unique RREF basis in sparse rows.

    ``rows`` holds one dict col -> Fraction per basis vector, nonzero
    entries only, with columns in increasing order. Pivot columns strictly
    increase from row to row, each pivot entry is 1, and a pivot column is
    zero in every other row, so two subspaces are equal exactly when their
    rows are equal. The rows are indexed by pivot column once, when the
    basis is built. The rows are shared, not copied: callers must not mutate them.
    """

    __slots__ = ("ambient_dim", "rows", "_row_of")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        red = _RowReducer(ambient_dim)
        for i in range(basis.rows):
            red.add_dense_row(basis.row(i))
        self._take(red)

    def _take(self, red: _RowReducer) -> None:
        object.__setattr__(self, "ambient_dim", red.ncols)
        object.__setattr__(self, "rows", tuple(red.rref_sparse()))
        object.__setattr__(self, "_row_of", {p: r for r, p in enumerate(red.pivots())})

    @classmethod
    def _of_reducer(cls, red: _RowReducer) -> Subspace:
        space = object.__new__(cls)
        space._take(red)
        return space

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> Subspace:
        red = _RowReducer(ambient_dim)
        for v in vectors:
            red.add_dense_row(v)
        return cls._of_reducer(red)

    @classmethod
    def from_sparse(cls, ambient_dim: int, sparse_vectors) -> Subspace:
        red = _RowReducer(ambient_dim)
        for v in sparse_vectors:
            red.add_row(v)
        return cls._of_reducer(red)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls._of_reducer(_RowReducer(ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls.from_sparse(ambient_dim, ({i: Q(1)} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        return list(self._row_of)

    def vectors(self) -> list[Vector]:
        """The basis rows as dense tuples."""
        return [dense_vector(self.ambient_dim, row) for row in self.rows]

    def combination(self, coeffs: dict) -> dict:
        """sum(coeffs[k] * row k) over the basis rows, as a sparse vector;
        coeffs is sparse too (row index -> value), zero entries are dropped."""
        out: dict = {}
        for k, c in coeffs.items():
            if not 0 <= k < self.dim:
                raise ValueError("coefficient index out of range for dimension")
            for j, e in self.rows[k].items():
                out[j] = out.get(j, 0) + c * e
        return {j: e for j, e in out.items() if e}

    def coordinates_of(self, v) -> dict | None:
        """Sparse coordinates of v (row index -> value, zeros dropped) in the
        canonical basis, or None if v is outside.

        v is a dense vector or a sparse dict index -> value (int or Fraction)
        in the ``rows`` format. Because the basis is in RREF, the coordinate
        along row i is just the entry of v at that row's pivot column.
        """
        v = self._member(v)
        if v is None:
            return None
        row_of = self._row_of
        return {row_of[p]: e for p, e in sorted(v.items()) if e and p in row_of}

    def _member(self, v) -> dict | None:
        """v as a sparse dict if it lies in the subspace, else None: v is
        inside exactly when v - sum v[p] * (row with pivot p) is 0."""
        if not isinstance(v, dict):
            v = vec(v)
            if len(v) != self.ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            v = {j: e for j, e in enumerate(v) if e}
        residual = dict(v)
        for p, c in v.items():
            r = self._row_of.get(p)
            if r is not None and c:
                for j, e in self.rows[r].items():
                    residual[j] = residual.get(j, 0) - c * e
        return None if any(residual.values()) else v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(r.items()) for r in self.rows)))

    def __le__(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(contains(other, row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of the kernel {v : m v = 0}."""
    red = _RowReducer(m.cols)
    for i in range(m.rows):
        red.add_dense_row(m.row(i))
    return _nullspace_of_reducer(red)


def nullspace_of_rows(ncols: int, sparse_rows) -> Subspace:
    """Kernel of a system given as an iterable of sparse rows (col -> value)."""
    red = _RowReducer(ncols)
    for row in sparse_rows:
        red.add_row(row)
    return _nullspace_of_reducer(red)


def _nullspace_of_reducer(red: _RowReducer) -> Subspace:
    pivots = red.pivots()
    pivset = set(pivots)
    rows = red.rref_sparse()
    free = [c for c in range(red.ncols) if c not in pivset]
    vectors = []
    for f in free:
        v = {f: Q(1)}
        for p, row in zip(pivots, rows):
            e = row.get(f)
            if e:
                v[p] = -e
        vectors.append(v)
    return Subspace.from_sparse(red.ncols, vectors)


def solve(m: Matrix, b) -> Vector | None:
    """Some x with m x = b (free variables set to zero), or None if inconsistent."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = [{j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows)]
    return solve_rows(m.cols, rows, b)


def solve_rows(ncols: int, sparse_rows, b) -> Vector | None:
    """``solve`` for a system given as sparse rows (col -> value), one per
    entry of b."""
    sparse_rows = list(sparse_rows)
    if len(sparse_rows) != len(b):
        raise ValueError("right-hand side length does not match row count")
    aug = ncols
    red = _RowReducer(ncols + 1)
    for row, bi in zip(sparse_rows, b):
        red.add_row({**row, aug: bi} if bi else row)
    pivots = red.pivots()
    if aug in pivots:
        return None
    x = [Q(0)] * ncols
    for p, row in zip(pivots, red.rref_sparse()):
        x[p] = row.get(aug, Q(0))
    return tuple(x)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return Subspace.from_sparse(a.ambient_dim, a.rows + b.rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, via the kernel of the stacked-basis system.

    A vector is in both spaces iff it is sum(lam_i a_i) = sum(mu_j b_j); the
    coefficient pairs (lam, mu) form the kernel of [A^T | -B^T].
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    system: dict[int, dict[int, Q]] = {}  # ambient coordinate -> its equation
    for k, row in enumerate(a.rows):
        for i, e in row.items():
            system.setdefault(i, {})[k] = e
    for k, row in enumerate(b.rows):
        for i, e in row.items():
            system.setdefault(i, {})[a.dim + k] = -e
    ker = nullspace_of_rows(a.dim + b.dim, (system[i] for i in sorted(system)))
    out = [a.combination({k: e for k, e in lam.items() if k < a.dim}) for lam in ker.rows]
    return Subspace.from_sparse(a.ambient_dim, out)


def contains(a: Subspace, v) -> bool:
    """True iff v, dense or a sparse dict, lies in a (exact sparse residual)."""
    return a._member(v) is not None


def is_direct_sum(parts, whole: Subspace) -> bool:
    """True iff the parts are independent and together span the whole space."""
    parts = list(parts)
    for p in parts:
        if p.ambient_dim != whole.ambient_dim:
            raise ValueError("ambient dimensions differ")
    if sum(p.dim for p in parts) != whole.dim:
        return False
    return Subspace.from_sparse(whole.ambient_dim, [r for p in parts for r in p.rows]) == whole
