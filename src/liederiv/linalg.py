"""Exact linear algebra over arbitrary-precision rationals.

Subspaces kept as the fraction-free eliminator's rows: sparse dicts col ->
int, each the unique primitive multiple of a reduced row echelon row with
a positive pivot. Nullspaces, linear solves and subspace arithmetic work
on them. Everything downstream (structure constants, derivation oracles,
theorem checks) reduces to these operations, so they are exact and
deterministic by construction: equal subspaces have identical sparse bases.

A vector is a sparse dict index -> value, zeros dropped, as
``Subspace.rows`` are; coordinates in a basis are sparse dicts row index ->
value too. ``require_vector`` is the one rule for it, which every public
entry point that takes one applies: int indices in range, int or Fraction
values. It is the one door into the integers too: it returns the vector
as ints over one denominator, and all behind it runs on int rows.
``Subspace.from_vectors`` is the one dense input form and
``Subspace.vectors`` the one dense output form. Linear maps of a Lie
algebra are ``lie.EndoMatrix``. Only this module constructs a Fraction:
``rational`` is the one rule for an exact scalar read in, an int where it
is integral; ``_over`` (int entries over one denominator: ints where it is
1, else all Fractions) and ``_ratio`` (a lone scalar, an int where its
denominator divides it) are the two rules for one written out.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

Q = Fraction

__all__ = [
    "Q",
    "Subspace",
    "nullspace_of_rows",
    "solve",
    "rational",
    "integer",
    "require_vector",
    "subspace_sum",
    "subspace_intersect",
    "contains",
    "is_direct_sum",
]


# the form str(Fraction) writes: "p/q" or "p", ASCII digits only
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INT_STRING = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """text, written -?[0-9]+ in ASCII digits, as an int; else ValueError."""
    if not _INT_STRING.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def rational(e, where: str) -> int | Q:
    """e as an exact rational, an int where it is integral: e is an int (not
    a bool), a Fraction, or a string of the form str(Fraction) writes, read
    by int() where it is -?[0-9]+. Anything else, a float or a string such as
    "0.5", "1e2" or "1/0" included, raises ValueError naming e and where."""
    if isinstance(e, str) and _RATIONAL_STRING.fullmatch(e):
        try:
            e = int(e) if _INT_STRING.fullmatch(e) else Q(e)
        except (ValueError, ZeroDivisionError):  # zero denominator, too many digits
            pass
    if type(e) is int or isinstance(e, Q):
        return e.numerator if e.denominator == 1 else e
    raise ValueError(f"entry {json.dumps(e, default=repr)} is not an integer or a rational "
                     f"string {where}")


def require_vector(v: dict, bound: int, name: str) -> tuple[dict[int, int], int]:
    """(ints, den) with v == ints / den for a sparse vector v of length bound:
    int indices in range(bound), int or Fraction values, no bools, else
    ValueError naming the input. An all-int v comes back itself over 1, else
    ints is v times the lcm of its denominators, zeros dropped."""
    den = 0  # 0 while every value is an int
    for i, e in v.items():
        if type(i) is not int or not 0 <= i < bound:
            raise ValueError(f"{name} index {i!r} out of range: not an int from 0 to {bound - 1}")
        if type(e) is not int:
            if not isinstance(e, Q):
                raise ValueError(f"{name} value {e!r} is not an int or a Fraction")
            den = lcm(den or 1, e.denominator)
    if not den:
        return v, 1
    return {i: e.numerator * (den // e.denominator) for i, e in v.items() if e}, den


class _RowReducer:
    """Incremental fraction-free elimination keeping rows fully reduced.

    Rows are sparse dicts col -> int, kept primitive (content 1, positive
    pivot). Elimination uses integer cross-multiplication, so it makes no
    Fraction. Rows are mutually reduced at all times (each pivot column
    appears in exactly one row), which keeps fill-in bounded by the number
    of non-pivot columns and makes each row the primitive multiple of a row
    of the unique RREF of the fed rows, independent of feed order. It takes
    int rows only (``require_vector`` clears public input). ``reduce``
    eliminates each pivot column of a fed row with no content division;
    ``add_row`` divides the content out once, before it stores the row, and
    each stored row a new pivot is eliminated from is divided once too.
    ``pivot_rows`` maps each pivot column to its row. ``touched``, built by
    the first ``add_row``, holds every column a stored row has ever had an
    entry at, so a new pivot is eliminated from the other rows by a scan
    only when one of them may hold it: independent unit rows make no scan.
    """

    __slots__ = ("pivot_rows", "touched")

    def __init__(self, pivot_rows=()):
        self.pivot_rows: dict[int, dict[int, int]] = dict(pivot_rows)
        self.touched: set[int] | None = None

    @staticmethod
    def _divide(row: dict[int, int], g: int) -> None:
        # row := row / g, an exact division
        if g != 1:
            for c in row:
                row[c] //= g

    @staticmethod
    def _eliminate(target: dict[int, int], prow: dict[int, int], c: int) -> None:
        # target := prow[c] * target - target[c] * prow, entry at c cancels
        a = target.pop(c)
        b = prow[c]
        if b != 1:
            for col in target:
                target[col] *= b
        for col, v in prow.items():
            if col != c:
                nv = target.get(col, 0) - a * v
                if nv:
                    target[col] = nv
                else:  # only an entry target held cancels
                    del target[col]

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row, a mapping col -> int, with its zeros dropped (an oracle row
        can hold cancelled entries) and every pivot column eliminated: an
        int row, not yet primitive, that is empty exactly when row lies in
        the span of the fed rows."""
        work = {}
        for c, v in row.items():  # a loop, not a comprehension: no call per row
            if v:
                work[c] = v
        # a stored row holds no other pivot column, so each elimination
        # leaves work's other pivot entries nonzero, in any order
        pivot_rows = self.pivot_rows
        for c in [c for c in work if c in pivot_rows]:
            self._eliminate(work, pivot_rows[c], c)
        return work

    def add_row(self, row: dict[int, int]) -> bool:
        """Fold one int row in (as ``reduce`` takes it); True if it increased the rank."""
        work = self.reduce(row)
        if not work:
            return False
        piv = min(work)
        # one division makes the row primitive with a positive pivot
        g = gcd(*work.values())
        self._divide(work, g if work[piv] > 0 else -g)
        if self.touched is None:
            self.touched = {c for r in self.pivot_rows.values() for c in r}
        if piv in self.touched:
            for other in self.pivot_rows.values():
                if piv in other:
                    self._eliminate(other, work, piv)
                    self._divide(other, gcd(*other.values()))
        self.touched.update(work)
        self.pivot_rows[piv] = work
        return True

    def kernel_vectors(self, columns) -> list[dict]:
        """One integer kernel vector per free (non-pivot) column f among
        columns, in their order: m, the lcm of the pivots r[p] of the rows r
        with an entry at f, at f and -r[f] * m / r[p] at each such p. Over
        all columns they span the kernel of the fed rows."""
        out = []
        for f in columns:
            if f in self.pivot_rows:
                continue
            held = [(p, r) for p, r in self.pivot_rows.items() if f in r]
            m = lcm(*[r[p] for p, r in held])
            v = {f: m}
            for p, r in held:
                v[p] = -r[f] * (m // r[p])
            out.append(v)
        return out


def _over(e, den: int):
    # e / den, a Fraction only where den is not 1, so the int entries of one
    # map, vector or table written over one den all have one type
    return e if den == 1 else Q(e, den)


def _ratio(e: int, den: int):
    # e / den for an int den > 0, a lone scalar: an int where den divides e,
    # else a Fraction
    m, r = divmod(e, den)
    return Q(e, den) if r else m


class Subspace:
    """A linear subspace, stored as the row reducer's rows of its span.

    ``rows`` holds one dict col -> int per basis vector: nonzero entries
    only, columns in increasing order, content 1 and a positive pivot (the
    first entry). Pivot columns strictly increase from row to row and a
    pivot column is zero in every other row, so each row is the unique
    primitive multiple of an RREF row, and two subspaces are equal exactly
    when their rows are equal. The rows are shared, not copied: callers
    must not mutate them. Subspaces are built by the classmethods below;
    the constructor takes rows that already are such a basis.
    """

    __slots__ = ("ambient_dim", "rows", "_red")

    def __init__(self, ambient_dim: int, rows):
        rows = tuple(rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        # the rows by pivot, the reducer ``_member`` runs
        object.__setattr__(self, "_red", _RowReducer((next(iter(row)), row) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> Subspace:
        """The span of dense vectors, each of length ambient_dim; every
        nonzero entry must pass ``rational``."""
        red = _RowReducer()
        for v in vectors:
            v = list(v)
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            v = {j: rational(e, f"at index {j}") for j, e in enumerate(v) if e}
            red.add_row(require_vector(v, ambient_dim, "vector")[0])
        return cls._of(ambient_dim, red)

    @classmethod
    def from_sparse(cls, ambient_dim: int, sparse_vectors) -> Subspace:
        """The span of sparse vectors, each cleared by ``require_vector``
        before it is reduced; a vector that is not a mapping raises
        ValueError too."""
        red = _RowReducer()
        for v in sparse_vectors:
            try:
                ints, _ = require_vector(v, ambient_dim, "vector")
            except AttributeError:
                raise ValueError("vector is not a sparse dict") from None
            red.add_row(ints)
        return cls._of(ambient_dim, red)

    @classmethod
    def _of(cls, n: int, red: _RowReducer) -> Subspace:
        """The span of a reducer's rows, unchecked: the library's or checked ones."""
        return cls(n, [{c: r[c] for c in sorted(r)} for _, r in sorted(red.pivot_rows.items())])

    @classmethod
    def units(cls, ambient_dim: int, indices) -> Subspace:
        """The span of the unit vectors at indices, a coordinate subspace:
        its basis is the rows {i: 1}, in increasing i, with no elimination.
        Indices are checked as by ``require_vector``."""
        units = dict.fromkeys(indices, 1)
        require_vector(units, ambient_dim, "unit vector")
        return cls(ambient_dim, ({i: 1} for i in sorted(units)))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls.units(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        return list(self._red.pivot_rows)

    def vectors(self) -> list[tuple]:
        """The RREF basis as dense tuples: each row over its pivot, 0 where
        it has no entry."""
        out = []
        for row in self.rows:
            pv = next(iter(row.values()))
            out.append(tuple(_over(row[j], pv) if j in row else 0 for j in range(self.ambient_dim)))
        return out

    def combination(self, coeffs: dict) -> dict:
        """sum(coeffs[k] * row k) over the basis rows, as a sparse vector;
        coeffs is sparse too (row index -> value), cleared by
        ``require_vector``; summed in ints, written by ``_over``, zeros dropped."""
        coeffs, den = require_vector(coeffs, self.dim, "coefficient")
        out: dict[int, int] = {}
        for k, c in coeffs.items():
            for j, e in self.rows[k].items():
                out[j] = out.get(j, 0) + c * e
        return {j: _over(e, den) for j, e in out.items() if e}

    def coordinates_of(self, v: dict) -> dict | None:
        """Sparse coordinates (row index -> value, zeros dropped) of the
        sparse vector v in the basis ``rows``, or None if v is outside: along a
        row, by ``_over``, v's int at its pivot over v's den times the pivot."""
        v, den = require_vector(v, self.ambient_dim, "vector")
        if not self._member(v):
            return None
        return {r: _over(v[p], den * row[p])
                for r, (p, row) in enumerate(self._red.pivot_rows.items()) if v.get(p)}

    def _member(self, v: dict[int, int]) -> bool:
        """Whether v, an int vector (the door's or the library's), lies in
        the subspace: whether the reducer's step eliminates it to 0."""
        return not self._red.reduce(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(r.items()) for r in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def nullspace_of_rows(ncols: int, sparse_rows) -> Subspace:
    """Kernel of an iterable of sparse rows, each cleared by ``require_vector``."""
    red = _RowReducer()
    for row in sparse_rows:
        red.add_row(require_vector(row, ncols, "row")[0])
    return Subspace.from_sparse(ncols, red.kernel_vectors(range(ncols)))


def solve(ncols: int, sparse_rows, b) -> dict | None:
    """Some x with A x = b as a sparse vector (free variables set to zero),
    or None if inconsistent; A is given by its sparse rows (col -> value),
    one per entry of b; each row, checked by ``require_vector``, is cleared
    with its entry of b at column ncols."""
    sparse_rows, b = list(sparse_rows), list(b)
    if len(sparse_rows) != len(b):
        raise ValueError("right-hand side length does not match row count")
    require_vector(dict(enumerate(b)), len(b), "right-hand side")
    red = _RowReducer()
    for row, bi in zip(sparse_rows, b):
        require_vector(row, ncols, "row")
        red.add_row(require_vector({**row, ncols: bi} if bi else row, ncols + 1, "row")[0])
    if ncols in red.pivot_rows:
        return None
    return {p: _over(row[ncols], row[p]) for p, row in sorted(red.pivot_rows.items())
            if ncols in row}


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return Subspace.from_sparse(a.ambient_dim, a.rows + b.rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus's elimination: the rows (u | u), u in a,
    and (v | 0), v in b, span the (u + v | u), which are (0 | u) for u in
    both, so the reduced rows with pivot >= n hold a basis in their second half."""
    n = a.ambient_dim
    if n != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    red = _RowReducer()
    for u in a.rows:
        red.add_row({**u, **{c + n: e for c, e in u.items()}})
    for v in b.rows:
        red.add_row(v)
    return Subspace._of(n, _RowReducer((p - n, {c - n: e for c, e in r.items()})
                                       for p, r in red.pivot_rows.items() if p >= n))


def contains(a: Subspace, v: dict) -> bool:
    """True iff the sparse vector v, cleared by ``require_vector``, lies in a
    (exact sparse residual)."""
    return a._member(require_vector(v, a.ambient_dim, "vector")[0])


def is_direct_sum(parts, whole: Subspace) -> bool:
    """True iff the parts are independent and together span the whole space."""
    parts = list(parts)
    for p in parts:
        if p.ambient_dim != whole.ambient_dim:
            raise ValueError("ambient dimensions differ")
    if sum(p.dim for p in parts) != whole.dim:
        return False
    return Subspace.from_sparse(whole.ambient_dim, [r for p in parts for r in p.rows]) == whole
