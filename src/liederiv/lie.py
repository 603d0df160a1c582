"""Lie algebras as labeled bases with one integer structure-constant table.

An algebra is given by a dimension, a tuple of basis labels, and triples
(i, j, k, value) meaning [x_i, x_j] = sum_k value * x_k, each value read by
``linalg.rational``. Per (i, j, k), the triples given there sum to the
entry; an entry given at (i, j, k) and at (j, i, k) must be its opposite,
and an entry at (i, i, k) must be zero, else the constructor raises. An
entry given on one side only sets the other by antisymmetry. The one
stored table is the constants times their common denominator N, as
integers, arranged as the N ad x_i maps; everything reads it, and
``triples`` writes it back out over N. A build that writes its table in
closed form hands it over as it is (``LieAlgebra._of``). The torus
grading that lets the derivation oracle solve its system one weight at a
time is read off the same table (``grading``).

A vector of an algebra is a sparse coordinate dict (index -> value, zeros
dropped), the format of ``Subspace.rows``; ``bracket``, ``ad_matrix`` and
``EndoMatrix.apply`` read it through ``require_vector`` as ints over one
denominator. Every linear map is one ``EndoMatrix`` in the table's form,
integer columns over one denominator. A vector result is all ints where N
(or a map's den) is 1 and every input value is integral, else all Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .linalg import Q, Subspace, _over, nullspace_of_rows, rational, require_vector

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
    "first_leibniz_violation",
    "grading",
    "jacobi_holds",
]

# the largest dim of an algebra, checked before anything is allocated: twice
# ``parabolic.MAX_DIM``, so that ``complexify`` of every built q fits. At this
# size ``derivation_algebra`` takes about 1.5 min on the complexified gl_20,
# and about 20 s and 0.5 GB on a complexified abelian q (extrapolated from
# dims 200 and 400, CPython 3.11 on one core of a 2-vCPU host)
MAX_DIM = 800


class LieAlgebra:
    """``int_table[i][j]`` is {k: N c_ij^k} for every ordered pair with a
    nonzero bracket, so ``int_table[i]`` is the map N ad x_i as sparse
    columns; N, the common denominator of the constants, is ``denominator``.
    The dimension is an int of at most ``MAX_DIM``. Structure constants are
    ints, Fractions or rational strings ("p", "p/q"), read by ``rational``,
    indices are ints; anything else raises ValueError naming its triple.
    Entries at (i, j, k) and (j, i, k) that are not opposite, or a nonzero
    one at (i, i, k), raise ValueError naming the first such (i, j, k), i <= j.
    """

    __slots__ = ("dim", "labels", "int_table", "denominator", "_jacobi", "_generators")

    def __init__(self, dim: int, labels, triples):
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim {dim!r} is not a nonnegative int")
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} is above the limit of {MAX_DIM}")
        labels = tuple(labels) if labels is not None else tuple(f"x{i}" for i in range(dim))
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        given: dict[tuple[int, int, int], int | Q] = {}
        for t in triples:
            i, j, k, v = t
            if not type(i) is type(j) is type(k) is int:
                raise ValueError(f"triple {tuple(t)!r} has an index that is not an int")
            # an int (not a bool) passes the rule as it is; the triple is
            # formatted only for other values
            if type(v) is not int:
                v = rational(v, f"in triple {tuple(t)!r}")
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"triple ({i},{j},{k}) out of range for dim {dim}")
            given[i, j, k] = given[i, j, k] + v if (i, j, k) in given else v
        bad = [(i, j, k) for (i, j, k), v in given.items()
               if (v if i == j else i < j and (j, i, k) in given and v != -given[(j, i, k)])]
        if bad:
            i, j, k = min(bad)
            raise ValueError(f"[x_{i}, x_{i}] has a nonzero entry at {(i, i, k)}" if i == j else
                             f"the entries at {(i, j, k)} and {(j, i, k)} are not opposite")
        # every nonzero entry now has i != j and sets both orders of its
        # pair; one given at both orders writes the same values twice
        N = lcm(*(v.denominator for v in given.values()))
        int_table: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for (i, j, k), v in given.items():
            if not v:
                continue
            v = v.numerator * (N // v.denominator)
            int_table[i].setdefault(j, {})[k] = v
            int_table[j].setdefault(i, {})[k] = -v
        self._hold(labels, int_table, N)

    @classmethod
    def _of(cls, labels, int_table) -> LieAlgebra:
        """The algebra, N = 1, on an int table the library wrote itself in
        the form of ``int_table`` (both orders of each pair, zeros dropped), unchecked."""
        self = object.__new__(cls)
        self._hold(tuple(labels), int_table, 1)
        return self

    def _hold(self, labels: tuple, int_table: list[dict[int, dict[int, int]]], N: int) -> None:
        self.dim = len(labels)
        self.labels = labels
        self.int_table = int_table
        self.denominator = N
        # computed by jacobi_holds, or set by ParabolicAlgebra.__init__ by construction;
        # the table is never rewritten
        self._jacobi: bool | None = None
        # sorted indices of basis vectors that generate the algebra, set only
        # by ParabolicAlgebra.__init__ by construction; derivation_algebra reads it
        self._generators: tuple[int, ...] | None = None

    def triples(self) -> list[tuple[int, int, int, int | Q]]:
        """Canonical i < j triples, sorted, each table entry over N by
        ``_over``: all constants ints where N is 1, else all Fractions."""
        N = self.denominator
        return [
            (i, j, k, _over(v, N))
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
    """A linear map of an algebra: integer columns over one denominator.

    Entry (i, j) is ``cols[j][i] / den``, ``cols[j]`` a dict row -> nonzero
    int and ``den`` a positive int with no factor common to all entries (1
    for the zero map), so equal maps have equal ``cols`` and ``den``. The
    constructor takes columns, entries over ``den``, cleared to ints by
    ``require_vector``; it, ``ad_matrix`` and ``+``/``-`` sum in integers
    and only divide out the common factor (``_canonical``). The flat form,
    the ``Subspace.rows`` format, has entry (i, j) at index j*dim + i.
    """

    __slots__ = ("algebra", "cols", "den")

    def __init__(self, algebra: LieAlgebra, cols, den: int = 1):
        d = algebra.dim
        cols = tuple(cols)
        if len(cols) != d:
            raise ValueError("column count does not match algebra dimension")
        if type(den) is not int or den < 1:
            raise ValueError(f"den {den!r} is not a positive int")
        cleared = [require_vector(c, d, "row") for c in cols]
        # each column's ints over m, the lcm of their dens, then canonical
        m = lcm(*(cden for _, cden in cleared))
        canon = EndoMatrix._canonical(
            algebra, [{i: e * (m // cden) for i, e in c.items()} for c, cden in cleared], den * m)
        self.algebra, self.cols, self.den = algebra, canon.cols, canon.den

    @classmethod
    def _canonical(cls, algebra: LieAlgebra, cols, den: int) -> EndoMatrix:
        """The map with int columns over a positive den that the library
        summed itself: zeros dropped and gcd(den, entries) divided out,
        without the constructor's value and index checks."""
        g = gcd(den, *(e for c in cols for e in c.values())) if den > 1 else 1
        self = object.__new__(cls)
        self.algebra = algebra
        self.cols = tuple({i: e // g for i, e in c.items() if e} for c in cols)
        self.den = den // g
        return self

    @classmethod
    def from_flat(cls, algebra: LieAlgebra, flat, den: int = 1) -> EndoMatrix:
        """The map with flat entries (index j*dim + i -> value) over den."""
        d = algebra.dim
        require_vector(flat, d * d, "flat")
        cols: list[dict] = [{} for _ in range(d)]
        for f, e in flat.items():
            cols[f // d][f % d] = e
        return cls(algebra, cols, den)

    def flat(self) -> dict:
        d, den = self.algebra.dim, self.den
        return {j * d + i: _over(e, den) for j, c in enumerate(self.cols) for i, e in c.items()}

    def dense_rows(self) -> list[list]:
        """Row-major entries, 0 where a column has no entry."""
        return [[_over(c.get(i, 0), self.den) for c in self.cols] for i in range(self.algebra.dim)]

    def apply(self, v: dict) -> dict:
        """The image of a sparse vector, zeros dropped, read and written as by ``bracket``."""
        v, den = require_vector(v, self.algebra.dim, "vector")
        out: dict[int, int] = {}
        for j, x in v.items():
            for i, e in self.cols[j].items():
                out[i] = out.get(i, 0) + e * x
        den *= self.den
        return {i: _over(e, den) for i, e in out.items() if e}

    def _combine(self, other: EndoMatrix, sign: int) -> EndoMatrix:
        if other.algebra is not self.algebra:
            raise ValueError("maps belong to different algebras")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        cols = []
        for x, y in zip(self.cols, other.cols):
            c = {i: a * e for i, e in x.items()}
            for i, e in y.items():
                c[i] = c.get(i, 0) + b * e
            cols.append(c)
        return EndoMatrix._canonical(self.algebra, cols, den)

    def __add__(self, other: EndoMatrix) -> EndoMatrix:
        return self._combine(other, 1)

    def __sub__(self, other: EndoMatrix) -> EndoMatrix:
        return self._combine(other, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndoMatrix)
            and self.algebra is other.algebra
            and (self.cols, self.den) == (other.cols, other.den)
        )

    def __repr__(self) -> str:
        return f"EndoMatrix(dim {self.algebra.dim}, {sum(map(len, self.cols))} nonzero)"


@dataclass
class ValidationReport:
    jacobi_violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.jacobi_violations


def validate_structure(L: LieAlgebra) -> ValidationReport:
    """Every triple (i, j, k), i < j < k, where the table breaks the Jacobi
    identity (``jacobi_holds`` stops at the first). Antisymmetry needs no
    check: the constructor refuses a table that breaks it."""
    return ValidationReport(list(_jacobi_failures(L)))


def _jacobi_failures(L: LieAlgebra):
    """The triples (i, j, k), i < j < k, where the table breaks the Jacobi
    identity, in increasing order; checked on N times the constants (it is
    homogeneous in them), on the x with nonzero ad (a central x gives 0).
    [x_i, x_j] is looked up once per pair, and a triple whose three brackets
    are all zero is skipped, its Jacobi sum being 0."""
    T = L.int_table
    active = [i for i, row in enumerate(T) if row]
    for p, i in enumerate(active):
        Ti = T[i]
        for r, j in enumerate(active[p + 1:], p + 1):
            ij, Tj = Ti.get(j), T[j]
            for k in active[r + 1:]:
                jk, ki = Tj.get(k), T[k].get(i)
                if not (ij or jk or ki):
                    continue
                # [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j]
                acc: dict[int, int] = {}
                for b, c in ((ij, k), (jk, i), (ki, j)):
                    for m, v in (b or {}).items():
                        for t, w in T[m].get(c, {}).items():
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    yield i, j, k


def bracket(L: LieAlgebra, x: dict, y: dict) -> dict:
    """[x, y] for sparse coordinate dicts (index -> value, as in
    ``Subspace.rows``, cleared by ``require_vector``); zero entries are
    dropped."""
    x, xden = require_vector(x, L.dim, "x")
    y, yden = require_vector(y, L.dim, "y")
    # the ints summed against the integer table, written over N and both
    # inputs' dens once at the end
    out: dict[int, int] = {}
    T = L.int_table
    for i, a in x.items():
        row = T[i]
        for j, b in y.items():
            ks = row.get(j)
            if ks:
                c = a * b
                for k, v in ks.items():
                    out[k] = out.get(k, 0) + c * v
    den = L.denominator * xden * yden
    return {k: _over(v, den) for k, v in out.items() if v}


def bracket_span(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Canonical span of all brackets of basis vectors of a with those of b."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    return Subspace.from_sparse(L.dim, [bracket(L, u, v) for u in a.rows for v in b.rows])


def center(L: LieAlgebra) -> Subspace:
    """The center of L, {z : [z, x_j] = 0 for every j}: the kernel of one
    equation per (j, k), sum_i z_i N c_ij^k = 0, read off the integer table.
    Nothing in the library calls it; the tests check the parabolic build's
    closed-form Levi center against it."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(L.dim):
        for j, ks in L.int_table[i].items():
            for k, v in ks.items():
                rows.setdefault((j, k), {})[i] = v
    return nullspace_of_rows(L.dim, rows.values())


def ad_matrix(L: LieAlgebra, x: dict) -> EndoMatrix:
    """The map y -> [x, y] for a sparse coordinate dict x: column j holds
    [x, x_j] = sum_i x_i [x_i, x_j].

    Summed in integers, the ints ``require_vector`` clears x to against
    ``int_table``; the map is that sum over both denominators.
    """
    x, den = require_vector(x, L.dim, "x")
    cols: list[dict] = [{} for _ in range(L.dim)]
    for i, xi in x.items():
        if xi:
            for j, ks in L.int_table[i].items():
                col = cols[j]
                for k, v in ks.items():
                    col[k] = col.get(k, 0) + xi * v
    return EndoMatrix._canonical(L, cols, den * L.denominator)


def restrict(L: LieAlgebra, s: Subspace) -> LieAlgebra:
    """The algebra induced on a bracket-closed subspace.

    Coordinates are taken against the basis ``s.rows``, so the induced
    table is deterministic. Raises if some bracket of basis vectors escapes
    s, naming the offending pair.
    """
    if s.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    rows = s.rows
    triples = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            coords = s.coordinates_of(bracket(L, rows[a], rows[b]))
            if coords is None:
                raise ValueError(
                    f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
                )
            triples.extend((a, b, k, v) for k, v in coords.items())
    return LieAlgebra(len(rows), [L.labels[p] for p in s.pivots()], triples)


def first_leibniz_violation(L: LieAlgebra, m: EndoMatrix) -> tuple[int, int] | None:
    """First pair (i, j), i < j, where m breaks the Leibniz identity, if any.

    Runs on ``m.cols`` against ``int_table``, positive multiples of m and
    of the constants; the identity is linear in each, so the verdict is
    the one for m itself.
    """
    d = L.dim
    if len(m.cols) != d:
        raise ValueError("column count does not match algebra dimension")
    cols = m.cols
    rows: list[dict[int, int]] = [{} for _ in range(d)]  # rows[t][j] = cols[j][t]
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


def grading(L: LieAlgebra) -> tuple[int, ...]:
    """The torus weight of each basis vector, read off the table.

    The x_s whose ad is diagonal and nonzero (each ``int_table[s][k]`` is
    supported on {k}) span a torus. With m the largest |entry| of their
    maps and B = 4m + 1, W = diag(N ad h) for h = sum_t B**t x_(s_t), each
    weight a torus character written in base B. A block weight w_l - w_k
    has digits in [-2m, 2m], so blocks whose digits differ get distinct
    integers. Each x_s has weight 0, so h lies in the weight-0 span with
    ad h = diag(W) / N, a grading element by construction. If the table is
    not homogeneous for W (some nonzero c_ij^k has W[k] != W[i] + W[j]),
    ad h is not a derivation, so Jacobi fails, and every weight is 0. A
    table known to satisfy Jacobi (``_jacobi`` True) skips that scan: each
    ad x_s, so ad h, is a derivation, and a diagonal derivation is
    homogeneous. Jacobi is never computed here.
    """
    T = L.int_table
    diagonal = [row for row in T if row and all(ks.keys() == {k} for k, ks in row.items())]
    B = 4 * max((abs(ks[k]) for row in diagonal for k, ks in row.items()), default=0) + 1
    W = [0] * L.dim
    for t, row in enumerate(diagonal):
        for k, ks in row.items():
            W[k] += B**t * ks[k]
    if L._jacobi is not True and any(
            W[k] != W[i] + W[j] for i, row in enumerate(T) for j, ks in row.items() for k in ks):
        return (0,) * L.dim
    return tuple(W)


def jacobi_holds(L: LieAlgebra) -> bool:
    """Whether the table satisfies the Jacobi identity: the triple scan of
    ``validate_structure`` finds no failure. Computed once per algebra; a
    built ``ParabolicAlgebra`` sets it by construction."""
    if L._jacobi is None:
        L._jacobi = next(_jacobi_failures(L), None) is None
    return L._jacobi
