"""Dense reference forms for the tests, independent of the library's sparse ones.

The library keeps every vector as a sparse dict and every map as sparse
columns; the tests check products such as S M S^-1 and D E - E D, and the
Leibniz system, on the dense ``Matrix`` here instead. Brackets of basis
vectors are read from ``LieAlgebra.triples()``, which other tests pin
against dense matrix commutators, not from the table that ``bracket`` reads.
"""

from fractions import Fraction as Q

from liederiv.lie import EndoMatrix, bracket


class Matrix:
    """Dense rows x cols matrix with Fraction entries, row-major."""

    def __init__(self, rows: int, cols: int, entries):
        self.rows, self.cols = rows, cols
        self.entries = tuple(Q(e) for e in entries)
        assert len(self.entries) == rows * cols

    @classmethod
    def from_rows(cls, row_lists, cols: int | None = None) -> "Matrix":
        row_lists = [list(r) for r in row_lists]
        cols = len(row_lists[0]) if cols is None else cols
        assert all(len(r) == cols for r in row_lists)
        return cls(len(row_lists), cols, [e for r in row_lists for e in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i: int, j: int) -> Q:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def mul_vec(self, v) -> tuple:
        v = tuple(v)
        assert len(v) == self.cols
        return tuple(sum((a * b for a, b in zip(self.row(i), v) if a and b), Q(0))
                     for i in range(self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows
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

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __eq__(self, other) -> bool:
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def sparse_rows(self) -> list[dict]:
        """The rows as sparse dicts (col -> entry), the library's input form."""
        return [sparse(self.row(i)) for i in range(self.rows)]


def sparse(v) -> dict:
    """A dense vector as a sparse dict index -> entry, zeros dropped."""
    return {j: e for j, e in enumerate(v) if e}


def dense(n: int, v: dict) -> tuple:
    """The length-n dense vector of a sparse dict."""
    return tuple(Q(v.get(j, 0)) for j in range(n))


def dense_bracket(L, x, y) -> tuple:
    """[x, y] of dense coordinate vectors, by the library's ``bracket``."""
    return dense(L.dim, bracket(L, sparse(x), sparse(y)))


def as_matrix(E: EndoMatrix) -> Matrix:
    return Matrix.from_rows(E.dense_rows(), E.algebra.dim)


def as_endo(L, m: Matrix) -> EndoMatrix:
    return EndoMatrix(L, [sparse(m.col(j)) for j in range(m.cols)])


def flatten(m: Matrix) -> tuple:
    """The column-major flattening: entry (i, j) at index j*cols + i."""
    return tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))


def structure_constants(L) -> dict:
    """{(i, j): {k: c_ij^k}} for every ordered pair with a nonzero bracket:
    the i < j triples of ``L.triples()`` and their i > j images by
    antisymmetry."""
    out: dict = {}
    for i, j, k, v in L.triples():
        out.setdefault((i, j), {})[k] = v
        out.setdefault((j, i), {})[k] = -v
    return out


def identity(L) -> EndoMatrix:
    return EndoMatrix(L, [{j: 1} for j in range(L.dim)])
