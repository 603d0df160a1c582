"""Reference views for the tests: dense ``Matrix`` views of ``EndoMatrix``
maps, and the structure constants of every ordered pair.

The library keeps every map as sparse columns; the tests check products
such as S M S^-1 and D E - E D on dense matrices, independently of that.
Brackets of basis vectors are read from ``LieAlgebra.triples()``, which
other tests pin against dense matrix commutators, not from the table that
``bracket`` reads.
"""

from liederiv.lie import EndoMatrix
from liederiv.linalg import Matrix


def as_matrix(E: EndoMatrix) -> Matrix:
    return Matrix.from_rows(E.dense_rows(), E.algebra.dim)


def as_endo(L, m: Matrix) -> EndoMatrix:
    return EndoMatrix(L, [{i: e for i, e in enumerate(m.col(j)) if e} for j in range(m.cols)])


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
