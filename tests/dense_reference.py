"""Dense ``Matrix`` views of ``EndoMatrix`` maps, for reference checks.

The library keeps every map as sparse columns; the tests check products
such as S M S^-1 and D E - E D on dense matrices, independently of that.
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


def identity(L) -> EndoMatrix:
    return EndoMatrix(L, [{j: 1} for j in range(L.dim)])
