import pytest

from dense_reference import Matrix, as_matrix, flatten, identity, sparse, structure_constants
from liederiv.derivations import (
    NotADerivationError,
    complexify,
    derivation_algebra,
    extend_derivation,
)
from liederiv.lie import (
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    bracket,
    center,
    is_derivation,
    restrict,
    validate_structure,
)
from liederiv.linalg import Q, Subspace, contains
from liederiv.parabolic import build_gl, build_standard_parabolic


def sl2():
    gl2 = build_gl(2)
    span = Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return restrict(gl2, span)


def doubled_subspace(sub, dim):
    """The image of a subspace under doubling: (v, 0) and (0, v) vectors."""
    vectors = []
    for v in sub.vectors():
        vectors.append(tuple(v) + tuple(Q(0) for _ in range(dim)))
        vectors.append(tuple(Q(0) for _ in range(dim)) + tuple(v))
    return Subspace.from_vectors(2 * dim, vectors)


def test_complexify_sl2():
    L = sl2()
    hat, J = complexify(L)
    assert hat.dim == 6
    assert validate_structure(hat).ok
    assert center(hat).dim == 0


def test_complexify_abelian_line():
    L = LieAlgebra(1, ("z",), [])
    hat, _ = complexify(L)
    assert hat.dim == 2
    assert not hat.triples()


def test_complexify_center_of_gl2():
    gl2 = build_gl(2)
    hat, J = complexify(gl2)
    z = center(hat)
    identity = (Q(1), Q(0), Q(0), Q(1))
    expected = Subspace.from_vectors(
        8,
        [tuple(identity) + (Q(0),) * 4, (Q(0),) * 4 + tuple(identity)],
    )
    assert z == expected  # the scalar line and its J-image
    assert z == doubled_subspace(center(gl2), 4)


def test_center_doubles_for_fixtures(golden_q):
    for L in (build_gl(2), sl2(), build_standard_parabolic((1, 1, 1), 3).algebra,
              golden_q.algebra):
        hat, _ = complexify(L)
        assert center(hat) == doubled_subspace(center(L), L.dim)


def test_j_squares_to_minus_one():
    L = sl2()
    hat, J = complexify(L)
    assert as_matrix(J) * as_matrix(J) + Matrix.identity(6) == Matrix.zeros(6, 6)


def test_embedding_is_a_homomorphism():
    # L embeds as the first L.dim coordinates: x_i is x_i of the doubled algebra
    L = build_gl(2)
    hat, _ = complexify(L)
    sc = structure_constants(L)
    for i in range(L.dim):
        for j in range(L.dim):
            assert bracket(hat, {i: 1}, {j: 1}) == sc.get((i, j), {})


def test_bracket_with_j_parts():
    # [x, J y] = J [x, y] and [J x, J y] = -[x, y] on generators
    L = sl2()
    hat, J = complexify(L)
    d = L.dim
    sc = structure_constants(L)
    for i in range(d):
        for j in range(d):
            plain = sc.get((i, j), {})
            assert bracket(hat, {i: 1}, {j + d: 1}) == {k + d: v for k, v in plain.items()}
            assert bracket(hat, {i + d: 1}, {j + d: 1}) == {k: -v for k, v in plain.items()}


def test_extend_ad_matches_embedded_ad():
    L = sl2()
    hat, _ = complexify(L)
    ext = extend_derivation(L, ad_matrix(L, {1: 1}), hat)
    assert ext == ad_matrix(hat, {1: 1})  # e embeds as coordinate 1


def test_extend_zero():
    L = sl2()
    hat, _ = complexify(L)
    ext = extend_derivation(L, EndoMatrix(L, [{}] * 3), hat)
    assert not any(ext.cols)


def test_extend_rejects_non_derivation():
    L = sl2()
    with pytest.raises(NotADerivationError):
        extend_derivation(L, identity(L))


def test_extensions_of_borel_oracle_basis(borel3_q, borel3_der):
    L = borel3_q.algebra
    hat, J = complexify(L)
    d = L.dim
    embed = Matrix(2 * d, d, [int(i == j) for i in range(2 * d) for j in range(d)])
    embedded = Subspace.from_vectors(2 * d, [embed.col(j) for j in range(d)])
    for flat in borel3_der.rows:
        ext = extend_derivation(L, EndoMatrix.from_flat(L, flat), hat)
        assert is_derivation(hat, ext)
        # commutes with J
        assert as_matrix(ext) * as_matrix(J) == as_matrix(J) * as_matrix(ext)
        # stabilizes the embedded copy
        for j in range(d):
            assert contains(embedded, sparse(as_matrix(ext).mul_vec(embed.col(j))))


def test_complexified_derivation_algebra_contains_extensions():
    L = sl2()
    hat, _ = complexify(L)
    der_hat = derivation_algebra(hat)
    for i in range(L.dim):
        ext = extend_derivation(L, ad_matrix(L, {i: 1}), hat)
        assert contains(der_hat, sparse(flatten(as_matrix(ext))))
