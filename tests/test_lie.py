import random
import re

import pytest

from dense_reference import Matrix, as_endo, as_matrix, dense_bracket, identity, sparse
from liederiv.derivations import derivation_algebra, random_combination
from liederiv.lie import (
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    bracket,
    bracket_span,
    center,
    first_leibniz_violation,
    is_derivation,
    restrict,
    validate_structure,
)
from liederiv.linalg import Q, Subspace, contains
from liederiv.parabolic import (
    BlockComposition,
    build_gl,
    build_standard_parabolic,
    compositions,
    root_value,
)


def abelian(dim):
    return LieAlgebra(dim, None, [])


def sl2():
    gl2 = build_gl(2)
    span = Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return restrict(gl2, span)  # canonical basis order: h, e, f


def test_validate_gl2_clean():
    assert validate_structure(build_gl(2)).ok


def test_validate_flags_antisymmetry_conflict():
    L = LieAlgebra(3, None, [(1, 2, 1, 1), (2, 1, 1, 1)])
    report = validate_structure(L)
    assert report.antisymmetry_violations == [(1, 2, 1)]


def test_validate_abelian():
    assert validate_structure(abelian(4)).ok


def test_validate_flags_jacobi():
    # [x0,x1] = x1, [x0,x2] = x2, [x1,x2] = x0: the cyclic sum on (0,1,2)
    # comes to 2*x0
    L = LieAlgebra(3, None, [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 1)])
    report = validate_structure(L)
    assert report.jacobi_violations == [(0, 1, 2)]


# -- validate_structure against a brute-force reference (hypothesis) ---------


def _reference_validation(dim, triples):
    """Both violation lists, computed from scratch from the raw triples:
    antisymmetry directly, Jacobi over all i < j < k on the constants the
    triples define. Those are canonicalised as ``LieAlgebra`` documents it:
    per (i, j, k), the sum of the explicit i < j triples wins, and i > j
    triples fold in by antisymmetry only where there is none."""
    given = {}
    for (i, j, k, v) in triples:
        given[(i, j, k)] = given.get((i, j, k), 0) + Q(v)
    anti = set()
    for i in range(dim):
        for k in range(dim):
            if given.get((i, i, k), 0) != 0:
                anti.add((i, i, k))
            for j in range(i + 1, dim):
                if (i, j, k) in given and (j, i, k) in given:
                    if given[(i, j, k)] + given[(j, i, k)] != 0:
                        anti.add((i, j, k))
    lower, upper = {}, {}
    for (i, j, k, v) in triples:
        if i < j and v:
            lower[(i, j, k)] = lower.get((i, j, k), 0) + Q(v)
        elif i > j and v:
            upper[(j, i, k)] = upper.get((j, i, k), 0) - Q(v)
    sc = {}  # (a, b) -> {k: c_ab^k} for both orders
    for (i, j, k), v in {**upper, **lower}.items():
        sc.setdefault((i, j), {})[k] = v
        sc.setdefault((j, i), {})[k] = -v

    def bracket_unit(a, b, c):  # [[x_a, x_b], x_c]
        out = {}
        for m, v in sc.get((a, b), {}).items():
            for t, w in sc.get((m, c), {}).items():
                out[t] = out.get(t, 0) + v * w
        return out

    jacobi = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                cyclic = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, v in bracket_unit(a, b, c).items():
                        cyclic[t] = cyclic.get(t, 0) + v
                if any(cyclic.values()):
                    jacobi.append((i, j, k))
    return sorted(anti), jacobi


def _assert_validates_like_reference(dim, triples):
    report = validate_structure(LieAlgebra(dim, None, triples))
    anti, jacobi = _reference_validation(dim, triples)
    assert report.antisymmetry_violations == anti
    assert report.jacobi_violations == jacobi


def test_property_validate_structure_matches_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))

    def case(dim):
        index = st.integers(0, dim - 1)
        # any (i, j): i < j, i > j and i == j triples all occur
        return st.tuples(st.just(dim), st.lists(st.tuples(index, index, index, rational), max_size=10))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 5).flatmap(case))
    def check(c):
        _assert_validates_like_reference(*c)

    check()


def test_parabolic_tables_validate_clean():
    for n in range(1, 6):
        for blocks in compositions(n):
            assert validate_structure(build_standard_parabolic(blocks).algebra).ok, blocks


def test_perturbed_golden_table_matches_reference(golden_q):
    triples = golden_q.algebra.triples()
    i, j, k, v = triples[17]
    triples[17] = (i, j, k, v + 1)
    anti, jacobi = _reference_validation(golden_q.dim, triples)
    assert jacobi  # one wrong constant breaks Jacobi somewhere
    _assert_validates_like_reference(golden_q.dim, triples)


def test_bracket_matrix_units_gl2():
    gl2 = build_gl(2)  # basis E[1,1], E[1,2], E[2,1], E[2,2]
    assert bracket(gl2, {1: 1}, {2: 1}) == {0: 1, 3: -1}


def _random_vector(rng, dim, lo, hi):
    return sparse([rng.randint(lo, hi) for _ in range(dim)])


def test_bracket_alternation_random():
    gl3 = build_gl(3)
    rng = random.Random(5)
    for _ in range(10):
        x = _random_vector(rng, 9, -4, 4)
        assert bracket(gl3, x, x) == {}


def _matrix_unit_oracle(n, A, B):
    """Commutator of two n x n matrices given as dense lists (the independent
    realization check)."""
    C = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    D = [[sum(B[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[C[i][j] - D[i][j] for j in range(n)] for i in range(n)]


def test_bracket_golden_coroot_root(golden_q):
    # h3 = e33 - e44 acts on e34 with eigenvalue 2: confirmed by multiplying
    # the 6x6 matrix units directly
    h3 = [[0] * 6 for _ in range(6)]
    h3[2][2], h3[3][3] = 1, -1
    e34 = [[0] * 6 for _ in range(6)]
    e34[2][3] = 1
    comm = _matrix_unit_oracle(6, h3, e34)
    assert comm == [[2 * e34[i][j] for j in range(6)] for i in range(6)]

    q = golden_q
    h = {q.coroot_index[3]: 1}
    x = {q.root_index[(3, 4)]: 1}
    assert bracket(q.algebra, h, x) == {k: 2 * c for k, c in x.items()}
    assert root_value(q, (3, 4), h) == 2
    assert root_value(q, (4, 5), h) == -1  # alpha_4 on h_3


def test_bracket_algebra_mismatch():
    # a vector of a larger algebra does not fit gl_2
    gl2 = build_gl(2)
    with pytest.raises(ValueError, match="out of range"):
        bracket(gl2, {4: 1}, {0: 1})
    with pytest.raises(ValueError, match="out of range"):
        bracket(gl2, {0: 1}, {-1: 1})


def test_bracket_span_gl2_derived():
    gl2 = build_gl(2)
    full = Subspace.full(4)
    derived = bracket_span(gl2, full, full)
    assert derived.dim == 3
    # trace-zero span in matrix-unit coordinates
    assert derived == Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_bracket_span_abelian():
    L = abelian(3)
    assert bracket_span(L, Subspace.full(3), Subspace.full(3)).dim == 0


def test_bracket_span_nilradical_closed(golden_q):
    q = golden_q
    assert bracket_span(q.algebra, q.nilradical, q.nilradical) <= q.nilradical


def test_center_gl3():
    gl3 = build_gl(3)
    z = center(gl3)
    identity_coords = [Q(1) if i in (0, 4, 8) else Q(0) for i in range(9)]
    assert z == Subspace.from_vectors(9, [identity_coords])


def test_center_sl2_trivial():
    assert center(sl2()).dim == 0


def test_center_abelian_full():
    assert center(abelian(2)) == Subspace.full(2)


def test_ad_matrix_sl2_diagonal():
    L = sl2()  # basis h, e, f
    adh = ad_matrix(L, {0: 1})
    assert as_matrix(adh) == Matrix.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, -2]])


def test_ad_of_central_element_zero():
    gl2 = build_gl(2)
    assert not any(ad_matrix(gl2, {0: 1, 3: 1}).cols)  # the identity matrix


def test_ad_is_homomorphism():
    gl3 = build_gl(3)
    rng = random.Random(23)
    for _ in range(5):
        x, y = _random_vector(rng, 9, -3, 3), _random_vector(rng, 9, -3, 3)
        lhs = as_matrix(ad_matrix(gl3, bracket(gl3, x, y)))
        ax, ay = as_matrix(ad_matrix(gl3, x)), as_matrix(ad_matrix(gl3, y))
        assert lhs == ax * ay - ay * ax


def test_restrict_gl2_to_sl2_table():
    L = sl2()
    assert L.dim == 3
    # basis order (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    assert L.triples() == [(0, 1, 1, Q(2)), (0, 2, 2, Q(-2)), (1, 2, 0, Q(1))]


def test_restrict_full_is_same_table():
    # the golden composition at root_scale 3/2 has N = 4
    scaled = build_standard_parabolic((3, 2, 1), root_scale=Q(3, 2)).algebra
    assert scaled.denominator == 4
    for L in (build_gl(2), scaled):
        again = restrict(L, Subspace.full(L.dim))
        assert again.triples() == L.triples()
        assert again.labels == L.labels
        assert (again.int_table, again.denominator) == (L.int_table, L.denominator)


def test_restrict_not_closed():
    gl2 = build_gl(2)
    span = Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError, match="bracket-closed"):
        restrict(gl2, span)


def test_is_derivation_ad_random():
    gl3 = build_gl(3)
    rng = random.Random(31)
    for _ in range(5):
        x = _random_vector(rng, 9, -3, 3)
        assert is_derivation(gl3, ad_matrix(gl3, x))


def test_identity_map_not_derivation_on_sl2():
    L = sl2()
    assert not is_derivation(L, identity(L))


def test_any_map_is_derivation_on_abelian():
    L = abelian(2)
    rng = random.Random(37)
    m = Matrix(2, 2, [rng.randint(-5, 5) for _ in range(4)])
    assert is_derivation(L, as_endo(L, m))


def _first_leibniz_failure(L, m):
    """First i < j with D[x_i, x_j] != [D x_i, x_j] + [x_i, D x_j], by dense
    coordinate vectors and the dense matrix m of D."""
    units = Matrix.identity(L.dim)
    for i in range(L.dim):
        xi = units.row(i)
        for j in range(i + 1, L.dim):
            xj = units.row(j)
            lhs = m.mul_vec(dense_bracket(L, xi, xj))
            a, b = dense_bracket(L, m.mul_vec(xi), xj), dense_bracket(L, xi, m.mul_vec(xj))
            if lhs != tuple(s + t for s, t in zip(a, b)):
                return (i, j)
    return None


@pytest.mark.parametrize("algebra", ["golden", "scaled"])
@pytest.mark.parametrize("form", ["rational", "columns"])
def test_first_leibniz_violation_matches_elementwise(request, form, algebra):
    if algebra == "golden":
        q, der = request.getfixturevalue("golden_q"), request.getfixturevalue("golden_der")
    else:
        q = build_standard_parabolic((2, 2, 1), root_scale=Q(3, 2))
        der = derivation_algebra(q.algebra)
    L = q.algebra
    d = L.dim
    rng = random.Random(53)
    # "rational" divides each map by 7, so the columns hold non-integers
    scale = Q(1, 7) if form == "rational" else 1
    cases = [identity(L)]
    for _ in range(8):
        flat = random_combination(der, rng)
        cases.append(EndoMatrix.from_flat(L, flat))
        f = rng.randrange(d * d)
        flat[f] = flat.get(f, 0) + rng.choice((-3, -1, 1, 2))
        cases.append(EndoMatrix.from_flat(L, flat))
    cases = [EndoMatrix(L, [{i: scale * e for i, e in c.items()} for c in E.cols]) for E in cases]
    found = [first_leibniz_violation(L, E) for E in cases]
    assert found == [_first_leibniz_failure(L, as_matrix(E)) for E in cases]
    assert found[0] is not None and found[1] is None
    assert sum(pair is not None for pair in found) >= 5


def test_inner_derivations_stabilize_ideals(golden_q):
    q = golden_q
    rng = random.Random(41)
    derived = q.derived
    for _ in range(5):
        x = _random_vector(rng, q.dim, -4, 4)
        ax = as_matrix(ad_matrix(q.algebra, x))
        for ideal in (q.nilradical, q.derived):
            for v in ideal.vectors():
                assert contains(ideal, sparse(ax.mul_vec(v)))
        for j in range(q.dim):
            assert contains(derived, sparse(ax.col(j)))


def test_derivations_stabilize_derived_and_center(borel3_q, borel3_der):
    q = borel3_q
    derived, z = q.derived, q.g_z
    for flat in borel3_der.rows:
        D = as_matrix(EndoMatrix.from_flat(q.algebra, flat))
        for v in derived.vectors():
            assert contains(derived, sparse(D.mul_vec(v)))
        for v in z.vectors():
            assert contains(z, sparse(D.mul_vec(v)))


def test_center_of_parabolic_is_scalar_line(golden_q, borel3_q):
    for q in (golden_q, borel3_q):
        assert center(q.algebra) == q.g_z


def test_json_round_trip():
    # at root_scale 3/2 the "sc" strings include "p/q" forms such as "9/4"
    scaled = build_standard_parabolic((2, 1), root_scale=Q(3, 2)).algebra
    for L in (build_gl(2), scaled):
        data = L.to_json_dict()
        again = LieAlgebra.from_json_dict(data)
        assert again.dim == L.dim
        assert again.labels == L.labels
        assert again.triples() == L.triples()


@pytest.mark.parametrize(
    "build,named",
    [
        (lambda: LieAlgebra(2, None, [(0, 1, 1, 0.1)]), "triple (0, 1, 1, 0.1)"),
        (lambda: LieAlgebra(2, None, [(True, 1, 1, 1)]), "triple (True, 1, 1, 1)"),
        (lambda: LieAlgebra(2, None, [(0, 1.0, 1, 1)]), "triple (0, 1.0, 1, 1)"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2, "sc": [[0, 1, 1, "0.5"]]}),
         "triple (0, 1, 1, '0.5')"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2, "sc": [[0, 1, 1, "1e2"]]}),
         "triple (0, 1, 1, '1e2')"),
        (lambda: build_standard_parabolic((2,), root_scale=0.1), "root_scale"),
        (lambda: Subspace.from_vectors(2, [[0.5, 0]]), "entry 0.5 is not"),
        (lambda: LieAlgebra.from_json_dict([2, []]), "must be an object"),
        (lambda: LieAlgebra.from_json_dict({"sc": []}), "dim None"),
        (lambda: LieAlgebra.from_json_dict({"dim": "2", "sc": []}), "dim '2'"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2, "basis": "xy", "sc": []}), "must be lists"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2}), "must be lists"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2, "sc": [5]}), "sc triple"),
        (lambda: LieAlgebra.from_json_dict({"dim": 2, "sc": [[0, 1, 1]]}), "sc triple"),
        (lambda: LieAlgebra(True, None, []), "dim True"),
        (lambda: BlockComposition(2, (1.9, 1)), "must be ints"),
        (lambda: BlockComposition(2, (True, True)), "must be ints"),
        (lambda: BlockComposition(2.0, (1, 1)), "must be ints"),
        (lambda: build_standard_parabolic((2,), extra_center=1.5), "extra_center 1.5"),
        (lambda: build_standard_parabolic((2,), extra_center=True), "extra_center True"),
    ],
    ids=["float-constant", "bool-index", "float-index", "json-decimal", "json-exponent",
         "float-root-scale", "float-vector-entry", "json-not-object", "json-no-dim",
         "json-string-dim", "json-string-basis", "json-no-sc", "json-int-triple",
         "json-short-triple", "bool-dim", "float-block", "bool-blocks", "float-n",
         "float-extra-center", "bool-extra-center"],
)
def test_library_rejects_inexact_input(build, named):
    # the rule the CLI applies to matrix entries: an int that is not a bool,
    # a Fraction, or a "p" / "p/q" string; sizes and counts are ints that are
    # not bools, and algebra JSON has the shape that to_json_dict writes
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_endomatrix_matches_dense_matrices():
    gl3 = build_gl(3)
    rng = random.Random(71)

    def random_matrix():
        return Matrix(9, 9, [Q(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else 0
                             for _ in range(81)])

    for _ in range(10):
        a, b = random_matrix(), random_matrix()
        A, B = as_endo(gl3, a), as_endo(gl3, b)
        assert as_matrix(A) == a
        assert as_matrix(A + B) == a + b and as_matrix(A - B) == a - b
        assert (A == B) == (a == b) and A - A == EndoMatrix(gl3, [{}] * 9)
        assert EndoMatrix.from_flat(gl3, A.flat()) == A
        assert all(A.flat().get(j * 9 + i, 0) == a.at(i, j) for i in range(9) for j in range(9))
        v = {i: Q(rng.randint(-3, 3)) for i in rng.sample(range(9), 4)}
        assert [A.apply(v).get(i, 0) for i in range(9)] == list(a.mul_vec(
            [v.get(i, 0) for i in range(9)]))


def test_endomatrix_rejects_bad_shapes():
    gl2 = build_gl(2)
    with pytest.raises(ValueError, match="column count"):
        EndoMatrix(gl2, [{}] * 3)
    with pytest.raises(ValueError, match="row index"):
        EndoMatrix(gl2, [{4: 1}, {}, {}, {}])
    with pytest.raises(ValueError, match="flat index"):
        EndoMatrix.from_flat(gl2, {16: 1})
    with pytest.raises(ValueError, match="different algebras"):
        identity(gl2) + identity(build_gl(2))
