import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import pytest

from dense_reference import Matrix, as_endo, as_matrix, dense_bracket, identity, sparse
from entry_cases import INT_ONLY, OVERLONG, SPELLINGS, digit_limit, needs_digit_limit
from root_reference import root_value
from scaled_reference import scaled_parabolic
import liederiv
from liederiv import lie, parabolic
from liederiv.derivations import (
    complexify,
    derivation_algebra,
    dimension_formula,
    random_combination,
    verify_main_theorem,
)
from liederiv.lie import (
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    bracket,
    bracket_span,
    center,
    first_leibniz_violation,
    grading,
    restrict,
    validate_structure,
)
from liederiv.linalg import (
    Q,
    Subspace,
    _RowReducer,
    contains,
    is_direct_sum,
    nullspace_of_rows,
    solve,
    subspace_intersect,
)
from liederiv.parabolic import (
    BlockComposition,
    adapted_subspaces,
    build_gl,
    build_standard_parabolic,
    compositions,
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
    # the constructor refuses the conflict; the JSON reader goes through it
    triples = [(1, 2, 1, 1), (2, 1, 1, 1)]
    named = re.escape("(1, 2, 1)")
    with pytest.raises(ValueError, match=named):
        LieAlgebra(3, None, triples)
    with pytest.raises(ValueError, match=named):
        LieAlgebra.from_json_dict({"dim": 3, "sc": [list(t) for t in triples]})


@pytest.mark.parametrize("extra", [[(2, 1, 1, -1)], [(1, 1, 0, 0)]],
                         ids=["both-orientations", "zero-self-bracket"])
def test_consistent_antisymmetric_input_is_accepted(extra):
    # a pair given at both orientations with opposite entries, or a zero
    # [x_i, x_i] entry, gives the table of the i < j triple alone
    alone = LieAlgebra(3, None, [(1, 2, 1, 1)])
    L = LieAlgebra(3, None, [(1, 2, 1, 1), *extra])
    assert L.int_table == alone.int_table and L.denominator == alone.denominator
    assert L.triples() == [(1, 2, 1, 1)]


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
    triples define. Those are canonicalised from the sums of the i < j
    triples, the i > j ones folding in by antisymmetry where none is given;
    where there is no antisymmetry defect, that is the table as
    ``LieAlgebra`` documents it."""
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
    # the constructor refuses exactly the inputs with an antisymmetry
    # defect, naming the first; every other one validates like the reference
    anti, jacobi = _reference_validation(dim, triples)
    if anti:
        with pytest.raises(ValueError, match="at " + re.escape(str(anti[0]))):
            LieAlgebra(dim, None, triples)
    else:
        assert validate_structure(LieAlgebra(dim, None, triples)).jacobi_violations == jacobi


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


def test_ad_matrix_rejects_out_of_range_indices():
    # as bracket does: a negative index must not wrap round to the last
    # basis vector, and one past the end must not surface as an IndexError
    gl2 = build_gl(2)
    with pytest.raises(ValueError, match="out of range"):
        ad_matrix(gl2, {-1: 1})
    with pytest.raises(ValueError, match="out of range"):
        ad_matrix(gl2, {9: 1})
    # and so does EndoMatrix.apply
    with pytest.raises(ValueError, match="out of range"):
        identity(gl2).apply({-1: 1})
    with pytest.raises(ValueError, match="out of range"):
        identity(gl2).apply({4: 1})


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
    nilradical = adapted_subspaces(q)["nilradical"]
    nil = bracket_span(q.algebra, nilradical, nilradical)
    assert all(contains(nilradical, row) for row in nil.rows)


def test_center_gl3():
    gl3 = build_gl(3)
    z = center(gl3)
    identity_coords = [Q(1) if i in (0, 4, 8) else Q(0) for i in range(9)]
    assert z == Subspace.from_vectors(9, [identity_coords])


def test_center_of_coordinate_subalgebra():
    # E[1,1], E[1,2], E[2,1], E[2,2], E[3,3] span gl_2 + gl_1 inside gl_3
    gl3 = build_gl(3)
    span = Subspace.units(9, [8, 0, 1, 3, 4])
    z = Subspace.from_sparse(9, map(span.combination, center(restrict(gl3, span)).rows))
    assert z == Subspace.from_vectors(9, [[1, 0, 0, 0, 1, 0, 0, 0, 0], [0] * 8 + [1]])


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


def _table_of(L):
    # the table with its key order, which == on dicts ignores
    return [[(j, list(ks.items())) for j, ks in row.items()] for row in L.int_table], L.denominator


@pytest.mark.parametrize("scale", [1, Q(3, 2)], ids=["integral", "scaled"])
def test_every_input_form_gives_one_table(scale):
    # one table given as the triples' values, as strings, as Fractions
    # (integral ones included), and with each key split over two triples
    L = scaled_parabolic((3, 2, 1), scale).algebra
    ts = L.triples()
    forms = [ts,
             [(i, j, k, str(v)) for i, j, k, v in ts],
             [(i, j, k, Q(v)) for i, j, k, v in ts],
             [t for i, j, k, v in ts for t in ((i, j, k, v - 1), (i, j, k, 1))]]
    want = _table_of(LieAlgebra(L.dim, L.labels, ts))
    assert want[1] == L.denominator
    for triples in forms:
        assert _table_of(LieAlgebra(L.dim, L.labels, triples)) == want


def test_triples_are_ints_on_an_integral_table_and_fractions_otherwise():
    # scaled by 3/2, a table with an odd constant has N = 2 and writes every
    # constant as a Fraction; one whose constants are all even stays integral
    fractional = 0
    for extra in (0, 1):
        for n in range(1, 7):
            for blocks in compositions(n):
                L = build_standard_parabolic(blocks, extra_center=extra).algebra
                ts = L.triples()
                assert all(type(v) is int for *_, v in ts), (blocks, extra)
                S = LieAlgebra(L.dim, L.labels, [(i, j, k, v * Q(3, 2)) for i, j, k, v in ts])
                odd = any(v % 2 for *_, v in ts)
                assert S.denominator == (2 if odd else 1)
                assert [type(v) for *_, v in S.triples()] == [Q if odd else int] * len(ts)
                fractional += odd
    assert fractional == 2 * (2 ** 6 - 1) - 4  # all but (1,) and (1, 1) at each extra


def _sc_with(entry):
    return {"dim": 3, "sc": [[0, 1, 1, 2], [0, 2, 2, -2], [1, 2, 0, entry]]}


def _refused(entry):
    with pytest.raises(ValueError) as info:
        LieAlgebra.from_json_dict(_sc_with(entry))
    assert str(info.value) == (f"entry {json.dumps(entry)} is not an integer or a rational "
                               f"string in triple {(1, 2, 0, entry)!r}")


@pytest.mark.parametrize("entry", INT_ONLY)
def test_from_json_dict_refuses_integer_strings_that_only_int_reads(entry):
    # the decompose reader's refusal set, held to the same rule
    assert int(entry) in (3, 7, 10)
    _refused(entry)


@needs_digit_limit
@pytest.mark.parametrize("sign", ["", "-"])
def test_from_json_dict_refuses_an_integer_string_over_the_digit_limit(sign):
    with digit_limit():
        _refused(sign + OVERLONG)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_from_json_dict_reads_integer_spellings_as_the_plain_int(spelling):
    plain = LieAlgebra.from_json_dict(_sc_with(SPELLINGS[spelling]))
    assert _table_of(LieAlgebra.from_json_dict(_sc_with(spelling))) == _table_of(plain)


def test_restrict_gl2_to_sl2_table():
    L = sl2()
    assert L.dim == 3
    # basis order (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    assert L.triples() == [(0, 1, 1, Q(2)), (0, 2, 2, Q(-2)), (1, 2, 0, Q(1))]


def test_restrict_full_is_same_table():
    # the golden composition with root generators 3/2 e_ij has N = 4
    scaled = scaled_parabolic((3, 2, 1), Q(3, 2)).algebra
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
        assert first_leibniz_violation(gl3, ad_matrix(gl3, x)) is None


def test_identity_map_not_derivation_on_sl2():
    L = sl2()
    assert first_leibniz_violation(L, identity(L)) is not None


def test_any_map_is_derivation_on_abelian():
    L = abelian(2)
    rng = random.Random(37)
    m = Matrix(2, 2, [rng.randint(-5, 5) for _ in range(4)])
    assert first_leibniz_violation(L, as_endo(L, m)) is None


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
        q = scaled_parabolic((2, 2, 1), Q(3, 2))
        der = derivation_algebra(q.algebra)
    L = q.algebra
    d = L.dim
    rng = random.Random(53)
    # "rational" divides each map by 7, so the columns hold non-integers
    scale = Q(1, 7) if form == "rational" else 1
    cases = [identity(L)]
    for _ in range(8):
        D = random_combination(L, der, rng)
        cases.append(D)
        flat = D.flat()
        f = rng.randrange(d * d)
        flat[f] = flat.get(f, 0) + rng.choice((-3, -1, 1, 2))
        cases.append(EndoMatrix.from_flat(L, flat))
    cases = [EndoMatrix(L, [{i: scale * e for i, e in c.items()} for c in E.cols], E.den)
             for E in cases]
    found = [first_leibniz_violation(L, E) for E in cases]
    assert found == [_first_leibniz_failure(L, as_matrix(E)) for E in cases]
    assert found[0] is not None and found[1] is None
    assert sum(pair is not None for pair in found) >= 5


def test_inner_derivations_stabilize_ideals(golden_q):
    q = golden_q
    rng = random.Random(41)
    derived = Subspace.units(q.dim, q.derived_indices)
    for _ in range(5):
        x = _random_vector(rng, q.dim, -4, 4)
        ax = as_matrix(ad_matrix(q.algebra, x))
        for ideal in (adapted_subspaces(q)["nilradical"], derived):
            for v in ideal.vectors():
                assert contains(ideal, sparse(ax.mul_vec(v)))
        for j in range(q.dim):
            assert contains(derived, sparse(ax.col(j)))


def test_derivations_stabilize_derived_and_center(borel3_q, borel3_der):
    q = borel3_q
    derived, z = (Subspace.units(q.dim, ix) for ix in (q.derived_indices, q.center_indices))
    for flat in borel3_der.rows:
        D = as_matrix(EndoMatrix.from_flat(q.algebra, flat))
        for v in derived.vectors():
            assert contains(derived, sparse(D.mul_vec(v)))
        for v in z.vectors():
            assert contains(z, sparse(D.mul_vec(v)))


def test_center_of_parabolic_is_scalar_line(golden_q, borel3_q):
    for q in (golden_q, borel3_q):
        assert center(q.algebra) == Subspace.units(q.dim, q.center_indices)


def test_json_round_trip():
    # with root generators 3/2 e_ij the "sc" strings include "p/q" forms such as "9/4"
    scaled = scaled_parabolic((2, 1), Q(3, 2)).algebra
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
         "float-vector-entry", "json-not-object", "json-no-dim",
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


def _assign_rows():
    Subspace.full(2).rows = ()


@pytest.mark.parametrize(
    "call,error,named",
    [
        (lambda: LieAlgebra(2, ["a"], []), ValueError, "label count does not match dimension"),
        (lambda: LieAlgebra(2, None, [(0, 2, 1, 1)]), ValueError,
         "triple (0,2,1) out of range for dim 2"),
        (lambda: bracket_span(build_gl(2), Subspace.full(4), Subspace.full(3)), ValueError,
         "subspace ambient dimension does not match algebra"),
        (lambda: restrict(build_gl(2), Subspace.full(3)), ValueError,
         "subspace ambient dimension does not match algebra"),
        (lambda: first_leibniz_violation(build_gl(2), identity(abelian(3))), ValueError,
         "column count does not match algebra dimension"),
        (lambda: verify_main_theorem(build_standard_parabolic((2, 1)), Subspace.full(9)),
         ValueError, "ambient dimensions differ"),
        (lambda: dimension_formula(-1, 1, 0, 3), ValueError, "arguments must be nonnegative"),
        (lambda: solve(2, [{0: 1}], [1, 2]), ValueError,
         "right-hand side length does not match row count"),
        (_assign_rows, AttributeError, "Subspace is immutable"),
        (lambda: BlockComposition(0, (1,)), ValueError, "n must be at least 1"),
        (lambda: list(compositions(0)), ValueError, "n must be at least 1"),
    ],
    ids=["label-count", "triple-out-of-range", "bracket-span-ambient", "restrict-ambient",
         "leibniz-column-count", "theorem-ambient", "formula-negative", "solve-rhs-length",
         "subspace-assignment", "composition-of-0", "compositions-of-0"],
)
def test_library_rejects_mismatched_sizes(call, error, named):
    # sizes that do not fit together raise with a message naming the
    # mismatch, and a Subspace takes no assignment
    with pytest.raises(error, match=re.escape(named)):
        call()


# every public entry point that takes a sparse vector, as (id, bound, call on
# the vector); units reads only its indices, so it has no bad value to meet
_SPARSE_ENTRY_POINTS = [
    ("bracket-x", 4, lambda v: bracket(build_gl(2), v, {0: 1})),
    ("bracket-y", 4, lambda v: bracket(build_gl(2), {0: 1}, v)),
    ("ad-matrix", 4, lambda v: ad_matrix(build_gl(2), v)),
    ("endomatrix", 4, lambda v: EndoMatrix(build_gl(2), [{}, v, {}, {}])),
    ("from-flat", 16, lambda v: EndoMatrix.from_flat(build_gl(2), v)),
    ("apply", 4, lambda v: identity(build_gl(2)).apply(v)),
    ("contains", 2, lambda v: contains(Subspace.full(2), v)),
    ("coordinates-of", 2, lambda v: Subspace.full(2).coordinates_of(v)),
    ("combination", 2, lambda v: Subspace.full(2).combination(v)),
    ("units", 2, lambda v: Subspace.units(2, v)),
    ("nullspace-of-rows", 2, lambda v: nullspace_of_rows(2, [v])),
    ("solve", 2, lambda v: solve(2, [v], [1])),
]
_BAD_SPARSE_VECTORS = [
    ("float-index", lambda bound: {0.5: 1}, "index 0.5 out of range"),
    ("bool-index", lambda bound: {True: 1}, "index True out of range"),
    ("negative-index", lambda bound: {-1: 1}, "index -1 out of range"),
    ("index-at-bound", lambda bound: {bound: 1}, "out of range"),
    ("float-value", lambda bound: {0: 0.5}, "value 0.5 "),
]
_BAD_SPARSE_CASES = [
    pytest.param(lambda f=f, bound=bound, bad=bad: f(bad(bound)), named, id=f"{name}-{kind}")
    for name, bound, f in _SPARSE_ENTRY_POINTS
    for kind, bad, named in _BAD_SPARSE_VECTORS
    if not (name == "units" and kind == "float-value")
]


@pytest.mark.parametrize(
    "call,named",
    _BAD_SPARSE_CASES + [
        (lambda: contains(Subspace.full(2), {0: 0.1}), "value 0.1 "),
        (lambda: bracket(build_gl(2), {1: 0.5}, {2: 1}), "value 0.5 "),
        (lambda: ad_matrix(build_gl(2), {1: True}), "value True "),
        (lambda: EndoMatrix(build_gl(2), [{0: 1}, {1: "1/2"}, {}, {}]), "value '1/2' "),
        (lambda: Subspace.full(2).coordinates_of({0: 0.5}), "value 0.5 "),
        (lambda: Subspace.full(2).combination({0: 0.5}), "value 0.5 "),
        (lambda: identity(build_gl(2)).apply({0: 0.5}), "value 0.5 "),
        (lambda: identity(build_gl(2)).apply({1: "1/2"}), "value '1/2' "),
        (lambda: EndoMatrix(build_gl(2), [{}] * 4, Q(2)), "den Fraction(2, 1) "),
        (lambda: EndoMatrix(build_gl(2), [{}] * 4, 0), "den 0 "),
        (lambda: solve(2, [{0: 1}], [0.5]), "right-hand side value 0.5 "),
        (lambda: solve(2, [{0: 1, 2: 5}], [1]), "row index 2 out of range"),
        (lambda: nullspace_of_rows(2, [{5: 1}]), "row index 5 out of range"),
        (lambda: Subspace.from_sparse(2, [{0: 0.5}]), "vector value 0.5 "),
        (lambda: Subspace.from_sparse(2, [{0: "1/2"}]), "vector value '1/2' "),
        (lambda: Subspace.from_sparse(3, [{1: 1}, {1.0: 1}]), "vector index 1.0 out of range"),
        (lambda: Subspace.from_sparse(3, [{1: 1}, {True: 2}]), "vector index True out of range"),
        (lambda: Subspace.from_sparse(2, [{0: True}]), "vector value True "),
        (lambda: Subspace.from_sparse(2, [[1, 0]]), "vector is not a sparse dict"),
    ],
    ids=[p.id for p in _BAD_SPARSE_CASES] + [
        "contains-float", "bracket-float", "ad-matrix-bool", "endomatrix-string",
        "coordinates-of-float", "combination-float", "apply-float", "apply-string",
        "endomatrix-fraction-den", "endomatrix-zero-den", "solve-rhs-float",
        "solve-stray-column", "nullspace-of-rows-stray-column", "from-sparse-float",
        "from-sparse-string", "from-sparse-float-index-reduced-away",
        "from-sparse-bool-index-reduced-away", "from-sparse-bool-value", "from-sparse-list"],
)
def test_sparse_entry_points_reject_inexact_values(call, named):
    # the public sparse-vector entry points take only int (not bool) indices
    # in range and int (not bool) or Fraction values, by require_vector;
    # from_sparse checks each vector before it reduces it, so an entry the
    # reduction would cancel or absorb is caught too
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_every_door_feeds_the_reducer_int_rows_only(monkeypatch):
    # require_vector clears each public input to ints before the eliminator
    # sees it: with reduce wrapped to refuse any other value, every door
    # takes Fraction and Fraction(k, 1) values and still reaches the
    # reducer, and so do the oracle and the theorem check on a table with
    # denominator N = 4
    real = _RowReducer.reduce
    fed = []

    def ints_only(red, row):
        assert all(type(e) is int for e in row.values()), row
        fed.append(row)
        return real(red, row)

    monkeypatch.setattr(_RowReducer, "reduce", ints_only)
    q = scaled_parabolic((3, 2, 1), Q(3, 2))
    L = q.algebra
    assert L.denominator == 4
    small = scaled_parabolic((2, 1), Q(3, 2)).algebra
    half, two = Q(1, 2), Q(2, 1)
    a = Subspace.from_sparse(3, [{0: half, 1: two}, {2: Q(-3, 4)}])
    b = Subspace.from_sparse(3, [{0: two, 1: Q(8)}, {1: Q(1, 3), 2: two}])
    derived = bracket_span(small, Subspace.full(small.dim), Subspace.full(small.dim))
    closed = Subspace.from_sparse(small.dim, [{c: half * e for c, e in r.items()}
                                              for r in derived.rows])
    doors = {
        "from_vectors": lambda: Subspace.from_vectors(2, [[half, two], [two, Q(4)]]),
        "from_sparse": lambda: Subspace.from_sparse(2, [{0: half, 1: two}, {1: Q(-3)}]),
        "nullspace_of_rows": lambda: nullspace_of_rows(3, [{0: half, 2: two}, {1: Q(5)}]),
        "solve": lambda: solve(2, [{0: half, 1: two}, {1: Q(3)}], [two, half]),
        "contains": lambda: contains(a, {0: Q(1, 4), 1: Q(1)}),
        "coordinates_of": lambda: a.coordinates_of({0: Q(1, 4), 1: Q(1), 2: Q(3, 2)}),
        "subspace_intersect": lambda: subspace_intersect(a, b),
        "is_direct_sum": lambda: is_direct_sum(
            [a, Subspace.from_sparse(3, [{1: Q(1, 3)}])], Subspace.full(3)),
        "bracket_span": lambda: bracket_span(small, closed, closed),
        "center": lambda: center(small),
        "restrict": lambda: restrict(small, closed),
    }
    for name, door in doors.items():
        before = len(fed)
        door()
        assert len(fed) > before, name
    assert solve(2, [{0: half, 1: two}, {1: Q(3)}], [two, half]) == {0: Q(10, 3), 1: Q(1, 6)}
    assert a.coordinates_of({0: Q(1, 4), 1: Q(1), 2: Q(3, 2)}) == {0: Q(1, 4), 1: Q(3, 2)}
    before = len(fed)
    der = derivation_algebra(L)
    assert verify_main_theorem(q, der).ok and len(fed) > before


_ENTRY_VALUES = (0, 1, -2, 3, Q(0), Q(2), Q(-3), Q(1, 2), Q(-2, 3), Q(5, 4))


def _vector_strategy(st, dim):
    """Sparse vectors of length dim whose values are ints, integral
    Fractions or proper Fractions, explicit zeros of both kinds included."""
    return st.dictionaries(st.integers(0, dim - 1), st.sampled_from(_ENTRY_VALUES), max_size=dim)


def _over_rule(result, den):
    # the one rule for a vector result: all ints where the combined
    # denominator is 1, else all Fractions
    kind = int if den == 1 else Q
    return all(type(e) is kind for e in result.values())


def _den(v):
    """The lcm of the denominators of v's values, 1 for an integral v."""
    return lcm(*(Q(e).denominator for e in v.values()))


def test_property_vector_results_follow_one_rule():
    # bracket, apply, combination, coordinates_of and ad_matrix equal a
    # Fraction reference, and a vector result is all ints exactly when the
    # table's N (or the map's den) is 1 and every input value is integral,
    # else all Fractions; a coordinate is an int where the input is integral
    # and its row's pivot is 1
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tables = [build_gl(2), build_standard_parabolic((2, 1)).algebra,
              scaled_parabolic((2, 1), Q(3, 2)).algebra]
    assert [L.denominator for L in tables] == [1, 1, 4]

    def reference_bracket(L, x, y):
        out = {}
        for i, j, k, c in L.triples():
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                out[k] = out.get(k, 0) + sign * Q(x.get(a, 0)) * Q(y.get(b, 0)) * c
        return {k: e for k, e in out.items() if e}

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(tables), st.data())
    def check(L, data):
        d = L.dim
        x, y = data.draw(_vector_strategy(st, d)), data.draw(_vector_strategy(st, d))
        out = bracket(L, x, y)
        assert out == reference_bracket(L, x, y)
        assert _over_rule(out, L.denominator * _den(x) * _den(y))

        ad = ad_matrix(L, x)
        assert all(type(e) is int for c in ad.cols for e in c.values())
        assert _over_rule(ad.flat(), ad.den)
        assert {j: ad.apply({j: 1}) for j in range(d)} == {
            j: reference_bracket(L, x, {j: 1}) for j in range(d)}

        flat = data.draw(st.dictionaries(st.integers(0, d * d - 1),
                                         st.sampled_from(_ENTRY_VALUES), max_size=2 * d))
        m = EndoMatrix.from_flat(L, flat)
        image = m.apply(y)
        assert image == {i: e for i in range(d) if (e := sum(
            (Q(flat.get(j * d + i, 0)) * Q(v) for j, v in y.items()), Q(0)))}
        assert _over_rule(image, m.den * _den(y))

        space = bracket_span(L, Subspace.full(d), Subspace.full(d))
        coeffs = data.draw(_vector_strategy(st, space.dim)) if space.dim else {}
        v = space.combination(coeffs)
        assert v == {j: e for j in range(d) if (e := sum(
            (Q(c) * space.rows[k].get(j, 0) for k, c in coeffs.items()), Q(0)))}
        assert _over_rule(v, _den(coeffs))
        coords = space.coordinates_of(v)
        assert coords == {k: c for k, c in coeffs.items() if c}
        pivots = [next(iter(r.values())) for r in space.rows]
        assert all(type(c) is (int if _den(v) * pivots[k] == 1 else Q) for k, c in coords.items())

    check()
    gl2 = build_gl(2)
    twice = EndoMatrix(gl2, [{j: 2} for j in range(4)])
    assert twice.den == 1
    for result, expected in [
            (twice.apply({0: Q(1, 2)}), {0: Q(1)}),
            (twice.apply({0: Q(2, 1)}), {0: 4}),
            (bracket(gl2, {1: Q(2, 1)}, {2: 1}), {0: 2, 3: -2}),
            (bracket(gl2, {1: Q(1, 2)}, {2: 2}), {0: Q(1), 3: Q(-1)}),
            (Subspace.full(2).combination({0: Q(2, 1)}), {0: 2})]:
        assert result == expected
        assert [type(e) for e in result.values()] == [type(e) for e in expected.values()]


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


def test_property_endomatrix_form_is_canonical():
    # one map, built five ways, has one (cols, den): integer columns over a
    # positive den sharing no factor with all of them, den 1 for the zero map
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    gl2 = build_gl(2)
    entry = st.one_of(st.just(0), st.builds(Q, st.integers(-6, 6), st.integers(1, 6)))
    flat_map = st.lists(entry, min_size=16, max_size=16).map(
        lambda es: {f: e for f, e in enumerate(es) if e})

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(flat_map, flat_map, st.integers(2, 12))
    def check(true, other, k):
        den = lcm(*(Q(e).denominator for e in true.values()))
        ints = {f: int(e * den) for f, e in true.items()}
        B = EndoMatrix.from_flat(gl2, other)
        forms = [
            EndoMatrix.from_flat(gl2, ints, den),
            EndoMatrix.from_flat(gl2, {f: Q(e) for f, e in true.items()}),
            EndoMatrix.from_flat(gl2, {f: k * e for f, e in ints.items()}, k * den),
            EndoMatrix.from_flat(gl2, {f: Q(k * e) for f, e in true.items()}, k),
        ]
        forms.append(forms[1] + B - B)
        A = forms[0]
        assert all((E.cols, E.den) == (A.cols, A.den) for E in forms)
        entries = [e for c in A.cols for e in c.values()]
        assert all(type(e) is int and e for e in entries) and type(A.den) is int
        assert gcd(A.den, *entries) == 1
        assert A.flat() == true
        assert {type(e) for e in A.flat().values()} <= ({int} if A.den == 1 else {Q})
        assert A.dense_rows() == [[true.get(j * 4 + i, 0) for j in range(4)] for i in range(4)]

    check()


# every composition of n <= 4 with and without an extra central generator,
# and one at a rational root scale, whose table has denominator 4
CANONICAL_CASES = (
    [(b, z, 1) for n in range(1, 5) for b in compositions(n) for z in (0, 1)]
    + [((2, 1, 2), 0, Q(3, 2))]
)


def test_library_built_maps_are_canonical():
    # ad_matrix and +/- build their maps from integer columns without the
    # public constructor; reading a map back through it must change nothing
    rng = random.Random(18)
    for blocks, z, s in CANONICAL_CASES:
        L = scaled_parabolic(blocks, s, extra_center=z).algebra
        ads = [ad_matrix(L, {i: 1}) for i in range(L.dim)]
        ads += [ad_matrix(L, {i: Q(rng.randint(-4, 4), rng.randint(1, 6))
                              for i in rng.sample(range(L.dim), min(3, L.dim))})
                for _ in range(4)]
        maps = ads + [a + b for a in ads for b in ads[-4:]] + [a - b for a in ads for b in ads[-4:]]
        maps += [a + a for a in ads] + [a - a for a in ads]
        for m in maps:
            assert EndoMatrix.from_flat(L, m.flat()) == m, (blocks, z, s)
        zero = ads[-1] - ads[-1]
        assert zero.den == 1 and not any(zero.cols)
    assert L.denominator == 4


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


def test_default_and_torus_weights():
    # 0 without a nonzero diagonal ad; on a parabolic the center and the
    # coroots have weight 0, and E[i,j] has the values of eps_i - eps_j on
    # the coroots as digits in base 4m + 1 (9 for the (2,1) parabolic and 5
    # for gl_2, whose torus is E[1,1], E[2,2])
    assert grading(LieAlgebra(3, None, [])) == (0, 0, 0)
    q = build_standard_parabolic((2, 1))
    W = grading(q.algebra)
    assert W[q.root_index[(1, 3)]] == 1 + 1 * 9
    assert W[q.root_index[(2, 3)]] == -1 + 2 * 9
    assert all(W[i] == 0 for i in q.center_indices + tuple(q.coroot_index.values()))
    assert grading(build_gl(2)) == (0, 1 - 5, -1 + 5, 0)


def _grading_tables():
    """Every parabolic of n <= 6 at extra center 0 and 1 with root
    generators e_ij and 3/2 e_ij, then gl_1 to gl_4."""
    for n in range(1, 7):
        for b in compositions(n):
            for z in (0, 1):
                for rs in (1, Q(3, 2)):
                    yield scaled_parabolic(b, rs, extra_center=z).algebra
    yield from map(build_gl, range(1, 5))


def test_grading_survives_the_json_round_trip():
    # a built table (Jacobi certified) skips the homogeneity scan, the same
    # table reloaded (Jacobi unknown) is scanned, and both get the same
    # weights; grading computes no Jacobi, so the reloaded flag stays unset
    tables = list(_grading_tables())
    assert sum(L._jacobi is True for L in tables) == 252
    for L in tables:
        R = LieAlgebra.from_json_dict(L.to_json_dict())
        assert grading(R) == grading(L)
        assert R._jacobi is None


def _eps_weights(L):
    """The torus weights as the builders once wrote them by hand: eps_i -
    eps_j on E[i,j] as the integer 8**i - 8**j, 0 on every other basis
    vector."""
    return [8**int(lab[2]) - 8**int(lab[4]) if lab.startswith("E[") else 0 for lab in L.labels]


def _unknown_blocks(W):
    """The flat unknowns k*d + l of the Leibniz system grouped by weight W[l] - W[k]."""
    d = len(W)
    blocks: dict[int, list[int]] = {}
    for k in range(d):
        for l in range(d):
            blocks.setdefault(W[l] - W[k], []).append(k * d + l)
    return sorted(blocks.values())


def test_grading_blocks_match_the_eps_weights():
    for L in _grading_tables():
        assert max(len(lab) for lab in L.labels) <= 6  # one-digit i and j
        assert _unknown_blocks(grading(L)) == _unknown_blocks(_eps_weights(L)), L.labels


def test_grading_falls_back_to_zero():
    # abelian: no ad is nonzero. The (2,1) parabolic with [H[1], E[1,2]]
    # doubled: ad H[1] stays diagonal, but the table is not homogeneous for
    # the weights it gives, so ad h is no derivation and Jacobi fails
    assert grading(abelian(3)) == (0, 0, 0)
    L0 = build_standard_parabolic((2, 1)).algebra
    assert [L0.labels[i] for i in (1, 3)] == ["H[1]", "E[1,2]"]
    L = LieAlgebra(L0.dim, L0.labels,
                   [(i, j, k, 2 * v if (i, j, k) == (1, 3, 3) else v) for i, j, k, v in L0.triples()])
    assert not validate_structure(L).ok
    assert grading(L) == (0,) * L.dim
    # the scan runs whether Jacobi is still unknown or known to fail
    assert L._jacobi is None and not lie.jacobi_holds(L)
    assert grading(L) == (0,) * L.dim


def test_algebra_size_limit_boundary():
    # the limit admits complexify of every q the build admits; it is checked
    # before any label or table row is made, exactly at its boundary
    limit = lie.MAX_DIM
    assert limit >= 2 * parabolic.MAX_DIM
    q = build_standard_parabolic((1,), extra_center=parabolic.MAX_DIM - 1)
    assert complexify(q.algebra)[0].dim == 2 * parabolic.MAX_DIM
    assert LieAlgebra(limit, None, []).dim == limit
    over = f"^dim {limit + 1} is above the limit of {limit}$"
    with pytest.raises(ValueError, match=over):
        LieAlgebra(limit + 1, None, [])
    with pytest.raises(ValueError, match=over):
        LieAlgebra.from_json_dict({"dim": limit + 1, "sc": []})
    n = math.isqrt(limit)
    assert build_gl(n).dim == n * n
    with pytest.raises(ValueError, match=f"^dim {(n + 1) ** 2} is above the limit of {limit}$"):
        build_gl(n + 1)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("call", ['LieAlgebra.from_json_dict({"dim": 10**12, "sc": []})',
                                  "build_gl(10**6)"], ids=["from_json_dict", "build_gl"])
def test_huge_algebra_is_refused_in_bounded_time(call):
    # out of process with a timeout and 1 GB of address space, so a size
    # that is not bounded before it allocates fails here instead of
    # exhausting memory
    env = {**os.environ, "PYTHONPATH": str(Path(liederiv.__file__).resolve().parent.parent)}
    script = ("from liederiv.lie import LieAlgebra\nfrom liederiv.parabolic import build_gl\n"
              f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                       timeout=20, preexec_fn=_cap_memory)
    assert (r.returncode, r.stderr) == (0, b"")
    assert re.fullmatch(rb"dim [0-9]+ is above the limit of [0-9]+\n", r.stdout)
