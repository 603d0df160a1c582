import random

import pytest

from dense_reference import (
    Matrix,
    as_endo,
    as_matrix,
    dense,
    dense_bracket,
    flatten,
    identity,
    sparse,
)
from liederiv.derivations import (
    DecompositionError,
    NotADerivationError,
    cartan_solve,
    complexify,
    constructive_decompose,
    derivation_algebra,
    dimension_formula,
    extend_derivation,
    inner_derivations,
    l_ideal,
    random_combination,
    root_line_reduction,
    split_derivation,
    verify_main_theorem,
)
from liederiv.lie import (
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    first_leibniz_violation,
    is_derivation,
    restrict,
)
from liederiv.linalg import (
    Q,
    Subspace,
    contains,
    nullspace_of_rows,
    solve,
    subspace_sum,
)
from liederiv.parabolic import (
    build_gl,
    build_standard_parabolic,
    compositions,
    root_value,
    semisimple_restriction,
)


def sl2():
    from liederiv.parabolic import build_gl

    gl2 = build_gl(2)
    span = Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return restrict(gl2, span)


def test_oracle_sl2_all_inner():
    L = sl2()
    der = derivation_algebra(L)
    assert der.dim == 3
    assert der == inner_derivations(L)
    for flat in der.rows:
        assert is_derivation(L, EndoMatrix.from_flat(L, flat))


def test_oracle_abelian_everything():
    L = LieAlgebra(2, None, [])
    assert derivation_algebra(L).dim == 4


def test_oracle_golden_dimension(golden_q, golden_der):
    assert golden_der.dim == 27
    assert golden_der.dim == dimension_formula(1, 5, 3, 24)
    for flat in golden_der.rows[:5]:
        assert is_derivation(golden_q.algebra, EndoMatrix.from_flat(golden_q.algebra, flat))


def _reference_derivations(L):
    """Der L as the kernel of the dense d^2-unknown Leibniz system: column f
    holds, for each pair i < j and coordinate k, the k-th coordinate of
    E[x_i, x_j] - [E x_i, x_j] - [x_i, E x_j] for the unit map E with
    flattened index f (entry (f % d, f // d)), evaluated on dense coordinate
    vectors."""
    d = L.dim
    basis = Matrix.identity(d)
    units = [Matrix(d, d, [int(r * d + c == (f % d) * d + f // d) for r in range(d) for c in range(d)])
             for f in range(d * d)]

    def leibniz(E, x, y):
        a = E.mul_vec(dense_bracket(L, x, y))
        b = dense_bracket(L, E.mul_vec(x), y)
        c = dense_bracket(L, x, E.mul_vec(y))
        return [s - t - u for s, t, u in zip(a, b, c)]

    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            res = [leibniz(E, basis.row(i), basis.row(j)) for E in units]
            rows.extend([r[k] for r in res] for k in range(d))
    return nullspace_of_rows(d * d, map(sparse, rows))


SCALED_ORACLE_CASES = [b for n in range(1, 4) for b in compositions(n)] + [(2, 2)]


@pytest.mark.parametrize("blocks", SCALED_ORACLE_CASES, ids=str)
def test_oracle_matches_dense_reference_at_rational_scale(blocks):
    q = build_standard_parabolic(blocks, root_scale=Q(3, 2))
    L = q.algebra
    if blocks == (2, 2):
        # [E_12, E_23] and [E_12, E_21] give the non-integer constants 3/2 and 9/4
        assert {Q(3, 2), Q(9, 4)} <= {v for (_, _, _, v) in L.triples()}
    assert derivation_algebra(L) == _reference_derivations(L)


def test_property_oracle_matches_dense_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))

    def tables(d):
        pair = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(lambda p: p[0] < p[1])
        triple = st.tuples(pair, st.integers(0, d - 1), rational)
        return st.lists(triple, max_size=8).map(
            lambda ts: LieAlgebra(d, None, [(i, j, k, v) for (i, j), k, v in ts])
        )

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 4).flatmap(tables))
    def check(L):
        assert derivation_algebra(L) == _reference_derivations(L)

    check()


INNER_CASES = (
    [("parabolic", b, rs) for n in range(1, 5) for b in compositions(n) for rs in ("1", "3/2")]
    + [("gl3", None, None), ("complexified gl2", None, None)]
)


@pytest.mark.parametrize("kind,blocks,scale", INNER_CASES, ids=str)
def test_inner_derivations_match_dense_ad_maps(kind, blocks, scale):
    if kind == "parabolic":
        L = build_standard_parabolic(blocks, root_scale=Q(scale)).algebra
    elif kind == "gl3":
        L = build_gl(3)
    else:
        L = complexify(build_gl(2))[0]
    d = L.dim
    # ad x_a flattened: column b is [x_a, x_b], from the bracket of the table
    basis = Matrix.identity(d)
    ads = [[e for b in range(d) for e in dense_bracket(L, basis.row(a), basis.row(b))]
           for a in range(d)]
    assert inner_derivations(L) == Subspace.from_vectors(d * d, ads)
    assert all(flatten(as_matrix(ad_matrix(L, {a: 1}))) == tuple(v) for a, v in enumerate(ads))


def test_inner_derivations_golden(golden_q):
    assert inner_derivations(golden_q).dim == 24


def test_inner_derivations_semisimple_parabolic():
    q = build_standard_parabolic((1, 1, 1), 3)
    sl = semisimple_restriction(q)
    inner = inner_derivations(sl)
    assert inner.dim == sl.dim  # trivial center


def test_inner_derivations_gl1():
    q = build_standard_parabolic((1,))
    assert inner_derivations(q).dim == 0


def test_l_ideal_golden(golden_q):
    lid = l_ideal(golden_q)
    assert lid.dim == 3
    for flat in lid.rows:
        assert is_derivation(golden_q.algebra, EndoMatrix.from_flat(golden_q.algebra, flat))


def test_l_ideal_whole_algebra():
    for n in (2, 3):
        q = build_standard_parabolic((n,))
        assert l_ideal(q).dim == 1


def test_l_ideal_gl1_degenerate():
    q = build_standard_parabolic((1,))
    assert l_ideal(q).dim == 1
    report = verify_main_theorem(q)
    assert report.ok
    assert (report.der_dim, report.l_dim, report.inner_dim) == (1, 1, 0)


def test_verify_golden(golden_q, golden_der):
    report = verify_main_theorem(golden_q, golden_der)
    assert report.ok, report.to_json_dict()
    assert (report.der_dim, report.l_dim, report.inner_dim) == (27, 3, 24)
    assert report.h1_dim == 3
    assert report.counterexample is None


def test_verify_sweep_small_n():
    for n in range(1, 5):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            report = verify_main_theorem(q)
            assert report.ok, (blocks, report.to_json_dict())


def test_borel_sl3_all_inner():
    q = build_standard_parabolic((1, 1, 1), 3)
    sl_borel = semisimple_restriction(q)
    der = derivation_algebra(sl_borel)
    inner = inner_derivations(sl_borel)
    assert der.dim == inner.dim == 5
    assert der == inner


def test_dimension_formula_values():
    assert dimension_formula(1, 5, 3, 24) == 27
    assert dimension_formula(0, 7, 2, 11) == 11
    assert dimension_formula(1, 2, 0, 5) == 8
    with pytest.raises(ValueError):
        dimension_formula(1, 2, 3, 5)


def test_h1_values(golden_q, golden_der):
    assert golden_der.dim - inner_derivations(golden_q).dim == 3
    for n in (2, 3):
        q = build_standard_parabolic((n,))
        assert derivation_algebra(q.algebra).dim - inner_derivations(q).dim == 1
    sl = semisimple_restriction(build_standard_parabolic((2, 1), 3))
    assert derivation_algebra(sl).dim - inner_derivations(sl).dim == 0


def test_decompose_inner_input(golden_q):
    q = golden_q
    pos = q.root_index[(1, 2)]
    D = ad_matrix(q.algebra, {pos: 1})
    res = constructive_decompose(q, D)
    assert not any(res.l_part.cols)
    assert res.p == {pos: 1}


def test_decompose_center_valued_fixed_point():
    q = build_standard_parabolic((1, 1), 2)  # basis I, h1, e12
    D = as_endo(q.algebra, Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))  # I -> I
    res = constructive_decompose(q, D)
    assert res.l_part == D
    assert res.p == {}


def test_decompose_rejects_non_derivation(golden_q):
    with pytest.raises(NotADerivationError) as exc:
        constructive_decompose(golden_q, identity(golden_q.algebra))
    assert exc.value.pair is not None


def test_leibniz_gate_on_endomatrix(golden_q):
    L = golden_q.algebra
    good = ad_matrix(L, {golden_q.root_index[(1, 2)]: 1})
    assert is_derivation(L, good)
    bad = identity(L)
    pair = first_leibniz_violation(L, bad)
    assert pair is not None
    # every entry point that takes a map runs the one check and names its pair
    for call in (
        lambda: constructive_decompose(golden_q, bad),
        lambda: extend_derivation(L, bad),
        lambda: split_derivation(golden_q, bad),
    ):
        with pytest.raises(NotADerivationError) as exc:
            call()
        assert exc.value.pair == pair


def test_decompose_random_round_trips(golden_q, golden_der):
    q = golden_q
    rng = random.Random(2024)
    for _ in range(100):
        D = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
        res = constructive_decompose(q, D)
        assert res.l_part + ad_matrix(q.algebra, res.p) == D
        assert as_matrix(res.l_part) + as_matrix(ad_matrix(q.algebra, res.p)) == as_matrix(D)
        # residual part lands in the center and kills the derived algebra
        l_dense = as_matrix(res.l_part)
        for j in range(q.dim):
            col = l_dense.col(j)
            assert all(col[i] == 0 for i in range(q.dim) if i not in q.center_indices)
        for v in q.derived.vectors():
            assert not any(l_dense.mul_vec(v))
        # inner element has no central component
        assert all(res.p.get(i, 0) == 0 for i in q.center_indices)


def test_decompose_matches_projection(golden_q, golden_der):
    q = golden_q
    lid = l_ideal(q)
    inner = inner_derivations(q)
    rng = random.Random(77)
    for _ in range(10):
        D = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
        res = constructive_decompose(q, D)
        l_comp, inner_comp = split_derivation(q, D, lid, inner)
        assert l_comp == res.l_part
        assert inner_comp == ad_matrix(q.algebra, res.p)


def test_p_is_unique_in_trace_zero_part(golden_q, golden_der):
    q = golden_q
    d = q.dim
    rng = random.Random(99)
    ad_cols = [flatten(as_matrix(ad_matrix(q.algebra, {i: 1}))) for i in range(d)]
    system = Matrix(d * d, d, [ad_cols[i][r] for r in range(d * d) for i in range(d)])
    for _ in range(3):
        D = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
        res = constructive_decompose(q, D)
        rhs = flatten(as_matrix(D) - as_matrix(res.l_part))
        v = solve(d, system.sparse_rows(), rhs)
        assert v is not None
        # the only ad-kernel direction is the scalar line, which solve leaves
        # at zero, so the solution is exactly p
        assert v == res.p


def test_decomposition_linearity(golden_q, golden_der):
    q = golden_q
    rng = random.Random(3)
    d1 = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
    d2 = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
    a, b = Q(3, 2), Q(-5, 7)

    def scaled(E, c):
        return EndoMatrix(E.algebra, [{i: c * e for i, e in col.items()} for col in E.cols])

    combo = scaled(d1, a) + scaled(d2, b)
    r1 = constructive_decompose(q, d1)
    r2 = constructive_decompose(q, d2)
    rc = constructive_decompose(q, combo)
    assert rc.l_part == scaled(r1.l_part, a) + scaled(r2.l_part, b)
    assert dense(q.dim, rc.p) == tuple(
        a * x + b * y for x, y in zip(dense(q.dim, r1.p), dense(q.dim, r2.p))
    )


def test_claim1_midpoint_properties(golden_q, golden_der):
    q = golden_q
    rng = random.Random(8)
    center_set = set(q.center_indices)
    c_positions = [q.coroot_index[k] for k in (3, 5)]
    t_positions = [q.coroot_index[k] for k in (1, 2, 4)]
    for _ in range(10):
        D = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
        x, reduced, d_gamma = root_line_reduction(q, D)
        reduced = as_matrix(reduced)
        # annihilates the within-block coroots
        for pos in t_positions:
            assert not any(reduced.col(pos))
        # stabilizes each root line
        for root in q.roots:
            pos = q.root_index[root]
            col = reduced.col(pos)
            assert all(col[i] == 0 for i in range(q.dim) if i != pos)
        # maps the complementary coroots into the center
        for pos in c_positions:
            col = reduced.col(pos)
            assert all(col[i] == 0 for i in range(q.dim) if i not in center_set)


def test_scalar_projection_identity(golden_q, golden_der):
    q = golden_q
    rng = random.Random(12)
    for _ in range(5):
        D = as_matrix(EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng)))
        hc = [Q(0)] * q.dim
        kc = [Q(0)] * q.dim
        for k in range(1, 6):
            hc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
            kc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
        Dh = D.mul_vec(hc)
        Dk = D.mul_vec(kc)
        for root in q.roots:
            pos = q.root_index[root]
            gh = root_value(q, root, sparse(hc))
            gk = root_value(q, root, sparse(kc))
            assert Dk[pos] * gh - Dh[pos] * gk == 0


def test_c_gamma_antisymmetry_on_opposite_roots(golden_q, golden_der):
    q = golden_q
    rng = random.Random(21)
    D = EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng))
    res = constructive_decompose(q, D)
    for (i, j), value in res.c_gamma.items():
        if (j, i) in res.c_gamma:
            assert res.c_gamma[(j, i)] == -value


def test_normalization_independence(golden_q, golden_der):
    q = golden_q
    q2 = build_standard_parabolic((3, 2, 1), root_scale=2)
    d = q.dim
    scale = [Q(1)] * d
    for pos in q.root_index.values():
        scale[pos] = Q(2)
    S = Matrix(d, d, [scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
    S_inv = Matrix(d, d, [1 / scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
    rng = random.Random(55)
    for _ in range(3):
        D = as_matrix(EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng)))
        D2 = S_inv * D * S  # the same abstract map in the rescaled basis
        r1 = constructive_decompose(q, as_endo(q.algebra, D))
        r2 = constructive_decompose(q2, as_endo(q2.algebra, D2))
        assert S * as_matrix(r2.l_part) * S_inv == as_matrix(r1.l_part)
        ad1, ad2 = ad_matrix(q.algebra, r1.p), ad_matrix(q2.algebra, r2.p)
        assert S * as_matrix(ad2) * S_inv == as_matrix(ad1)
        # the intermediate scalars are normalization-dependent ...
        for root, value in r1.d_gamma.items():
            assert r2.d_gamma[root] == value / 2
        # ... while p itself is observed to be invariant as well
        assert tuple(s * c for s, c in zip(scale, dense(d, r2.p))) == dense(d, r1.p)


def test_explicit_ideal_closures(golden_q, golden_der):
    q = golden_q
    lid = l_ideal(q)
    inner = inner_derivations(q)
    rng = random.Random(61)
    D = as_matrix(EndoMatrix.from_flat(q.algebra, random_combination(golden_der, rng)))
    for flat in lid.rows:
        E = as_matrix(EndoMatrix.from_flat(q.algebra, flat))
        comm = D * E - E * D
        assert contains(lid, sparse(flatten(comm)))
    for i in (0, 3, 10):
        A = as_matrix(ad_matrix(q.algebra, {i: 1}))
        comm = D * A - A * D
        assert comm == as_matrix(ad_matrix(q.algebra, sparse(D.col(i))))
        assert contains(inner, sparse(flatten(comm)))


def _brute_force_closure_flags(q, space):
    """Whether [D, E] stays in l_ideal(q) and [D, A] in ad q, for D over the
    basis of space, E over the basis of l_ideal(q) and A = ad x_i."""
    d = q.dim
    lid = l_ideal(q)
    inner = inner_derivations(q)
    L = q.algebra
    ls = [as_matrix(EndoMatrix.from_flat(L, flat)) for flat in lid.rows]
    ads = [as_matrix(ad_matrix(L, {i: 1})) for i in range(d)]
    ds = [as_matrix(EndoMatrix.from_flat(L, flat)) for flat in space.rows]
    l_ok = all(contains(lid, sparse(flatten(D * E - E * D))) for D in ds for E in ls)
    inner_ok = all(contains(inner, sparse(flatten(D * A - A * D))) for D in ds for A in ads)
    return l_ok, inner_ok


@pytest.mark.parametrize("extra", ["identity", "center_to_root"])
def test_fault_injected_closure_flags(golden_q, golden_der, extra):
    q = golden_q
    d = q.dim
    if extra == "identity":
        X = Subspace.from_vectors(d * d, [flatten(Matrix.identity(d))])
    else:
        X = Subspace.from_sparse(d * d, [{0 * d + 10: Q(1)}])  # the scalar I -> x_10
    space = subspace_sum(golden_der, X)
    assert space.dim == golden_der.dim + 1
    report = verify_main_theorem(q, space)
    assert (report.l_is_ideal_ok, report.inner_is_ideal_ok) == _brute_force_closure_flags(q, space)
    assert not report.direct_sum_ok and not report.ok
    # the first failing check names the witness, whatever fails after it
    assert report.counterexample == {"kind": "direct_sum"}


def test_split_derivation_rejects_outsider(golden_q):
    with pytest.raises(NotADerivationError):
        split_derivation(golden_q, identity(golden_q.algebra))


def test_extra_center_exercises_formula():
    q = build_standard_parabolic((2,), extra_center=1)  # center dim 2
    report = verify_main_theorem(q)
    assert report.ok, report.to_json_dict()
    assert report.der_dim == dimension_formula(2, 1, 1, 3) == 7
    q2 = build_standard_parabolic((1, 1), extra_center=2)  # center dim 3
    report2 = verify_main_theorem(q2)
    assert report2.ok, report2.to_json_dict()
    assert report2.der_dim == dimension_formula(3, 1, 0, 2) == 14


def test_split_derivation_outside_the_sum_is_not_a_leibniz_failure():
    q = build_standard_parabolic((1, 1))  # basis I, h1, e12
    D = EndoMatrix(q.algebra, [{0: 1}, {}, {}])  # I -> I: a derivation
    assert first_leibniz_violation(q.algebra, D) is None
    # with the center-valued summand left out, D is outside the sum
    with pytest.raises(DecompositionError) as exc:
        split_derivation(q, D, lid=Subspace.zero(9))
    assert exc.value.diagnostics == {"l_dim": 0, "inner_dim": 2}


def _integral_entries(E):
    """E with each integral Fraction entry replaced by the int it equals."""
    return EndoMatrix(E.algebra, [
        {i: e.numerator if e.denominator == 1 else e for i, e in c.items()} for c in E.cols
    ])


@pytest.mark.parametrize("case", ["golden", "(2,1,2) at root_scale 3/2"])
def test_decomposition_scalars_are_int_or_fraction(request, case):
    if case == "golden":
        q, der = request.getfixturevalue("golden_q"), request.getfixturevalue("golden_der")
    else:
        q = build_standard_parabolic((2, 1, 2), root_scale=Q(3, 2))
        der = derivation_algebra(q.algebra)
    rng = random.Random(404)
    lid, inner = l_ideal(q), inner_derivations(q)
    for t in range(6):
        D = EndoMatrix.from_flat(q.algebra, random_combination(der, rng))
        if t % 2:
            D = _integral_entries(D)  # int entries must not turn into floats
        res = constructive_decompose(q, D)
        parts = split_derivation(q, D, lid, inner)
        scalars = [
            *res.d_gamma.values(),
            *res.c_gamma.values(),
            *res.h_star.values(),
            *res.p.values(),
            *(e for E in (res.l_part, *parts) for c in E.cols for e in c.values()),
            *(e for E in (res.l_part, *parts) for row in E.dense_rows() for e in row),
        ]
        assert {type(x) for x in scalars} <= {int, Q}


def test_cartan_solve_matches_elimination():
    rng = random.Random(9)
    for n in range(1, 10):
        size = n - 1
        A = Matrix(size, size, [
            2 if k == m else (-1 if abs(k - m) == 1 else 0) for k in range(size) for m in range(size)
        ])
        for _ in range(5):
            c = [Q(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(size)]
            x = solve(size, A.sparse_rows(), c)
            assert cartan_solve(c) == [x.get(j, 0) for j in range(size)]
        # the closed form is the inverse: A times its columns is the identity
        inverse = [cartan_solve([int(k == j) for k in range(size)]) for j in range(size)]
        assert A * Matrix(size, size, [inverse[j][i] for i in range(size) for j in range(size)]) \
            == Matrix.identity(size)
