import pytest

from dense_reference import structure_constants
from liederiv.lie import bracket, bracket_span, center, validate_structure
from liederiv.linalg import Q, Subspace, is_direct_sum
from liederiv.parabolic import (
    BlockComposition,
    build_gl,
    build_standard_parabolic,
    compositions,
    parabolic_from_delta_prime,
    root_value,
    semisimple_restriction,
)


def unit_span(q, indices):
    d = q.algebra.dim
    return Subspace.from_vectors(
        d, [[Q(1) if i == p else Q(0) for i in range(d)] for p in indices]
    )


def test_build_gl_small():
    g1 = build_gl(1)
    assert g1.dim == 1 and not g1.triples()
    g2 = build_gl(2)
    assert g2.dim == 4
    full = Subspace.full(4)
    assert bracket_span(g2, full, full).dim == 3


def test_build_gl6_center():
    g6 = build_gl(6)
    assert g6.dim == 36
    z = center(g6)
    identity = [Q(1) if i % 7 == 0 else Q(0) for i in range(36)]
    assert z == Subspace.from_vectors(36, [identity])


def test_build_gl_rejects_zero():
    with pytest.raises(ValueError):
        build_gl(0)


def test_golden_construction(golden_q):
    q = golden_q
    assert q.dim == 25
    assert q.root_datum.delta_prime == (1, 2, 4)
    assert q.c == unit_span(q, [q.coroot_index[3], q.coroot_index[5]])
    assert q.t == unit_span(q, [q.coroot_index[k] for k in (1, 2, 4)])
    assert q.g_z.dim == 1 and q.c.dim == 2 and q.t.dim == 3
    assert q.derived.dim == 22
    assert q.semisimple_part.dim == 24


def test_whole_algebra_composition():
    for n in (1, 2, 3):
        q = build_standard_parabolic((n,))
        assert q.dim == n * n
        assert q.root_datum.delta_prime == tuple(range(1, n))
        assert q.c.dim == 0


def test_borel_gl3():
    q = build_standard_parabolic((1, 1, 1), 3)
    assert q.dim == 6
    assert q.root_datum.delta_prime == ()
    assert q.c == q.cartan
    assert q.c.dim == 2


def test_invalid_compositions():
    with pytest.raises(ValueError):
        BlockComposition(6, (4, 3))
    with pytest.raises(ValueError):
        BlockComposition(3, (0, 3))
    with pytest.raises(ValueError):
        BlockComposition.parse(3, "a,b")
    with pytest.raises(ValueError):
        build_standard_parabolic((2, 1), 4)


def test_langlands_golden(golden_q):
    levi, nil = golden_q.levi, golden_q.nilradical
    lc, ls = golden_q.levi_center, golden_q.levi_semisimple
    assert levi.dim == 13
    assert nil.dim == 11
    assert lc.dim == 2
    assert ls.dim == 11
    assert levi.dim + nil.dim == golden_q.semisimple_part.dim == 24


def test_langlands_whole_and_borel():
    whole = build_standard_parabolic((4,))
    assert whole.nilradical.dim == 0
    assert whole.levi == whole.semisimple_part
    borel = build_standard_parabolic((1, 1, 1, 1))
    assert borel.levi == borel.cartan
    assert borel.nilradical.dim == 6  # strictly upper positions of gl_4


def test_adapted_indices_golden(golden_q):
    q = golden_q
    center_idx, c_idx, derived_idx = q.center_indices, q.c.pivots(), q.derived.pivots()
    assert len(center_idx) == 1
    assert len(c_idx) == 2
    assert len(derived_idx) == 22
    assert sorted(list(center_idx) + c_idx + derived_idx) == list(range(25))


def test_adapted_indices_extremes():
    whole = build_standard_parabolic((3,))
    assert len(whole.c.pivots()) == 0
    assert len(whole.derived.pivots()) == 9 - 1
    borel2 = build_standard_parabolic((1, 1))
    assert (borel2.center_indices, borel2.c.pivots(), borel2.derived.pivots()) == ((0,), [1], [2])


def test_root_values():
    q = build_standard_parabolic((1, 1, 1, 1))
    h1 = {q.coroot_index[1]: 1}
    h2 = {q.coroot_index[2]: 1}
    assert root_value(q, (1, 2), h1) == 2
    assert root_value(q, (1, 2), h2) == -1
    assert root_value(q, (1, 4), h1) == 1
    x = {q.root_index[(1, 2)]: 1}
    with pytest.raises(ValueError):
        root_value(q, (1, 2), x)


def test_root_value_is_bracket_eigenvalue(golden_q):
    q = golden_q
    for root in q.roots:
        x = {q.root_index[root]: 1}
        for k in (1, 3, 5):
            h = {q.coroot_index[k]: 1}
            value = root_value(q, root, h)
            assert bracket(q.algebra, h, x) == {i: value * c for i, c in x.items() if value}


def test_all_compositions_up_to_6_construct():
    # construction itself checks the splitting invariants; this sweeps them
    for n in range(1, 7):
        count = 0
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            assert q.dim == 1 + (n - 1) + len(q.roots)
            count += 1
        assert count == 2 ** (n - 1)


def test_construction_oracle_agreement():
    full_checked = [(2, (1, 1)), (3, (2, 1)), (4, (2, 2)), (5, (3, 1, 1))]
    for n, blocks in full_checked:
        q = build_standard_parabolic(blocks, n)
        full = Subspace.full(q.dim)
        assert bracket_span(q.algebra, full, full) == q.derived


def test_golden_oracle_agreement(golden_q):
    q = golden_q
    full = Subspace.full(q.dim)
    assert bracket_span(q.algebra, full, full) == q.derived
    assert bracket_span(q.algebra, full, q.nilradical) <= q.nilradical
    assert bracket_span(q.algebra, q.levi, q.levi) <= q.levi


def test_levi_center_complements_like_c(golden_q):
    # two valid complements of t inside the Cartan; equal only in extreme cases
    q = golden_q
    assert q.levi_center.dim == q.c.dim == len(q.root_datum.delta) - len(
        q.root_datum.delta_prime
    )
    assert is_direct_sum([q.c, q.t], q.cartan)
    assert is_direct_sum([q.levi_center, q.t], q.cartan)
    assert is_direct_sum([q.levi_center, q.levi_semisimple], q.levi)
    assert q.levi_center != q.c  # distinct complements for blocks (3,2,1)
    borel = build_standard_parabolic((1, 1, 1))
    assert borel.levi_center == borel.c


def test_structure_tables_validate(golden_q):
    assert validate_structure(golden_q.algebra).ok
    assert validate_structure(build_standard_parabolic((2, 2)).algebra).ok


def test_delta_prime_adapter_round_trip():
    q = parabolic_from_delta_prime(6, (1, 2, 4))
    assert q.composition.blocks == (3, 2, 1)
    for n in range(1, 6):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            again = parabolic_from_delta_prime(n, q.root_datum.delta_prime)
            assert again.composition.blocks == blocks


def test_extra_center():
    q = build_standard_parabolic((2,), extra_center=1)
    assert q.dim == 5
    assert q.g_z.dim == 2
    assert center(q.algebra) == q.g_z
    assert q.algebra.labels[:2] == ("I", "Z[2]")


def test_semisimple_restriction_is_trace_zero_part(golden_q):
    sl = semisimple_restriction(golden_q)
    assert sl.dim == 24
    assert center(sl).dim == 0


def _dense_realization(q):
    """Each basis element of q as a dense n x n Fraction matrix: the identity
    for I and the extra central generators, e_kk - e_{k+1,k+1} for h_k and
    root_scale * e_ij for x_(i,j)."""
    n = q.composition.n

    def matrix(entries):
        m = [[Q(0)] * n for _ in range(n)]
        for (i, j), v in entries.items():
            m[i - 1][j - 1] = Q(v)
        return m

    mats = [None] * q.dim
    for z in q.center_indices:
        mats[z] = matrix({(i, i): 1 for i in range(1, n + 1)})
    for k, pos in q.coroot_index.items():
        mats[pos] = matrix({(k, k): 1, (k + 1, k + 1): -1})
    for (i, j), pos in q.root_index.items():
        mats[pos] = matrix({(i, j): q.root_scale})
    return mats


def _dense_product(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n) if A[i][k]), Q(0)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("extra_center", [0, 1])
@pytest.mark.parametrize("root_scale", [Q(1), Q(3, 2)])
def test_structure_constants_match_dense_commutators(root_scale, extra_center):
    # the central generators all realize as the identity, so their
    # coefficients are checked to vanish separately
    for n in range(1, 6):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks, n, extra_center=extra_center,
                                         root_scale=root_scale)
            mats = _dense_realization(q)
            sc = structure_constants(q.algebra)
            for a in range(q.dim):
                for b in range(a + 1, q.dim):
                    AB = _dense_product(mats[a], mats[b])
                    BA = _dense_product(mats[b], mats[a])
                    coords = sc.get((a, b), {})
                    assert not set(coords) & set(q.center_indices)
                    expected = [[sum((c * mats[k][i][j] for k, c in coords.items()), Q(0))
                                 for j in range(n)] for i in range(n)]
                    assert [[x - y for x, y in zip(r, s)] for r, s in zip(AB, BA)] == expected, (
                        blocks, a, b)


def test_property_sparse_bracket_is_bilinear(golden_q):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))
    # the golden composition at root_scale 3/2 has constants such as 3/2
    # and 9/4, so its integer table is N = 4 times the constants
    scaled = build_standard_parabolic((3, 2, 1), root_scale=Q(3, 2)).algebra
    algebras = [golden_q.algebra, build_gl(3), scaled]
    assert [L.denominator for L in algebras] == [1, 1, 4]

    def case(ref):
        sparse = st.dictionaries(st.integers(0, ref[0].dim - 1), rational, max_size=6)
        return st.tuples(st.just(ref), sparse, sparse)

    @hyp.settings(max_examples=90, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from([(L, structure_constants(L)) for L in algebras]).flatmap(case))
    def check(args):
        (L, sc), x, y = args
        expected = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, v in sc.get((i, j), {}).items():
                    expected[k] = expected.get(k, 0) + a * b * v
        assert bracket(L, x, y) == {k: v for k, v in expected.items() if v}

    check()
