import random

import pytest

from dense_reference import Matrix, dense, sparse
from liederiv.linalg import (
    Q,
    Subspace,
    contains,
    is_direct_sum,
    nullspace_of_rows,
    solve,
    subspace_intersect,
    subspace_sum,
)


def _rref(m: Matrix) -> Subspace:
    """The row space of m: its rows are the nonzero rows of the RREF of m."""
    return Subspace.from_vectors(m.cols, [m.row(i) for i in range(m.rows)])


def test_rref_proportional_rows():
    r = _rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert r.rows == ({0: 1, 1: 2},)
    assert r.dim == 1
    assert r.pivots() == [0]


def test_rref_identity():
    m = Matrix.identity(3)
    r = _rref(m)
    assert r.rows == tuple(sparse(m.row(i)) for i in range(3))
    assert r.dim == 3
    assert r.pivots() == [0, 1, 2]


def test_rref_zero_matrix():
    r = _rref(Matrix.zeros(2, 5))
    assert r.rows == ()
    assert r.dim == 0
    assert r.pivots() == []


def _random_matrix(rng, rows, cols, lo=-5, hi=5):
    return Matrix(rows, cols, [Q(rng.randint(lo, hi)) for _ in range(rows * cols)])


def _shuffled_row_space(rng, m):
    """A different matrix with the same row space: random row ops + extra
    random combinations of rows appended."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    for _ in range(10):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            c = Q(rng.randint(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            c = Q(rng.choice([1, 2, 3, -1, -2]))
            rows[i] = [c * a for a in rows[i]]
    rng.shuffle(rows)
    extra = [Q(0)] * m.cols
    for r in rows:
        c = rng.randint(-2, 2)
        extra = [a + c * b for a, b in zip(extra, r)]
    rows.append(extra)
    return Matrix.from_rows(rows, m.cols)


def test_rref_canonicality_over_row_space():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        m2 = _shuffled_row_space(rng, m)
        r1, r2 = _rref(m), _rref(m2)
        assert r1.dim == r2.dim
        assert r1.pivots() == r2.pivots()
        assert r1.rows == r2.rows


def _nullspace(m: Matrix) -> Subspace:
    return nullspace_of_rows(m.cols, m.sparse_rows())


def _solve(m: Matrix, b):
    return solve(m.cols, m.sparse_rows(), b)


def test_nullspace_single_equation():
    ns = _nullspace(Matrix.from_rows([[1, 1]]))
    assert ns.dim == 1
    assert ns.rows == ({0: 1, 1: -1},)


def test_nullspace_identity_and_zero():
    assert _nullspace(Matrix.identity(4)).dim == 0
    full = _nullspace(Matrix.zeros(3, 4))
    assert full == Subspace.full(4)


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = _nullspace(m)
        assert ns.dim == m.cols - _rref(m).dim
        for v in ns.vectors():
            assert all(e == 0 for e in m.mul_vec(v))


def test_solve_identity():
    assert _solve(Matrix.identity(3), [1, 2, 3]) == {0: 1, 1: 2, 2: 3}


def test_solve_inconsistent():
    assert _solve(Matrix.from_rows([[1, 1], [2, 2]]), [1, 3]) is None


def test_solve_scalar():
    assert _solve(Matrix.from_rows([[2]]), [3]) == {0: Q(3, 2)}


def test_solve_properties():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = [rng.randint(-4, 4) for _ in range(m.rows)]
        x = _solve(m, b)
        if x is not None:
            assert all(e != 0 for e in x.values())
            assert m.mul_vec(dense(m.cols, x)) == tuple(b)
        else:
            aug = Matrix.from_rows(
                [list(m.row(i)) + [b[i]] for i in range(m.rows)], m.cols + 1
            )
            assert _rref(aug).dim > _rref(m).dim


def _span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


def test_subspace_sum_basics():
    e1 = _span(3, [1, 0, 0])
    e2 = _span(3, [0, 1, 0])
    assert subspace_sum(e1, e2) == _span(3, [1, 0, 0], [0, 1, 0])
    assert subspace_sum(e1, e1) == e1
    assert subspace_sum(e1, Subspace.zero(3)) == e1


def test_subspace_intersect_basics():
    a = _span(3, [1, 0, 0], [0, 1, 0])
    b = _span(3, [0, 1, 0], [0, 0, 1])
    assert subspace_intersect(a, b) == _span(3, [0, 1, 0])
    assert subspace_intersect(a, Subspace.full(3)) == a
    assert subspace_intersect(_span(3, [1, 0, 0]), _span(3, [0, 1, 0])).dim == 0


def test_contains():
    line = _span(2, [1, 1])
    assert contains(line, {0: 2, 1: 2})
    assert not contains(line, {0: 1})
    assert contains(line, {})
    assert contains(Subspace.zero(2), {})


def test_is_direct_sum():
    e1 = _span(2, [1, 0])
    e2 = _span(2, [0, 1])
    both = Subspace.full(2)
    assert is_direct_sum([e1, e2], both)
    assert not is_direct_sum([e1, _span(2, [1, 1]), e2], both)
    assert is_direct_sum([Subspace.zero(2), e1], e1)


def test_grassmann_identity():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        b = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim


def test_subspace_canonical_equality():
    a = _span(3, [1, 1, 0], [0, 0, 1])
    b = _span(3, [1, 1, 1], [0, 0, 2], [1, 1, 3])
    assert a == b
    assert a.vectors() == b.vectors()


def test_subspace_constructor_canonicalizes():
    s = _span(4, [0, 2, 4, 0], [1, 1, 0, 0], [0, 4, 8, 0], [3, 5, 4, 0])
    assert s.rows == ({0: 1, 2: -2}, {1: 1, 2: 2})
    assert s.vectors() == [(1, 0, -2, 0), (0, 1, 2, 0)]
    assert s.pivots() == [0, 1]
    assert s == Subspace.from_sparse(4, [{1: 2, 2: 4}, {0: 1, 1: 1}])
    assert s.coordinates_of({0: 1, 1: 1}) == {0: 1, 1: 1}
    assert _span(3) == Subspace.zero(3)
    assert _span(3, [0, 0, 5], [2, 0, 0], [0, 1, 1]) == Subspace.full(3)


# -- properties of the sparse canonical basis (hypothesis) -------------------


def _hypothesis():
    """hypothesis, its strategies and the shared settings, or skip."""
    hyp = pytest.importorskip("hypothesis")
    settings = hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    return hyp, hyp.strategies, settings


def _int_rows(st, n: int):
    """Up to five integer rows of length n."""
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5)


def _case(st):
    """An ambient dimension with some integer rows in it."""
    return st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _int_rows(st, n)))


def test_property_shuffled_rescaled_rows_same_subspace():
    hyp, st, settings = _hypothesis()
    nonzero = st.builds(Q, st.integers(-4, 4).filter(bool), st.integers(1, 3))

    @settings
    @hyp.given(_case(st), st.data())
    def check(case, data):
        n, rows = case
        order = data.draw(st.permutations(range(len(rows))))
        scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
        a = Subspace.from_vectors(n, rows)
        b = Subspace.from_vectors(n, [[c * e for e in rows[i]] for i, c in zip(order, scales)])
        assert a == b
        assert hash(a) == hash(b)

    check()


def test_property_grassmann_identity():
    hyp, st, settings = _hypothesis()
    pair = st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), _int_rows(st, n), _int_rows(st, n))
    )

    @settings
    @hyp.given(pair)
    def check(case):
        n, rows_a, rows_b = case
        a = Subspace.from_vectors(n, rows_a)
        b = Subspace.from_vectors(n, rows_b)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert a <= s and b <= s and i <= a and i <= b

    check()


def test_property_coordinates_invert_combination():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_case(st), st.data())
    def check(case, data):
        n, _ = case
        s = Subspace.from_vectors(*case)
        coeffs = sparse(data.draw(st.lists(st.integers(-5, 5), min_size=s.dim, max_size=s.dim)))
        v = s.combination(coeffs)
        assert s.coordinates_of(v) == coeffs
        # a vector outside the subspace gives None
        w = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        inside = Subspace.from_vectors(n, s.vectors() + [w]).dim == s.dim
        assert contains(s, sparse(w)) is inside
        if inside:
            assert s.combination(s.coordinates_of(sparse(w))) == sparse(w)
        else:
            assert s.coordinates_of(sparse(w)) is None

    check()


def test_property_constructors_agree():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_case(st))
    def check(case):
        n, rows = case
        s = Subspace.from_vectors(n, rows)
        assert s == Subspace.from_sparse(n, [sparse(r) for r in rows])
        # the dense input form takes every exact scalar form ``rational`` does
        assert s == Subspace.from_vectors(n, [[str(e) for e in r] for r in rows])

    check()


def test_property_eliminator_matches_sympy():
    hyp, st, settings = _hypothesis()
    sympy = pytest.importorskip("sympy")
    shape = st.tuples(st.integers(1, 4), st.integers(1, 5))
    system = shape.flatmap(lambda rc: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=rc[1], max_size=rc[1]),
                 min_size=rc[0], max_size=rc[0]),
        st.lists(st.integers(-3, 3), min_size=rc[0], max_size=rc[0]),
    ))

    @settings
    @hyp.given(system)
    def check(case):
        rows, b = case
        m = Matrix.from_rows(rows)
        sm = sympy.Matrix(rows)
        rank = sm.rank()
        ns = _nullspace(m)
        assert ns.dim == m.cols - rank
        theirs = [[Q(str(e)) for e in v] for v in sm.nullspace()]
        assert ns == Subspace.from_vectors(m.cols, theirs)
        x = _solve(m, b)
        assert (x is not None) == (sympy.Matrix.hstack(sm, sympy.Matrix(b)).rank() == rank)
        if x is not None:
            assert m.mul_vec(dense(m.cols, x)) == tuple(b)

    check()


def test_ambient_mismatch_errors():
    a = _span(2, [1, 0])
    b = _span(3, [1, 0, 0])
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)
    with pytest.raises(ValueError):
        contains(a, {2: 1})  # a coordinate past the ambient dimension
    with pytest.raises(ValueError):
        is_direct_sum([a], b)


def test_matrix_validation():
    # the dense input form holds every vector to the ambient dimension
    with pytest.raises(ValueError, match="vector length"):
        Subspace.from_vectors(2, [[1, 2, 3]])
    with pytest.raises(ValueError, match="vector length"):
        Subspace.from_vectors(2, [[1, 2], [3]])
