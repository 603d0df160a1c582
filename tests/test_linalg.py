import math
import random

import pytest

from dense_reference import Matrix, dense, sparse
from liederiv import lie
from liederiv.linalg import (
    Q,
    Subspace,
    _RowReducer,
    contains,
    is_direct_sum,
    nullspace_of_rows,
    rational,
    require_vector,
    solve,
    subspace_intersect,
    subspace_sum,
)
from liederiv.parabolic import build_gl


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


def test_units_is_the_row_reduction_of_unit_vectors():
    for indices in ([], [3], [4, 0, 2], [1, 1, 0]):
        assert Subspace.units(5, indices) == Subspace.from_sparse(5, [{i: 1} for i in indices])
    s = Subspace.units(5, [4, 0, 2])
    assert s.rows == ({0: 1}, {2: 1}, {4: 1}) and s.pivots() == [0, 2, 4]
    assert s.coordinates_of({2: 3, 4: -1}) == {1: 3, 2: -1}
    assert s.coordinates_of({1: 1}) is None
    for bad in ([5], [-1], [0, 7], [0.5], [True]):
        with pytest.raises(ValueError, match="out of range"):
            Subspace.units(5, bad)
        with pytest.raises(ValueError, match="out of range"):
            Subspace.from_sparse(5, [{i: 1} for i in bad])


def test_nullspace_single_equation():
    ns = _nullspace(Matrix.from_rows([[1, 1]]))
    assert ns.dim == 1
    assert ns.rows == ({0: 1, 1: -1},)


def test_nullspace_of_rows_makes_one_elimination(monkeypatch):
    # with the from_sparse door refused, nullspace_of_rows still returns the
    # kernel's canonical rows, key order included, read off its one
    # elimination: on the system lie.center feeds it for gl_3, and on a hand
    # system with a repeated row, an empty row and a row of explicit zeros
    systems = []
    real = lie.nullspace_of_rows

    def record(ncols, rows):
        systems.append((ncols, list(rows)))
        return real(ncols, systems[-1][1])

    def refuse(*args):
        raise AssertionError("a second elimination")

    with monkeypatch.context() as m:
        m.setattr(lie, "nullspace_of_rows", record)
        lie.center(build_gl(3))
    hand = [{0: 2, 3: -4}, {}, {1: 1, 2: 1, 4: 3}, {0: 2, 3: -4}, {0: 0, 2: 0}]
    want = {9: [[(0, 1), (4, 1), (8, 1)]],
            5: [[(0, 2), (3, 1)], [(1, 3), (4, -1)], [(2, 3), (4, -1)]]}
    for ncols, rows in systems + [(5, hand)]:
        with monkeypatch.context() as m:
            m.setattr(Subspace, "from_sparse", refuse)
            s = nullspace_of_rows(ncols, rows)
        assert [list(r.items()) for r in s.rows] == want[ncols]
        assert s.dim == ncols - Subspace.from_sparse(ncols, rows).dim
        assert all(sum(e * row.get(j, 0) for j, e in r.items()) == 0
                   for r in s.rows for row in rows)


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
    assert subspace_sum(e1, Subspace.units(3, ())) == e1


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
    assert contains(Subspace.units(2, ()), {})


def test_is_direct_sum():
    e1 = _span(2, [1, 0])
    e2 = _span(2, [0, 1])
    both = Subspace.full(2)
    assert is_direct_sum([e1, e2], both)
    assert not is_direct_sum([e1, _span(2, [1, 1]), e2], both)
    assert is_direct_sum([Subspace.units(2, ()), e1], e1)


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
    assert _span(3) == Subspace.units(3, ())
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
    # and the intersection is sympy's: sum(lam_k a_k) over the kernel pairs
    # (lam, mu) of [A^T | -B^T]
    hyp, st, settings = _hypothesis()
    sympy = pytest.importorskip("sympy")
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
        for part, whole in ((a, s), (b, s), (i, a), (i, b)):
            assert all(contains(whole, row) for row in part.rows)
        ref = []
        if a.dim and b.dim:
            A, B = sympy.Matrix(a.vectors()), sympy.Matrix(b.vectors())
            ref = [[str(e) for e in A.T * k[:a.dim, :]]
                   for k in sympy.Matrix.hstack(A.T, -B.T).nullspace()]
        assert i == Subspace.from_vectors(n, ref)

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
    @hyp.given(_case(st), st.integers(0, 5))
    def check(case, k):
        n, rows = case
        s = Subspace.from_vectors(n, rows)
        assert s == Subspace.from_sparse(n, [sparse(r) for r in rows])
        # the dense input form takes every exact scalar form ``rational`` does
        assert s == Subspace.from_vectors(n, [[str(e) for e in r] for r in rows])
        # every producer writes the one canonical form: the rows from_sparse
        # writes for its rows, key order and hash included (== ignores key
        # order, the hash does not)
        a, b = Subspace.from_vectors(n, rows[:k]), Subspace.from_vectors(n, rows[k:])
        for t in (s, a, nullspace_of_rows(n, [sparse(r) for r in rows]), subspace_sum(a, b),
                  subspace_intersect(a, b), subspace_intersect(s, a), subspace_intersect(b, s)):
            ref = Subspace.from_sparse(n, t.rows)
            assert [list(r.items()) for r in t.rows] == [list(r.items()) for r in ref.rows]
            assert hash(t) == hash(ref)

    check()


def _assert_value_contract(space: Subspace) -> None:
    # a stored row holds ints only; written out over its pivot, its nonzero
    # entries are ints exactly when all are integral, and Fractions otherwise
    for row, v in zip(space.rows, space.vectors()):
        assert all(type(e) is int for e in row.values()), row
        nonzero = [e for e in v if e]
        integral = all(e.denominator == 1 for e in nonzero)
        assert {type(e) for e in nonzero} == ({int} if integral else {Q}), v


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
        for space in (ns, _rref(m)):
            _assert_value_contract(space)
        x = _solve(m, b)
        assert (x is not None) == (sympy.Matrix.hstack(sm, sympy.Matrix(b)).rank() == rank)
        if x is not None:
            assert m.mul_vec(dense(m.cols, x)) == tuple(b)

    check()


def _sparse_system(st):
    """Up to 12 sparse integer rows of up to 16 columns, and a column subset
    C with every row zero outside C, as the oracle feeds one weight block."""
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))

    def system(c):
        rows = st.lists(st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=12)
        return st.tuples(st.sets(st.integers(0, c - 1), min_size=1), rows).map(
            lambda sr: (c, sorted(sr[0]), [[e if j in sr[0] else 0 for j, e in enumerate(r)]
                                           for r in sr[1]]))

    return st.integers(1, 16).flatmap(system)


# a dense row in each form a public door takes: int values with zeros
# dropped, Fraction(k, 1) values, explicit zero entries, or both
_ROW_FORMS = (
    sparse,
    lambda r: {j: Q(e) for j, e in enumerate(r) if e},
    lambda r: dict(enumerate(r)),
    lambda r: {j: Q(e) for j, e in enumerate(r)},
)


def _scaled_and_repeated(st, data, rows):
    """rows, each scaled by 1, 2, 3 or 6 so pivots other than 1 occur, with
    up to three of the scaled rows fed again."""
    n = len(rows)
    scales = data.draw(st.lists(st.sampled_from((1, 2, 3, 6)), min_size=n, max_size=n))
    rows = [[s * e for e in r] for s, r in zip(scales, rows)]
    return rows + data.draw(st.lists(st.sampled_from(rows), max_size=3))


def test_property_reducer_stays_fully_reduced_and_matches_sympy():
    # rows, scaled and some repeated, fed one at a time in a drawn order and
    # a drawn form, cleared to ints by require_vector as every door into the
    # reducer does: after each add_row the stored rows hold int values only,
    # are primitive with a positive pivot first, no pivot column occurs in
    # another row, and add_row returned True exactly when sympy says the
    # row is independent of those fed before it, as it does fed the rows
    # reversed (unknown c - 1 - j at column j), and that reducer's
    # kernel_rows(c - 1, C) are canonical rows, key order included, that span
    # sympy's nullspace of the columns C, in int values only. A
    # Subspace keeps the stored rows, in pivot order and int values only;
    # vectors() is sympy's RREF, and its coordinates recombine to a vector
    hyp, st, settings = _hypothesis()
    sympy = pytest.importorskip("sympy")

    @settings
    @hyp.given(_sparse_system(st), st.data())
    def check(system, data):
        c, cols, rows = system
        rows = _scaled_and_repeated(st, data, rows)
        rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))))]
        # the pivot columns of the transpose are the rows that raise the rank
        _, independent = sympy.Matrix(rows).T.rref()
        red, rev = _RowReducer(), _RowReducer()
        for k, row in enumerate(rows):
            form = data.draw(st.sampled_from(_ROW_FORMS))
            ints = require_vector(form(row), c, "row")[0]
            assert red.add_row(ints) is (k in independent)
            assert rev.add_row({c - 1 - j: e for j, e in ints.items()}) is (k in independent)
            assert len(red.pivot_rows) == sum(i <= k for i in independent)
            for p, r in red.pivot_rows.items():
                assert all(type(e) is int for e in r.values())
                assert min(r) == p and r[p] > 0
                assert math.gcd(*r.values()) == 1
                assert all(p not in other for q, other in red.pivot_rows.items() if q != p)
        kernel = rev.kernel_rows(c - 1, cols)
        assert all(v.keys() <= set(cols) for v in kernel)
        assert all(type(e) is int for v in kernel for e in v.values())
        theirs = [dict(zip(cols, (Q(str(e)) for e in v)))
                  for v in sympy.Matrix([[r[j] for j in cols] for r in rows]).nullspace()]
        assert Subspace.from_sparse(c, kernel) == Subspace.from_sparse(c, theirs)
        assert len(kernel) == len(theirs)
        assert [list(v.items()) for v in kernel] == [
            list(r.items()) for r in Subspace.from_sparse(c, kernel).rows]
        space = Subspace.from_sparse(c, [sparse(r) for r in rows])
        assert [list(r.items()) for r in space.rows] == [
            sorted(red.pivot_rows[p].items()) for p in sorted(red.pivot_rows)]
        assert all(type(e) is int for r in space.rows for e in r.values())
        rref = sympy.Matrix(rows).rref()[0]
        assert space.vectors() == [tuple(Q(str(e)) for e in rref.row(i))
                                   for i in range(space.dim)]
        coeffs = {k: e for k in range(len(rows)) if (e := data.draw(st.integers(-3, 3)))}
        v = sparse([sum(coeffs.get(k, 0) * r[j] for k, r in enumerate(rows)) for j in range(c)])
        assert space.combination(space.coordinates_of(v)) == v

    check()


def test_property_membership_agrees_with_the_rank():
    # on rows scaled and repeated as above and vectors in every form a door
    # takes, contains and _member (fed the door's ints) say v lies in the span exactly
    # when adding v leaves sympy's rank as it is; asking leaves the rows
    # as they were
    hyp, st, settings = _hypothesis()
    sympy = pytest.importorskip("sympy")

    @settings
    @hyp.given(_sparse_system(st), st.data())
    def check(system, data):
        c, _, rows = system
        rows = _scaled_and_repeated(st, data, rows)
        space = Subspace.from_sparse(c, [data.draw(st.sampled_from(_ROW_FORMS))(r) for r in rows])
        stored = [dict(r) for r in space.rows]
        rank = sympy.Matrix(rows).rank()
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        inside = [sum(a * r[j] for a, r in zip(coeffs, rows)) for j in range(c)]
        drawn = data.draw(st.lists(st.integers(-6, 6), min_size=c, max_size=c))
        for v in (inside, [2 * e for e in inside], drawn, [0] * c):
            expected = sympy.Matrix([*rows, v]).rank() == rank
            for form in _ROW_FORMS:
                assert contains(space, form(v)) is expected
                assert space._member(require_vector(form(v), c, "v")[0]) is expected
        assert contains(space, sparse(inside))
        assert [dict(r) for r in space.rows] == stored

    check()


class _CountingRows(dict):
    """A reducer's ``pivot_rows`` that counts the scans of its rows."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


def test_independent_unit_rows_make_no_scan():
    # no stored row holds the pivot of a new unit row, so no stored row is
    # searched for it; a scan per row made feeding r rows quadratic in r.
    # The first row builds the reducer's column set, before counting starts
    red = _RowReducer()
    assert red.add_row({0: 1})
    red.pivot_rows = _CountingRows(red.pivot_rows)
    assert all(red.add_row({c: 1}) for c in range(1, 3000))
    assert red.pivot_rows.scans == 0
    assert red.pivot_rows == {c: {c: 1} for c in range(3000)}


def test_reducer_built_from_rows_eliminates_a_new_pivot_from_them():
    red = _RowReducer({0: {0: 1, 1: 1}})
    assert red.add_row({1: 2})
    assert red.pivot_rows == {0: {0: 1}, 1: {1: 1}}


def test_int_and_fraction_input_give_equal_subspaces():
    hyp, st, settings = _hypothesis()
    entry = st.integers(-3, 3)
    matrix = st.integers(1, 5).flatmap(lambda c: st.lists(
        st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=4))

    @settings
    @hyp.given(matrix, st.integers(1, 3))
    def check(rows, den):
        cols = len(rows[0])
        as_int = [sparse(r) for r in rows]
        as_fraction = [{j: Q(e) for j, e in v.items()} for v in as_int]
        scaled = [{j: Q(e, den) for j, e in v.items()} for v in as_int]
        for build in (Subspace.from_sparse, nullspace_of_rows):
            spaces = [build(cols, vs) for vs in (as_int, as_fraction)]
            spaces.append(build(cols, scaled))  # the same span or kernel
            assert spaces[0] == spaces[1] == spaces[2]
            assert hash(spaces[0]) == hash(spaces[1]) == hash(spaces[2])
            for space in spaces:
                _assert_value_contract(space)

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


@pytest.mark.parametrize("e", [3, "-007", "6/3", Q(4, 2)], ids=repr)
def test_rational_reads_an_integral_value_as_an_int(e):
    v = rational(e, "here")
    assert type(v) is int and v == Q(e)


def test_rational_reads_a_non_integral_value_as_a_fraction():
    v = rational("3/4", "here")
    assert type(v) is Q and v == Q(3, 4)


@pytest.mark.parametrize("e", [True, 1.0, "0.5", "1e2", "1/0"], ids=repr)
def test_rational_refuses_inexact_input(e):
    with pytest.raises(ValueError, match=r" is not an integer or a rational string here$"):
        rational(e, "here")


def test_require_vector_returns_the_vector_as_ints_over_one_denominator():
    # an all-int vector comes back itself over 1, zeros kept, no copy; any
    # Fraction value makes it v times the lcm of its denominators, in ints,
    # zeros dropped, so Fraction(k, 1) is read as the int k over 1
    for v in ({0: 3, 1: -1, 2: 0}, {}):
        ints, den = require_vector(v, 3, "vector")
        assert ints is v and den == 1
    for v, expected in [
            ({0: Q(1, 2), 1: Q(2, 3), 2: 0}, ({0: 3, 1: 4}, 6)),
            ({2: Q(4, 2), 1: 0, 0: -5}, ({2: 2, 0: -5}, 1)),
            ({1: Q(0), 0: Q(-3, 4)}, ({0: -3}, 4)),
            ({0: Q(5, 6), 2: Q(-1, 4), 1: 2}, ({0: 10, 2: -3, 1: 24}, 12))]:
        ints, den = require_vector(v, 3, "vector")
        assert (ints, den) == expected and list(ints) == list(expected[0])
        assert all(type(e) is int for e in ints.values()) and type(den) is int
        assert {i: Q(e, den) for i, e in ints.items()} == {i: e for i, e in v.items() if e}
