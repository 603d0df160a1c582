import contextlib
import io
import random
import sys
from collections import Counter

import pytest

import decompose_reference
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
from jacobi_reference import jacobi_failures
from root_reference import cartan_element, root_value
from scaled_reference import scaled_parabolic
from theorem_reference import two_elimination_report
from liederiv.cli import main
from liederiv.derivations import (
    DecompositionError,
    NotADerivationError,
    _sum_certified,
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
from liederiv import derivations, lie, linalg
from liederiv.lie import (
    EndoMatrix,
    LieAlgebra,
    ad_matrix,
    bracket_span,
    first_leibniz_violation,
    grading,
    jacobi_holds,
    restrict,
    validate_structure,
)
from liederiv.linalg import (
    Q,
    Subspace,
    _RowReducer,
    contains,
    nullspace_of_rows,
    solve,
    subspace_intersect,
    subspace_sum,
)
from liederiv.parabolic import (
    _cartan_adjugate,
    adapted_subspaces,
    build_gl,
    build_standard_parabolic,
    compositions,
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
        assert first_leibniz_violation(L, EndoMatrix.from_flat(L, flat)) is None


def test_oracle_abelian_everything():
    L = LieAlgebra(2, None, [])
    assert derivation_algebra(L).dim == 4


def test_oracle_golden_dimension(golden_q, golden_der):
    assert golden_der.dim == 27
    assert golden_der.dim == dimension_formula(1, 5, 3, 24)
    for flat in golden_der.rows[:5]:
        D = EndoMatrix.from_flat(golden_q.algebra, flat)
        assert first_leibniz_violation(golden_q.algebra, D) is None


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
    L = scaled_parabolic(blocks, Q(3, 2)).algebra
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


GRADED_ORACLE_CASES = (
    [("parabolic", b, {}) for n in range(1, 7) for b in compositions(n)]
    + [("parabolic", (3, 2, 1), {"root_scale": Q(3, 2)}),
       ("parabolic", (3, 2, 1), {"root_scale": Q(-2, 3)}),
       ("parabolic", (3, 2, 1), {"extra_center": 2}),
       ("gl", 3, {}),
       ("gl", 4, {})]
)


def _one_block_oracle(L, monkeypatch):
    """``derivation_algebra`` with every weight 0 and no certified
    generators: the whole Leibniz system, every pair, as one block."""
    with monkeypatch.context() as m:
        m.setattr(derivations, "grading", lambda L: (0,) * L.dim)
        m.setattr(L, "_generators", None)
        return derivation_algebra(L)


@pytest.mark.parametrize("kind,arg,kwargs", GRADED_ORACLE_CASES, ids=str)
def test_graded_oracle_matches_one_block(kind, arg, kwargs, monkeypatch):
    # the torus grading splits the Leibniz system into blocks; with every
    # weight 0 the same table is solved as one block
    if kind == "parabolic":
        L = scaled_parabolic(arg, kwargs.get("root_scale", 1),
                             extra_center=kwargs.get("extra_center", 0)).algebra
    else:
        L = build_gl(arg)
    if L.dim > 1 + kwargs.get("extra_center", 0):
        assert len(set(grading(L))) > 1
    assert derivation_algebra(L) == _one_block_oracle(L, monkeypatch)


def _doubled(blocks, ijk):
    """The table of a parabolic with the constant c_ij^k doubled, which
    breaks Jacobi; a constant on the diagonal of a coroot's ad also
    ungrades it."""
    L0 = build_standard_parabolic(blocks).algebra
    triples = [(i, j, k, 2 * v if (i, j, k) == ijk else v) for (i, j, k, v) in L0.triples()]
    return LieAlgebra(L0.dim, L0.labels, triples)


def test_graded_oracle_on_a_table_that_breaks_jacobi(monkeypatch):
    # doubling the root-root constant [E[1,2], E[2,3]] = E[1,3] of the (2,1)
    # parabolic keeps its grading but breaks Jacobi, so some ad x is no
    # longer a derivation; a root-weight block may then have a smaller
    # kernel than span(ad x), and the oracle must not cut it at that span's
    # rank
    L = _doubled((2, 1), (3, 6, 4))
    assert [L.labels[i] for i in (3, 6, 4)] == ["E[1,2]", "E[2,3]", "E[1,3]"]
    assert len(set(grading(L))) > 1
    assert not validate_structure(L).ok
    der = derivation_algebra(L)
    assert der == _one_block_oracle(L, monkeypatch)
    assert der == _reference_derivations(L)


def test_oracle_certifies_each_ad_x_before_it_skips_a_block(monkeypatch):
    # doubling the root-root constant [E[1,2], E[2,1]] = H[1] of gl_3 keeps
    # the grading and the grading element (the Cartan brackets stay), but
    # breaks Jacobi; an oracle that took each nonzero-weight block to be
    # span(ad x) without certifying the ad x would give dim 9
    L = _doubled((3,), (3, 5, 1))
    assert L.labels[3] == "E[1,2]" and L.labels[5] == "E[2,1]" and L.labels[1] == "H[1]"
    assert not validate_structure(L).ok
    der = derivation_algebra(L)
    assert der.dim == 3
    assert der == _one_block_oracle(L, monkeypatch)
    assert der == _reference_derivations(L)


@pytest.mark.parametrize("d,dim", [(2, 4), (3, 9)], ids=str)
def test_oracle_without_a_grading_element(d, dim):
    # an abelian algebra has ad = 0, so every weight is 0 and every map is
    # a derivation
    L = LieAlgebra(d, None, [])
    assert grading(L) == (0,) * d
    der = derivation_algebra(L)
    assert der.dim == dim
    assert der == _reference_derivations(L)


def _sl2_pair():
    """sl2 + sl2 on (e, h, f, e', h', f'): h and h' share weight 0, the one
    weight that two basis vectors have."""
    triples = [(1, 0, 0, 2), (1, 2, 2, -2), (0, 2, 1, 1),
               (4, 3, 3, 2), (4, 5, 5, -2), (3, 5, 4, 1)]
    return LieAlgebra(6, None, triples)


def test_oracle_with_shared_weights(monkeypatch):
    L = _sl2_pair()
    assert validate_structure(L).ok
    W = grading(L)
    assert W[1] == W[4] == 0 and len(set(W)) == 5
    assert jacobi_holds(L)
    der = derivation_algebra(L)
    assert der.dim == 6
    assert der == inner_derivations(L)
    assert der == _one_block_oracle(L, monkeypatch)
    assert der == _reference_derivations(L)
    # x_1 and x_2 share the nonzero weight of [x_0, x_k] = x_k, so the
    # oracle eliminates the block ad(L_mu) of several x on its own; then
    # with x_3 of twice that weight and [x_1, x_2] = x_3 as well
    for triples, der_dim in [([(0, 1, 1, 1), (0, 2, 2, 1)], 6),
                             ([(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 2), (1, 2, 3, 1)], 7)]:
        L = LieAlgebra(1 + max(k for _, _, k, _ in triples), None, triples)
        W = grading(L)
        assert W[1] == W[2] != 0 and jacobi_holds(L)
        der = derivation_algebra(L)
        assert der.dim == der_dim
        assert der == _one_block_oracle(L, monkeypatch)
        assert der == _reference_derivations(L)


def test_oracle_writes_the_canonical_rows():
    # the oracle writes Der q's basis without a second elimination; it is
    # the canonical one, key order included, on built, 3/2-scaled and
    # reloaded tables
    for comp in (c for n in range(1, 8) for c in compositions(n)):
        for z in range(3):
            q = build_standard_parabolic(comp, extra_center=z)
            for L in (q.algebra, scaled_parabolic(comp, Q(3, 2), z).algebra,
                      LieAlgebra.from_json_dict(q.algebra.to_json_dict())):
                rows = derivation_algebra(L).rows
                canonical = Subspace.from_sparse(L.dim ** 2, rows).rows
                assert [list(r.items()) for r in rows] == [list(r.items()) for r in canonical]


@pytest.mark.parametrize("weights", [(), (0,)], ids=str)
def test_oracle_in_dimensions_0_and_1(weights):
    L = LieAlgebra(len(weights), None, [])
    assert grading(L) == weights
    assert derivation_algebra(L) == Subspace.full(len(weights) ** 2)


def _graded_tables(st):
    """Hypothesis draws of tables on 1 to 4 basis vectors graded by drawn
    weights: the drawn triples that respect the weights, and in half the
    draws a grading element h = x_d with [h, x_k] = w_k x_k, whose diagonal
    ad ``grading`` reads."""
    rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))

    def graded_table(d, weights, ts, with_h):
        triples = [(i, j, k, v) for (i, j), k, v in ts if weights[k] == weights[i] + weights[j]]
        if with_h:
            triples += [(d, k, k, w) for k, w in enumerate(weights) if w]
            d += 1
        return LieAlgebra(d, None, triples)

    def tables(d):
        pair = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(lambda p: p[0] < p[1])
        triple = st.tuples(pair, st.integers(0, d - 1), rational)
        weights = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        return st.builds(graded_table, st.just(d), weights, st.lists(triple, max_size=8),
                         st.booleans())

    return st.integers(1, 4).flatmap(tables)


def test_property_graded_oracle_matches_dense_reference():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(_graded_tables(hyp.strategies))
    def check(L):
        assert derivation_algebra(L) == _reference_derivations(L)

    check()


CERTIFICATE_CASES = [(b, z, rs) for n in range(1, 5) for b in compositions(n)
                     for z in (0, 1) for rs in (1, Q(3, 2))]


def _assert_jacobi_matches(L):
    # validate_structure lists the failing triples of the reference's
    # triple scan, in its order, and jacobi_holds stops at the first
    violations = validate_structure(L).jacobi_violations
    assert violations == list(jacobi_failures(L))
    assert jacobi_holds(L) == (not violations)


def test_jacobi_certificate_matches_validate_structure():
    # the built tables carry the certificate, their bare copies compute it
    tables = [scaled_parabolic(b, rs, extra_center=z).algebra
              for b, z, rs in CERTIFICATE_CASES]
    tables += [LieAlgebra(L.dim, L.labels, L.triples()) for L in tables]
    tables += [_doubled((2, 1), (1, 3, 3)), _doubled((3,), (3, 5, 1)), _sl2_pair()]
    assert [jacobi_holds(L) for L in tables[-3:]] == [False, False, True]
    for L in tables:
        _assert_jacobi_matches(L)


def test_property_jacobi_certificate_matches_validate_structure():
    # the graded-table draws, and parabolics of gl_n, n <= 3, with up to
    # two constants rescaled (Jacobi mostly breaks, and the grading with it
    # when a coroot's constant is rescaled)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    def rescaled(blocks, changes):
        L0 = build_standard_parabolic(blocks).algebra
        triples = L0.triples()
        factor = {t % len(triples): c for t, c in changes}
        return LieAlgebra(L0.dim, None, [(i, j, k, v * factor.get(t, 1))
                                         for t, (i, j, k, v) in enumerate(triples)])

    parabolic = st.sampled_from([b for n in range(2, 4) for b in compositions(n)])
    change = st.tuples(st.integers(0, 99), st.builds(Q, st.integers(-2, 2), st.integers(1, 2)))
    tables = _graded_tables(st) | st.builds(rescaled, parabolic, st.lists(change, max_size=2))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(tables)
    def check(L):
        seen.add(jacobi_holds(L))
        _assert_jacobi_matches(L)

    check()
    assert seen == {False, True}


def _leibniz_calls(monkeypatch):
    """The maps passed to ``first_leibniz_violation`` from now on, by the
    Jacobi certificate and by the Leibniz gates alike."""
    calls = []
    real = lie.first_leibniz_violation
    for module in (lie, derivations):
        monkeypatch.setattr(module, "first_leibniz_violation",
                            lambda L, m: calls.append(m) or real(L, m))
    return calls


def test_jacobi_certificate_is_computed_once(monkeypatch):
    # the (2,1,1) parabolic of gl_4 reloaded as a bare table carries no
    # certificate; the oracle and the theorem check share the one they
    # compute, by one triple scan per table, with no grading and no Leibniz
    # check
    L = build_standard_parabolic((2, 1, 1)).algebra
    calls = _leibniz_calls(monkeypatch)
    scans = []
    scan = lie._jacobi_failures
    monkeypatch.setattr(lie, "_jacobi_failures", lambda L: scans.append(L) or scan(L))
    monkeypatch.setattr(lie, "grading", lambda L: pytest.fail("jacobi_holds read the grading"))
    for table in (LieAlgebra.from_json_dict(L.to_json_dict()),
                  LieAlgebra(L.dim, L.labels, L.triples())):
        q = build_standard_parabolic((2, 1, 1))
        q.algebra = table
        calls.clear()
        scans.clear()
        assert verify_main_theorem(q, derivation_algebra(q.algebra)).ok
        assert jacobi_holds(table) and scans == [table] and calls == []


def test_built_parabolic_makes_no_leibniz_call(monkeypatch):
    # the build carries the certificate, and a derivation that passes the
    # residual checks of the split lies in the certified lid + ad q
    calls = _leibniz_calls(monkeypatch)
    q = build_standard_parabolic((2, 1, 1), extra_center=1)
    der = derivation_algebra(q.algebra)
    assert verify_main_theorem(q, der).ok
    D = random_combination(q.algebra, der, random.Random(5))
    res = constructive_decompose(q, D)
    assert any(res.l_part.cols) and res.p
    assert res.l_part + ad_matrix(q.algebra, res.p) == D
    assert calls == []


def test_jacobi_certificate_provenance():
    # only the build sets the certificate; every table made another way
    # starts without one and computes it
    q = build_standard_parabolic((2, 1), extra_center=1)
    L = q.algebra
    assert L._jacobi is True
    derived = Subspace.units(q.dim, q.derived_indices)
    others = [LieAlgebra.from_json_dict(L.to_json_dict()), restrict(L, derived),
              complexify(L)[0], LieAlgebra(L.dim, L.labels, L.triples())]
    assert L._support == q.derived_indices
    assert [(M._jacobi, M._generators, M._support) for M in others] == [(None, None, None)] * 4
    assert all(jacobi_holds(M) for M in others)
    doubled = LieAlgebra.from_json_dict(_doubled((2, 1), (1, 3, 3)).to_json_dict())
    assert doubled._jacobi is None and not jacobi_holds(doubled)


def test_build_certifies_a_generating_set():
    # the certified generators of every built q are exactly the simple root
    # generators x_(k,k+1) in increasing position: their span, bracketed with
    # them until it stops growing, is the span of the positive root
    # generators, so the certificate names no coroot and no negative root
    for n in range(1, 7):
        for blocks in compositions(n):
            for extra_center in (0, 1):
                q = build_standard_parabolic(blocks, extra_center=extra_center)
                L = q.algebra
                gens = L._generators
                assert gens == tuple(sorted(q.root_index[(k, k + 1)] for k in range(1, n)))
                G = span = Subspace.units(L.dim, gens)
                while (grown := subspace_sum(span, bracket_span(L, G, span))) != span:
                    span = grown
                positive = [pos for (i, j), pos in q.root_index.items() if i < j]
                assert span == Subspace.units(L.dim, positive), (blocks, extra_center)
    L = build_standard_parabolic((3, 2, 1), extra_center=1).algebra
    assert [L.labels[g] for g in L._generators] == [
        "E[1,2]", "E[2,3]", "E[3,4]", "E[4,5]", "E[5,6]"]


def test_build_records_where_its_brackets_land():
    # the recorded positions of every built q with n <= 7 are exactly where
    # the brackets of its table land, the derived positions; with them every
    # build with n <= 8, and every rescaled one, certifies lid + ad q
    for n in range(1, 9):
        for blocks in compositions(n):
            for extra_center in (0, 1, 2):
                q = build_standard_parabolic(blocks, extra_center=extra_center)
                L = q.algebra
                if n <= 7:
                    lands = {k for row in L.int_table for ks in row.values() for k in ks}
                    assert L._support == tuple(sorted(lands)) == q.derived_indices
                assert _sum_certified(q), (blocks, extra_center)
    for blocks in compositions(5):
        for root_scale in (Q(3, 2), Q(-2, 3)):
            assert _sum_certified(scaled_parabolic(blocks, root_scale, extra_center=1))


def _oracle_rows(L):
    """The rows of ``derivation_algebra(L)``, key order included."""
    return [list(row.items()) for row in derivation_algebra(L).rows]


@pytest.mark.parametrize("root_scale,max_n,extra_center", [
    (1, 7, 0), (1, 7, 1), (1, 7, 2), (1, 8, 0),
    (Q(3, 2), 5, 0), (Q(3, 2), 5, 1), (Q(-2, 3), 5, 0), (Q(-2, 3), 5, 1)], ids=str)
def test_oracle_on_generator_pairs_matches_every_pair(root_scale, max_n, extra_center):
    # a built or rescaled table feeds only the pairs that meet its certified
    # generators; read back from JSON it has no certificate and feeds every pair
    for n in range(1, max_n + 1):
        for blocks in compositions(n):
            L = scaled_parabolic(blocks, root_scale, extra_center=extra_center).algebra
            reloaded = LieAlgebra.from_json_dict(L.to_json_dict())
            assert L._generators is not None and reloaded._generators is None
            assert _oracle_rows(L) == _oracle_rows(reloaded), blocks


def test_built_gl5_feeds_fewer_rows_than_its_reloaded_copy(monkeypatch):
    # the built gl_5 feeds 61 Leibniz rows, then the 20 ad x of nonzero
    # weight to a second reducer; read back from JSON it walks every pair.
    # The Borel of gl_8 feeds 92 Leibniz rows. A change to the walk shows
    # here as a count
    fed = []

    class Counting(_RowReducer):
        def add_row(self, row):
            fed.append(id(self))
            return super().add_row(row)

    def rows_per_reducer(L):
        fed.clear()
        return derivation_algebra(L), list(Counter(fed).values())

    monkeypatch.setattr(derivations, "_RowReducer", Counting)
    L = build_standard_parabolic((5,)).algebra
    der, built = rows_per_reducer(L)
    assert built == [61, 20]
    reloaded, every_pair = rows_per_reducer(LieAlgebra.from_json_dict(L.to_json_dict()))
    assert reloaded == der and every_pair == [210, 20]
    assert rows_per_reducer(build_standard_parabolic((1,) * 8).algebra)[1][0] == 92


def test_oracle_needs_each_certified_generator():
    # the graded oracle reads every certified generator: on each built q with
    # 2 <= n <= 6, dropping any one x_(k,k+1) from the certificate leaves a
    # walk whose kernel is larger than Der q and contains it
    for n in range(2, 7):
        for blocks in compositions(n):
            for extra_center in (0, 1):
                L = build_standard_parabolic(blocks, extra_center=extra_center).algebra
                certified = L._generators
                der = derivation_algebra(L)
                for g in certified:
                    L._generators = tuple(h for h in certified if h != g)
                    grown = derivation_algebra(L)
                    assert grown.dim > der.dim, (blocks, extra_center, L.labels[g])
                    assert subspace_sum(grown, der) == grown


def test_oracle_keeps_every_pair_on_a_table_that_breaks_jacobi():
    # the reduction to the generators' pairs needs Jacobi: a table that breaks
    # it keeps every pair, even with a certificate set on it (here that of
    # the table it was made from), and has the kernel of the bare table;
    # fed only the generators' pairs it would have dim 17 against 6
    bare = _doubled((2, 2), (1, 6, 6))
    certified = _doubled((2, 2), (1, 6, 6))
    certified._generators = build_standard_parabolic((2, 2)).algebra._generators
    assert not jacobi_holds(certified)
    assert derivation_algebra(certified) == derivation_algebra(bare)
    assert derivation_algebra(bare).dim == 6


def _unit(L, u):
    """The map x_k -> x_i for the flat index u = k*dim + i."""
    return EndoMatrix.from_flat(L, {u: 1})


def test_decompose_gates_a_map_outside_an_uncertified_sum():
    # bracket_on_c: the (1,2) table in q = (2,1) keeps Jacobi but brackets
    # onto H[2], which spans c, so the unit map H[2] -> I of lid is no
    # derivation; it passes every residual check, so only the gate stops it
    q = build_standard_parabolic((2, 1))
    q.algebra = build_standard_parabolic((1, 2)).algebra
    with pytest.raises(NotADerivationError) as exc:
        constructive_decompose(q, _unit(q.algebra, 2 * q.dim + 0))
    assert exc.value.pair == (5, 6)
    # the doubled constant breaks Jacobi, and ad H[1] with it
    q.algebra = _doubled((2, 1), (1, 3, 3))
    with pytest.raises(NotADerivationError) as exc:
        constructive_decompose(q, ad_matrix(q.algebra, {1: 1}))
    assert exc.value.pair == (3, 5)


def test_decompose_raises_decomposition_error_on_a_swapped_table():
    # the (1,2) table in q = (2,1): each oracle basis map is a derivation of
    # the table, but the root data of q do not fit it, so five of the eight
    # fail a residual check and raise DecompositionError, not a Leibniz error
    q = build_standard_parabolic((2, 1))
    q.algebra = build_standard_parabolic((1, 2)).algebra
    outcomes, errors = [], []
    for row in derivation_algebra(q.algebra).rows:
        try:
            constructive_decompose(q, EndoMatrix.from_flat(q.algebra, row))
            outcomes.append("split")
        except DecompositionError as exc:
            outcomes.append(str(exc))
            errors.append(exc)
    kill, center = "residual map does not kill", "residual map does not land in the center"
    assert outcomes == [
        "split", f"{kill} the derived algebra at column 1", "split", "split",
        f"{center} at column 1", f"{center} at column 1",
        f"{center} at column 4", f"{center} at column 4",
    ]
    assert errors[3].diagnostics == {
        "d_gamma": {(1, 2): 0, (1, 3): 0, (2, 1): 0, (2, 3): 0},
        "c_gamma": {(1, 2): 1, (1, 3): 0, (2, 1): -1, (2, 3): 1},
        "h_star": {1: 1, 2: 1},
        "p": {1: 1, 2: 1},
    }


def test_decompose_rejects_a_map_of_another_algebra():
    # one error from both splits for every foreign map: smaller than the
    # coroot indices of q, smaller, equal-sized but breaking Leibniz, or a
    # derivation of an equal table
    q = build_standard_parabolic((2, 1))
    tiny = build_standard_parabolic((1,)).algebra
    smaller = build_standard_parabolic((1, 1)).algebra
    twin = build_standard_parabolic((2, 1)).algebra
    breaking = next(_unit(twin, u) for u in range(twin.dim ** 2)
                    if first_leibniz_violation(twin, _unit(twin, u)) is not None)
    for D in (EndoMatrix(tiny, [{}]), ad_matrix(smaller, {1: 1}), breaking,
              ad_matrix(twin, {1: 1})):
        for split in (constructive_decompose, split_derivation):
            with pytest.raises(ValueError, match="different algebras"):
                split(q, D)


PARABOLICS_N4 = [(b, z) for n in range(1, 5) for b in compositions(n) for z in (0, 1)]


def test_property_decompose_matches_leibniz_gate():
    # a random combination of Der q, plus in half the draws a nonzero
    # multiple of a unit map that breaks Leibniz: decompose raises with the
    # gate's own pair exactly when the gate finds one, and splits otherwise
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cases = {}
    seen = set()

    def case(c):
        if c not in cases:
            q = build_standard_parabolic(PARABOLICS_N4[c][0], extra_center=PARABOLICS_N4[c][1])
            L = q.algebra
            breaking = [u for u in range(L.dim ** 2)
                        if first_leibniz_violation(L, _unit(L, u)) is not None]
            cases[c] = q, derivation_algebra(L), breaking
        return cases[c]

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, len(PARABOLICS_N4) - 1), st.randoms(use_true_random=False),
               st.booleans(), st.integers(0, 10 ** 6),
               st.builds(Q, st.sampled_from((-3, -1, 1, 2)), st.integers(1, 3)))
    def check(c, rng, perturb, pick, scale):
        q, der, breaking = case(c)
        L = q.algebra
        D = random_combination(L, der, rng)
        if perturb and breaking:
            D = D + EndoMatrix.from_flat(L, {breaking[pick % len(breaking)]: scale})
        pair = first_leibniz_violation(L, D)
        seen.add(pair is None)
        if pair is None:
            res = constructive_decompose(q, D)
            assert res.l_part + ad_matrix(L, res.p) == D
        else:
            with pytest.raises(NotADerivationError) as exc:
                constructive_decompose(q, D)
            assert exc.value.pair == pair

    check()
    assert seen == {False, True}


INNER_CASES = (
    [("parabolic", b, rs) for n in range(1, 5) for b in compositions(n) for rs in ("1", "3/2")]
    + [("gl3", None, None), ("complexified gl2", None, None)]
)


@pytest.mark.parametrize("kind,blocks,scale", INNER_CASES, ids=str)
def test_inner_derivations_match_dense_ad_maps(kind, blocks, scale):
    if kind == "parabolic":
        L = scaled_parabolic(blocks, Q(scale)).algebra
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
    assert inner_derivations(golden_q.algebra).dim == 24


def test_inner_derivations_semisimple_parabolic():
    q = build_standard_parabolic((1, 1, 1))
    sl = restrict(q.algebra, adapted_subspaces(q)["semisimple_part"])
    inner = inner_derivations(sl)
    assert inner.dim == sl.dim  # trivial center


def test_inner_derivations_gl1():
    q = build_standard_parabolic((1,))
    assert inner_derivations(q.algebra).dim == 0


def test_l_ideal_golden(golden_q):
    lid = l_ideal(golden_q)
    assert lid.dim == 3
    for flat in lid.rows:
        D = EndoMatrix.from_flat(golden_q.algebra, flat)
        assert first_leibniz_violation(golden_q.algebra, D) is None


def test_l_ideal_whole_algebra():
    for n in (2, 3):
        q = build_standard_parabolic((n,))
        assert l_ideal(q).dim == 1


def test_l_ideal_gl1_degenerate():
    q = build_standard_parabolic((1,))
    assert l_ideal(q).dim == 1
    report = verify_main_theorem(q, derivation_algebra(q.algebra))
    assert report.ok
    assert (report.der_dim, report.l_dim, report.inner_dim) == (1, 1, 0)


def test_verify_golden(golden_q, golden_der):
    report = verify_main_theorem(golden_q, golden_der)
    assert report.ok, report
    assert (report.der_dim, report.l_dim, report.inner_dim) == (27, 3, 24)
    assert report.h1_dim == 3
    assert report.counterexample is None


def test_verify_sweep_small_n():
    for n in range(1, 5):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            report = verify_main_theorem(q, derivation_algebra(q.algebra))
            assert report.ok, (blocks, report)


def test_borel_sl3_all_inner():
    q = build_standard_parabolic((1, 1, 1))
    sl_borel = restrict(q.algebra, adapted_subspaces(q)["semisimple_part"])
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
    assert golden_der.dim - inner_derivations(golden_q.algebra).dim == 3
    for n in (2, 3):
        q = build_standard_parabolic((n,))
        assert derivation_algebra(q.algebra).dim - inner_derivations(q.algebra).dim == 1
    q = build_standard_parabolic((2, 1))
    sl = restrict(q.algebra, adapted_subspaces(q)["semisimple_part"])
    assert derivation_algebra(sl).dim - inner_derivations(sl).dim == 0


def test_decompose_inner_input(golden_q):
    q = golden_q
    pos = q.root_index[(1, 2)]
    D = ad_matrix(q.algebra, {pos: 1})
    res = constructive_decompose(q, D)
    assert not any(res.l_part.cols)
    assert res.p == {pos: 1}


def test_decompose_center_valued_fixed_point():
    q = build_standard_parabolic((1, 1))  # basis I, h1, e12
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
    assert first_leibniz_violation(L, good) is None
    bad = identity(L)
    pair = first_leibniz_violation(L, bad)
    assert pair is not None
    # every entry point that takes a map runs the one check and names its pair
    for call in (
        lambda: constructive_decompose(golden_q, bad),
        lambda: extend_derivation(L, bad, complexify(L)[0]),
        lambda: split_derivation(golden_q, bad),
    ):
        with pytest.raises(NotADerivationError) as exc:
            call()
        assert exc.value.pair == pair


def test_decompose_random_round_trips(golden_q, golden_der):
    q = golden_q
    rng = random.Random(2024)
    for _ in range(100):
        D = random_combination(q.algebra, golden_der, rng)
        res = constructive_decompose(q, D)
        assert res.l_part + ad_matrix(q.algebra, res.p) == D
        assert as_matrix(res.l_part) + as_matrix(ad_matrix(q.algebra, res.p)) == as_matrix(D)
        # residual part lands in the center and kills the derived algebra
        l_dense = as_matrix(res.l_part)
        for j in range(q.dim):
            col = l_dense.col(j)
            assert all(col[i] == 0 for i in range(q.dim) if i not in q.center_indices)
        for v in Subspace.units(q.dim, q.derived_indices).vectors():
            assert not any(l_dense.mul_vec(v))
        # inner element has no central component
        assert all(res.p.get(i, 0) == 0 for i in q.center_indices)


# tables swapped into q = (1,1) (basis I, H[1], E[1,2]). "swapped" has
# [H[1], E[1,2]] = 2 E[1,2] + I: lid meets ad q in 0, but no map of lid is a
# derivation and S = lid + ad q is not Der q, so ``verify_main_theorem``
# reports direct_sum. "heisenberg" is h_3, where ad x_2 lies in lid, so the
# split is not unique
SWAPPED_TABLES = {"swapped": [(1, 2, 2, 2), (1, 2, 0, 1)], "heisenberg": [(1, 2, 0, -1)]}

# (blocks, build keywords, draws): the golden example, every composition of
# n <= 4 with and without an extra central generator, a rational root scale
# and the two swapped tables
PROJECTION_CASES = (
    [((3, 2, 1), {}, 10)]
    + [(b, {"extra_center": z}, 2) for n in range(1, 5) for b in compositions(n) for z in (0, 1)]
    + [((2, 1, 2), {"root_scale": Q(3, 2)}, 2)]
    + [((1, 1), {"table": name}, 10) for name in SWAPPED_TABLES]
)


@pytest.mark.parametrize("blocks,kwargs,draws", PROJECTION_CASES, ids=[
    ",".join(map(str, b)) + "".join(f"-{k}={v}" for k, v in kw.items())
    for b, kw, _ in PROJECTION_CASES])
def test_decompose_matches_projection(blocks, kwargs, draws):
    # the projection of a draw from S puts l in lid and D - l in ad q, they
    # sum to D, and l is 0 at the pivots of lid ∩ ad q. Where S is Der q, the
    # constructive split and the projection agree; with l_part = D - ad p by
    # construction, this is the cross-check that D is split into the right
    # two summands
    q = scaled_parabolic(blocks, kwargs.get("root_scale", 1),
                         extra_center=kwargs.get("extra_center", 0))
    if "table" in kwargs:
        q.algebra = LieAlgebra(3, q.algebra.labels, SWAPPED_TABLES[kwargs["table"]])
    L = q.algebra
    lid, inner = l_ideal(q), inner_derivations(L)
    S = subspace_sum(lid, inner)
    theorem = S == derivation_algebra(L)
    assert theorem is ("table" not in kwargs)
    meet = subspace_intersect(lid, inner).pivots()
    assert bool(meet) is (kwargs.get("table") == "heisenberg")
    rng = random.Random(77)
    for _ in range(draws):
        D = random_combination(L, S, rng)
        l_comp, inner_comp = split_derivation(q, D)
        l_flat = l_comp.flat()
        assert contains(lid, l_flat) and contains(inner, inner_comp.flat())
        assert l_comp + inner_comp == D
        assert not l_flat.keys() & set(meet)
        if theorem:
            res = constructive_decompose(q, D)
            assert l_comp == res.l_part
            assert inner_comp == ad_matrix(L, res.p)


def test_projection_is_one_tagged_elimination(monkeypatch):
    # the projection reduces D in one elimination that holds ad q and lid:
    # no solve of a transposed system, no second elimination of ad q, no
    # coordinates combined back into a map
    q = build_standard_parabolic((3, 2, 1), extra_center=1)
    L = q.algebra
    D = random_combination(L, derivation_algebra(L), random.Random(41))
    res = constructive_decompose(q, D)
    reducers = []

    class Counting(_RowReducer):
        def __init__(self, *args):
            reducers.append(self)
            super().__init__(*args)

    def refuse(*args):
        raise AssertionError("the projection left its one elimination")

    monkeypatch.setattr(derivations, "_RowReducer", Counting)
    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(derivations, "inner_derivations", refuse)
    monkeypatch.setattr(Subspace, "combination", refuse)
    monkeypatch.setattr(EndoMatrix, "flat", refuse)
    assert split_derivation(q, D) == (res.l_part, ad_matrix(L, res.p))
    assert len(reducers) == 1


def test_p_is_unique_in_trace_zero_part(golden_q, golden_der):
    q = golden_q
    d = q.dim
    rng = random.Random(99)
    ad_cols = [flatten(as_matrix(ad_matrix(q.algebra, {i: 1}))) for i in range(d)]
    system = Matrix(d * d, d, [ad_cols[i][r] for r in range(d * d) for i in range(d)])
    for _ in range(3):
        D = random_combination(q.algebra, golden_der, rng)
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
    d1 = random_combination(q.algebra, golden_der, rng)
    d2 = random_combination(q.algebra, golden_der, rng)
    a, b = Q(3, 2), Q(-5, 7)

    def scaled(E, c):
        return EndoMatrix(E.algebra, [{i: c * e for i, e in col.items()} for col in E.cols], E.den)

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
        D = random_combination(q.algebra, golden_der, rng)
        x, _ = root_line_reduction(q, D)
        reduced = as_matrix(D - ad_matrix(q.algebra, x))
        # annihilates the within-block coroots
        for pos in t_positions:
            assert not any(reduced.col(pos))
        # stabilizes each root line
        for pos in q.root_index.values():
            col = reduced.col(pos)
            assert all(col[i] == 0 for i in range(q.dim) if i != pos)
        # maps the complementary coroots into the center
        for pos in c_positions:
            col = reduced.col(pos)
            assert all(col[i] == 0 for i in range(q.dim) if i not in center_set)


def test_root_line_reduction_reads_d_gamma_off_any_map():
    # d_gamma[(i, j)] is half the x_(i,j) coefficient of D(e_ii - e_jj),
    # whether or not D is a derivation and over any denominator, with
    # e_ii - e_jj written in the coroots from its diagonal
    rng = random.Random(31)
    for n in range(1, 6):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            L, d = q.algebra, q.dim
            der = derivation_algebra(L)
            maps = [random_combination(L, der, rng) for _ in range(2)]
            maps += [EndoMatrix(L, [{i: rng.randint(-9, 9) for i in rng.sample(range(d), min(3, d))}
                                    for _ in range(d)]) for _ in range(2)]
            for D in maps:
                for den in (1, 3):
                    E = EndoMatrix(L, [{i: Q(e, den) for i, e in c.items()} for c in D.cols], D.den)
                    x, d_gamma = root_line_reduction(q, E)
                    assert d_gamma.keys() == q.root_index.keys()
                    M = as_matrix(E)
                    for (i, j), pos in q.root_index.items():
                        h = cartan_element(q, [(k == i) - (k == j) for k in range(1, n + 1)])
                        assert root_value(q, (i, j), h) == 2
                        assert d_gamma[(i, j)] == M.mul_vec(dense(d, h))[pos] / 2, (blocks, i, j)
                    assert x == {q.root_index[r]: -v for r, v in d_gamma.items() if v}


def test_scalar_projection_identity(golden_q, golden_der):
    q = golden_q
    rng = random.Random(12)
    for _ in range(5):
        D = as_matrix(random_combination(q.algebra, golden_der, rng))
        hc = [Q(0)] * q.dim
        kc = [Q(0)] * q.dim
        for k in range(1, 6):
            hc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
            kc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
        Dh = D.mul_vec(hc)
        Dk = D.mul_vec(kc)
        for root, pos in q.root_index.items():
            gh = root_value(q, root, sparse(hc))
            gk = root_value(q, root, sparse(kc))
            assert Dk[pos] * gh - Dh[pos] * gk == 0


def test_c_gamma_antisymmetry_on_opposite_roots(golden_q, golden_der):
    q = golden_q
    rng = random.Random(21)
    D = random_combination(q.algebra, golden_der, rng)
    res = constructive_decompose(q, D)
    for (i, j), value in res.c_gamma.items():
        if (j, i) in res.c_gamma:
            assert res.c_gamma[(j, i)] == -value


def test_normalization_independence(golden_q, golden_der):
    q = golden_q
    q2 = scaled_parabolic((3, 2, 1), 2)
    d = q.dim
    scale = [Q(1)] * d
    for pos in q.root_index.values():
        scale[pos] = Q(2)
    S = Matrix(d, d, [scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
    S_inv = Matrix(d, d, [1 / scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
    rng = random.Random(55)
    for _ in range(3):
        D = as_matrix(random_combination(q.algebra, golden_der, rng))
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
    inner = inner_derivations(q.algebra)
    rng = random.Random(61)
    D = as_matrix(random_combination(q.algebra, golden_der, rng))
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
    inner = inner_derivations(q.algebra)
    L = q.algebra
    ls = [as_matrix(EndoMatrix.from_flat(L, flat)) for flat in lid.rows]
    ads = [as_matrix(ad_matrix(L, {i: 1})) for i in range(d)]
    ds = [as_matrix(EndoMatrix.from_flat(L, flat)) for flat in space.rows]
    l_ok = all(contains(lid, sparse(flatten(D * E - E * D))) for D in ds for E in ls)
    inner_ok = all(contains(inner, sparse(flatten(D * A - A * D))) for D in ds for A in ads)
    return l_ok, inner_ok


INJECTED_FAULTS = ["identity", "center_to_root", "identity_at_root_scale_3/2",
                   "identity_plus_center_to_root", "identity_and_center_to_root"]


def _injected_space(request, extra):
    """(q, Der q plus the maps that extra names): the golden q, or the
    (2,1) parabolic at root scale 3/2."""
    if extra == "identity_at_root_scale_3/2":
        # the maps ad x_i have denominators here, which [D, ad x_i] must carry
        q = scaled_parabolic((2, 1), Q(3, 2))
        der = derivation_algebra(q.algebra)
        assert any(ad_matrix(q.algebra, {i: 1}).den > 1 for i in range(q.dim))
    else:
        q, der = request.getfixturevalue("golden_q"), request.getfixturevalue("golden_der")
    d = q.dim
    ident = sparse(flatten(Matrix.identity(d)))
    to_root = {0 * d + 10: Q(1)}  # the scalar I -> x_10
    # one row of two weights, or two non-derivations of distinct weights
    # that the theorem check's Leibniz gate can meet in one batch
    injected = {"center_to_root": [to_root],
                "identity_plus_center_to_root": [{**ident, **to_root}],
                "identity_and_center_to_root": [ident, to_root]}.get(extra, [ident])
    space = subspace_sum(der, Subspace.from_sparse(d * d, injected))
    assert space.dim == der.dim + len(injected)
    return q, space


@pytest.mark.parametrize("extra", INJECTED_FAULTS)
def test_fault_injected_closure_flags(request, extra):
    q, space = _injected_space(request, extra)
    d = q.dim
    W = grading(q.algebra)
    if extra == "identity_plus_center_to_root":
        assert any(len({W[f % d] - W[f // d] for f in row}) == 2 for row in space.rows)
    report = verify_main_theorem(q, space)
    assert (report.l_is_ideal_ok, report.inner_is_ideal_ok) == _brute_force_closure_flags(q, space)
    assert not report.direct_sum_ok and not report.ok
    # the first failing check names the witness, whatever fails after it
    assert report.counterexample == {"kind": "direct_sum"}


def test_property_theorem_gate_matches_brute_force_flags():
    # maps added to the oracle basis: a sparse map (a non-derivation in
    # general), a derivation, and their sum, which mixes weights; the last
    # case swaps in a table that breaks Jacobi, so lid + ad q is not certified
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cases = [build_standard_parabolic(b) for n in range(1, 4) for b in compositions(n)]
    broken = build_standard_parabolic((2, 1))
    broken.algebra = _doubled((2, 1), (1, 3, 3))
    cases.append(broken)
    ders = [derivation_algebra(q.algebra) for q in cases]

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, len(cases) - 1),
               st.lists(st.tuples(st.sampled_from(("sparse", "derivation", "mixed")),
                                  st.randoms(use_true_random=False)), max_size=3))
    def check(c, injections):
        q, der = cases[c], ders[c]
        d = q.dim
        injected = []
        for kind, rng in injections:
            sparse_map = {rng.randrange(d * d): rng.choice((-2, -1, 1, 3)) for _ in range(2)}
            derivation = random_combination(q.algebra, der, rng).flat()
            if kind == "sparse":
                injected.append(sparse_map)
            elif kind == "derivation":
                injected.append(derivation)
            else:
                injected.append({f: derivation.get(f, 0) + sparse_map.get(f, 0)
                                 for f in derivation.keys() | sparse_map.keys()})
        space = Subspace.from_sparse(d * d, list(der.rows) + injected)
        report = verify_main_theorem(q, space)
        flags = (report.l_is_ideal_ok, report.inner_is_ideal_ok)
        assert flags == _brute_force_closure_flags(q, space)

    check()


def test_l_closure_witness_names_the_place_in_the_derived_set():
    # with E[1,3] left out of q's derived set, ad E[1,2] maps E[2,3], still
    # in the set, onto E[1,3]; only the l_closure check reads the set, so it
    # alone fails, and its witness names the derivation and the place of
    # E[2,3] among the set's positions (1, 3, 5, 6)
    q = build_standard_parabolic((2, 1))
    x = q.root_index[(1, 3)]
    q.derived_indices = tuple(p for p in q.derived_indices if p != x)
    assert q.derived_indices[3] == q.root_index[(2, 3)]
    report = verify_main_theorem(q, derivation_algebra(q.algebra))
    flags = (report.direct_sum_ok, report.l_is_ideal_ok, report.inner_is_ideal_ok,
             report.formula_ok)
    assert flags == (True, False, True, True)
    assert report.counterexample == {"kind": "l_closure", "der_index": 1,
                                     "subspace": "derived", "vector_index": 3}


UNCERTIFIED_LID = ["center_not_central", "bracket_on_c"]


def _uncertified_lid(case):
    """A parabolic with a swapped table that keeps Jacobi but makes some
    E(z, u) of lid no derivation: x_z not central, or a bracket onto x_u."""
    if case == "center_not_central":
        q = build_standard_parabolic((1, 1))  # basis I, H[1], E[1,2]
        q.algebra = LieAlgebra(3, None, [(0, 2, 2, 1), (1, 2, 2, 2)])
    else:
        q = build_standard_parabolic((2, 1))  # c is spanned by H[2], index 2
        q.algebra = build_standard_parabolic((1, 2)).algebra  # [E[2,3], E[3,2]] = H[2]
        assert q.c_indices == (2,) and q.algebra.int_table[5][6] == {2: 1}
    assert validate_structure(q.algebra).ok
    return q


@pytest.mark.parametrize("case", UNCERTIFIED_LID)
def test_theorem_gate_certifies_each_center_valued_map(case):
    # lid + ad q is taken to lie in Der q only if every E(z, u) of lid is a
    # derivation: x_z central and no bracket with a component on x_u. Each
    # table keeps Jacobi but breaks one of the two, so lid holds a map D with
    # some [D, ad x] outside ad q, which the check must test even though D
    # lies in lid + ad q, the space checked here
    q = _uncertified_lid(case)
    space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    report = verify_main_theorem(q, space)
    assert (report.l_is_ideal_ok, report.inner_is_ideal_ok) == _brute_force_closure_flags(q, space)
    assert not report.inner_is_ideal_ok


def test_theorem_check_builds_no_map_for_a_certified_split(golden_q, golden_der, monkeypatch):
    # every oracle derivation lies in lid + ad q, which is certified, so no
    # map is rebuilt from its flat form and no commutator is tested
    def refuse(*args):
        raise AssertionError("map built")

    monkeypatch.setattr(EndoMatrix, "from_flat", refuse)
    assert verify_main_theorem(golden_q, golden_der).ok


def _reloaded(q):
    """q with its table read back through JSON: equal, but not the build's,
    so the theorem check tests the inner closure of every derivation."""
    q.algebra = LieAlgebra.from_json_dict(q.algebra.to_json_dict())
    assert not _sum_certified(q)
    return q


@pytest.mark.parametrize("case", ["reloaded", *UNCERTIFIED_LID])
def test_theorem_check_reads_the_inner_closure_off_leibniz_residuals(case, monkeypatch):
    # [D, ad x_i] = ad(D x_i) + R_i with R_i(x_j) the Leibniz residual of D at
    # (x_i, x_j), so an uncertified check tests each R_i against ad q and
    # rebuilds no map: no ad_matrix, EndoMatrix.apply, difference, flat() or
    # Fraction, with the report of the commutator reference
    if case == "reloaded":
        q = _reloaded(build_standard_parabolic((3, 2, 1)))
        space = derivation_algebra(q.algebra)
    else:
        q = _uncertified_lid(case)
        space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    expected = two_elimination_report(q, space)
    assert expected.inner_is_ideal_ok is (case == "reloaded")

    def refuse(*args, **kwargs):
        raise AssertionError("map rebuilt")

    for name in ("from_flat", "apply", "__sub__", "flat"):
        monkeypatch.setattr(EndoMatrix, name, refuse)
    monkeypatch.setattr(lie, "ad_matrix", refuse)
    monkeypatch.setattr(Q, "__new__", refuse)
    assert verify_main_theorem(q, space) == expected


def test_inner_closure_witness_is_the_first_failing_basis_index():
    # the Borel of gl_3 read back from JSON, with E[1,2] moved from the
    # derived set into c and H[2] out of c, so lid keeps dim 3 and the
    # formula holds. lid + ad q is then direct and closes lid, but E(I,
    # E[1,2]) is no derivation: its residual R_i is nonzero at i = H[1],
    # H[2] and E[1,2], each of whose brackets has a component on E[1,2],
    # and only the inner closure fails, at the first of them
    q = _reloaded(build_standard_parabolic((1, 1, 1)))
    x, h2 = q.root_index[(1, 2)], q.coroot_index[2]
    q.c_indices = tuple(sorted({*q.c_indices, x} - {h2}))
    q.derived_indices = tuple(p for p in q.derived_indices if p != x)
    space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    report = verify_main_theorem(q, space)
    assert report == two_elimination_report(q, space)
    assert (report.direct_sum_ok, report.formula_ok, report.l_is_ideal_ok) == (True,) * 3
    assert report.counterexample == {"kind": "inner_closure", "der_index": 5,
                                     "basis_index": q.coroot_index[1]}


@pytest.mark.parametrize("blocks", [(2, 1), (3, 2, 1)])
def test_oracle_and_theorem_check_make_no_fraction(blocks, monkeypatch):
    # both oracles hold rows whose pivot is not 1; a subspace keeps the row
    # reducer's primitive int rows, so neither step makes a Fraction
    q = build_standard_parabolic(blocks)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction made")

    monkeypatch.setattr(Q, "__new__", refuse)
    der = derivation_algebra(q.algebra)
    assert verify_main_theorem(q, der).ok
    monkeypatch.undo()
    assert any(next(iter(row.values())) != 1 for row in der.rows)


def test_theorem_check_matches_two_eliminations_on_every_parabolic():
    # every report field, the witness included, equals that of the reference
    # that reduces ad q on its own and again inside lid + ad q; a table read
    # back from JSON (n <= 5) takes the uncertified path, whose inner closure
    # the reference tests by rebuilt commutators
    for n in range(1, 7):
        for blocks in compositions(n):
            for z in (0, 1):
                cases = [build_standard_parabolic(blocks, extra_center=z)]
                if n <= 5:
                    cases.append(_reloaded(build_standard_parabolic(blocks, extra_center=z)))
                for q in cases:
                    der = derivation_algebra(q.algebra)
                    report = verify_main_theorem(q, der)
                    assert report == two_elimination_report(q, der), (blocks, z, _sum_certified(q))


def _heisenberg():
    """The (1,1) parabolic (basis I, H[1], E[1,2]) with the table
    [x_1, x_2] = -x_0 of the Heisenberg algebra h_3 swapped in."""
    q = build_standard_parabolic((1, 1))
    q.algebra = LieAlgebra(3, None, [(1, 2, 0, -1)])
    return q


@pytest.mark.parametrize("case", [*INJECTED_FAULTS, *UNCERTIFIED_LID, "derived_set_short",
                                  "jacobi_broken", "heisenberg", "heisenberg_lid_plus_ad",
                                  "oracle_row_dropped"])
def test_theorem_check_matches_two_eliminations_on_faults(request, case):
    if case in INJECTED_FAULTS:
        q, space = _injected_space(request, case)
    elif case in UNCERTIFIED_LID or case == "heisenberg_lid_plus_ad":
        q = _heisenberg() if case == "heisenberg_lid_plus_ad" else _uncertified_lid(case)
        space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    else:
        q = _heisenberg() if case == "heisenberg" else build_standard_parabolic((2, 1))
        if case == "derived_set_short":
            q.derived_indices = tuple(p for p in q.derived_indices if p != q.root_index[(1, 3)])
        elif case == "jacobi_broken":
            q.algebra = _doubled((2, 1), (1, 3, 3))
        space = derivation_algebra(q.algebra)
        if case == "oracle_row_dropped":
            space = Subspace(space.ambient_dim, space.rows[:-1])
    report = verify_main_theorem(q, space)
    assert report == two_elimination_report(q, space)
    assert not report.ok


def test_heisenberg_swap_fails_the_direct_sum():
    # the ad maps of h_3 send x_1, x_2 into its center, so ad h_3 lies inside
    # the center-valued maps and Der h_3 is not their direct sum
    q = _heisenberg()
    report = verify_main_theorem(q, derivation_algebra(q.algebra))
    assert (report.der_dim, report.l_dim, report.inner_dim) == (6, 2, 2)
    assert not report.direct_sum_ok
    assert report.counterexample == {"kind": "direct_sum"}
    # checked against S = lid + ad q itself (dim 3), the sum is still not
    # direct: ad x_2 sends x_1 to x_0, a map of lid
    space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    report = verify_main_theorem(q, space)
    assert (space.dim, report.direct_sum_ok, report.counterexample) == (3, False,
                                                                        {"kind": "direct_sum"})


def test_certified_check_makes_one_elimination_and_the_oracle_no_empty_row(monkeypatch):
    # the oracle feeds each equation (i, j, l) of the weight-0 block at a pair
    # that meets the build's generators that has a term, and no other, then
    # each ad x of nonzero weight, and sorts no reducer into a Subspace but
    # that block's, by its one rows() call; a certified theorem check makes no
    # second elimination of ad q, through inner_derivations or from_sparse,
    # and compares its reducer with der's rows as they stand
    q = build_standard_parabolic((3, 2, 1), extra_center=1)
    L, d = q.algebra, q.dim
    fed, sorted_out = [], []
    real = _RowReducer.add_row
    monkeypatch.setattr(_RowReducer, "add_row",
                        lambda red, row: fed.append((red, row)) or real(red, row))
    real_rows = _RowReducer.rows
    monkeypatch.setattr(_RowReducer, "rows",
                        lambda red: sorted_out.append(red) or real_rows(red))

    def refuse(*args):
        raise AssertionError("a second elimination or a reducer re-sorted")

    monkeypatch.setattr(Subspace, "from_sparse", refuse)
    der = derivation_algebra(L)
    W, T, G = grading(L), L.int_table, set(L._generators)
    with_term = [(i, j, l) for i in range(d) for j in range(i + 1, d) if G & {i, j}
                 for l in range(d) if W[l] == W[i] + W[j] and (T[i].get(j) or any(
                     T[m].get(j, {}).get(l) or T[m].get(i, {}).get(l) for m in range(d)))]
    equations = [row for red, row in fed if red is fed[0][0]]
    assert len(equations) == len(with_term) and all(equations)
    nonzero = [derivations._flat_ad(L, x) for x in range(d) if W[x]]
    assert [row for _, row in fed[len(equations):]] == nonzero
    assert sorted_out == [fed[-1][0]] and fed[-1][0] is not fed[0][0]

    monkeypatch.setattr(derivations, "inner_derivations", refuse)
    assert verify_main_theorem(q, der).ok


def test_build_certifies_the_sum_without_a_scan(monkeypatch):
    # verify checks the theorem and splits five draws on one q per case; the
    # build certifies lid + ad q, so jacobi_holds is asked once per table,
    # by the oracle alone
    asks = []
    real = derivations.jacobi_holds
    monkeypatch.setattr(derivations, "jacobi_holds",
                        lambda L: asks.append((L, sys._getframe(1).f_code.co_name))
                        or real(L))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--max-n", "4", "--rounds", "5"]) == 0
    assert list(Counter(L for L, _ in asks).values()) == [1] * 15
    assert {caller for _, caller in asks} == {"derivation_algebra"}


def test_a_table_swapped_into_q_is_not_certified():
    # the certificate belongs to the built table; with a table that breaks
    # Jacobi swapped in, ad x_5 passes every residual check but breaks
    # Leibniz, so only the gate, which runs for an uncertified table, stops it
    q = build_standard_parabolic((2, 1))
    D = random_combination(q.algebra, derivation_algebra(q.algebra), random.Random(3))
    res = constructive_decompose(q, D)
    assert res.l_part + ad_matrix(q.algebra, res.p) == D
    q.algebra = _doubled((2, 1), (1, 3, 3))
    with pytest.raises(NotADerivationError) as exc:
        constructive_decompose(q, ad_matrix(q.algebra, {5: 1}))
    assert exc.value.pair == (1, 3)


def test_an_equal_table_reloaded_into_q_is_not_certified(monkeypatch):
    # the certificate comes from the build alone: the built table reloaded
    # from JSON is equal but uncertified, so the theorem check tests every
    # derivation and each split runs the Leibniz gate, with the report and
    # the splits of the built table
    q = build_standard_parabolic((3, 2, 1), extra_center=1)
    der = derivation_algebra(q.algebra)
    assert _sum_certified(q)
    report = verify_main_theorem(q, der)
    draws = [random_combination(q.algebra, der, random.Random(s)) for s in range(3)]
    splits = [constructive_decompose(q, D).to_json_dict() for D in draws]
    q.algebra = LieAlgebra.from_json_dict(q.algebra.to_json_dict())
    assert not _sum_certified(q)
    calls = _leibniz_calls(monkeypatch)
    assert derivation_algebra(q.algebra) == der
    assert verify_main_theorem(q, der) == report and report.ok
    assert [constructive_decompose(q, EndoMatrix(q.algebra, D.cols, D.den)).to_json_dict()
            for D in draws] == splits
    assert len(calls) == len(draws)


def _edited_borel():
    """The Borel of gl_3, basis I, H[1], H[2], E[1,2], E[1,3], E[2,3], with
    E[1,2] moved from the derived positions into c and H[2] taken out of c:
    the three tuples no longer split q, and E(I, E[1,2]), a map of lid,
    is no derivation, as [E[1,2], E[2,3]] = E[1,3] has no component on I."""
    q = build_standard_parabolic((1, 1, 1))
    assert q.c_indices == (1, 2) and q.derived_indices == (3, 4, 5)
    q.c_indices, q.derived_indices = (1, 3), (4, 5)
    return q


def test_theorem_check_reads_the_index_sets_it_rests_on():
    # the certificate holds against q's tuples as they stand, not as the
    # build left them: on the edited Borel the check of lid + ad q tests
    # every map, with the witness of the same q on its table reloaded
    q = _edited_borel()
    space = subspace_sum(l_ideal(q), inner_derivations(q.algebra))
    witness = {"kind": "inner_closure", "der_index": 5, "basis_index": 1}
    assert verify_main_theorem(q, space).counterexample == witness
    assert not _sum_certified(q)
    assert verify_main_theorem(_reloaded(q), space).counterexample == witness


@pytest.mark.parametrize("case", ["edited_borel", "h2_in_center"])
def test_split_gates_a_map_the_edited_index_sets_let_through(case):
    # a center-valued map that kills the derived positions of the edited
    # tuples passes the residual checks, so only the Leibniz gate stops it:
    # E(I, E[1,2]) on the edited Borel, and I -> H[2] on (2, 1) with H[2]
    # moved from c into the center, where ad H[2] is not 0
    if case == "edited_borel":
        q, flat, pair = _edited_borel(), {3 * 6 + 0: 1}, (1, 3)
    else:
        q = build_standard_parabolic((2, 1))  # basis I, H[1], H[2], E[1,2], ...
        assert q.c_indices == (2,)
        q.center_indices, q.c_indices = (0, 2), ()
        flat, pair = {0 * 7 + 2: 1}, (0, 3)
    with pytest.raises(NotADerivationError) as exc:
        constructive_decompose(q, EndoMatrix.from_flat(q.algebra, flat))
    assert exc.value.pair == pair and not _sum_certified(q)
    with pytest.raises(NotADerivationError) as exc:
        decompose_reference.constructive_decompose(q, EndoMatrix.from_flat(q.algebra, flat))
    assert exc.value.pair == pair


def test_each_index_set_edit_loses_the_certificate(monkeypatch):
    # a dropped derived position, or one added to c, loses the certificate;
    # equal copies of all three tuples keep it, and the theorem check and
    # the split then make no Leibniz call
    q = build_standard_parabolic((3, 2, 1), extra_center=1)
    center, c, derived = q.center_indices, q.c_indices, q.derived_indices
    q.derived_indices = derived[:-1]
    assert not _sum_certified(q)
    q.c_indices, q.derived_indices = c + derived[:1], derived
    assert not _sum_certified(q)
    q.center_indices, q.c_indices, q.derived_indices = (
        tuple(list(t)) for t in (center, c, derived))
    assert _sum_certified(q)
    calls = _leibniz_calls(monkeypatch)
    der = derivation_algebra(q.algebra)
    assert verify_main_theorem(q, der).ok
    res = constructive_decompose(q, random_combination(q.algebra, der, random.Random(7)))
    assert any(res.l_part.cols) and calls == []


def test_random_combination_draws_over_the_rref_basis():
    # the oracle of (2, 1) has a row whose pivot is not 1; the coefficients
    # multiply the rows of vectors(), the RREF basis
    L = build_standard_parabolic((2, 1)).algebra
    der = derivation_algebra(L)
    assert any(next(iter(row.values())) != 1 for row in der.rows)
    for seed in range(5):
        twin = random.Random(seed)
        coeffs = [twin.randint(-9, 9) for _ in range(der.dim)]
        flat = {f: e for f in range(der.ambient_dim)
                if (e := sum(c * v[f] for c, v in zip(coeffs, der.vectors())))}
        assert random_combination(L, der, random.Random(seed)) == EndoMatrix.from_flat(L, flat)
    with pytest.raises(ValueError, match="ambient"):  # a space of vectors, not of maps
        random_combination(L, Subspace.full(L.dim), random.Random(0))


def test_split_derivation_rejects_outsider(golden_q):
    with pytest.raises(NotADerivationError):
        split_derivation(golden_q, identity(golden_q.algebra))


def test_extra_center_exercises_formula():
    q = build_standard_parabolic((2,), extra_center=1)  # center dim 2
    report = verify_main_theorem(q, derivation_algebra(q.algebra))
    assert report.ok, report
    assert report.der_dim == dimension_formula(2, 1, 1, 3) == 7
    q2 = build_standard_parabolic((1, 1), extra_center=2)  # center dim 3
    report2 = verify_main_theorem(q2, derivation_algebra(q2.algebra))
    assert report2.ok, report2
    assert report2.der_dim == dimension_formula(3, 1, 0, 2) == 14


def test_split_derivation_outside_the_sum_is_not_a_leibniz_failure(monkeypatch):
    q = build_standard_parabolic((1, 1))  # basis I, h1, e12
    D = EndoMatrix(q.algebra, [{0: 1}, {}, {}])  # I -> I: a derivation
    assert first_leibniz_violation(q.algebra, D) is None
    # with the center-valued summand left out, D is outside the sum
    monkeypatch.setattr(derivations, "l_ideal", lambda q: Subspace.units(9, ()))
    with pytest.raises(DecompositionError) as exc:
        split_derivation(q, D)
    assert exc.value.diagnostics == {"l_dim": 0, "inner_dim": 2}


def _integral_entries(E):
    """E rebuilt from its entries, each integral one given as the int it
    equals and the others as Fractions."""
    cols = []
    for c in E.cols:
        entries = {i: Q(e, E.den) for i, e in c.items()}
        cols.append({i: e.numerator if e.denominator == 1 else e for i, e in entries.items()})
    return EndoMatrix(E.algebra, cols)


@pytest.mark.parametrize("case", ["golden", "(2,1,2) at root_scale 3/2"])
def test_decomposition_scalars_are_int_or_fraction(request, case):
    if case == "golden":
        q, der = request.getfixturevalue("golden_q"), request.getfixturevalue("golden_der")
    else:
        q = scaled_parabolic((2, 1, 2), Q(3, 2))
        der = derivation_algebra(q.algebra)
    rng = random.Random(404)
    for t in range(6):
        D = random_combination(q.algebra, der, rng)
        if t % 2:
            D = _integral_entries(D)  # int entries must not turn into floats
        res = constructive_decompose(q, D)
        parts = split_derivation(q, D)
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
    # the closed form _cartan_adjugate, for integer c, is n times the b of
    # A b = c by elimination: adj(A) = n A^-1
    rng = random.Random(9)
    for n in range(1, 10):
        size = n - 1
        A = Matrix(size, size, [
            2 if k == m else (-1 if abs(k - m) == 1 else 0) for k in range(size) for m in range(size)
        ])
        for _ in range(5):
            c = [rng.randint(-20, 20) for _ in range(size)]
            x = solve(size, A.sparse_rows(), c)
            assert _cartan_adjugate(c) == [n * x.get(j, 0) for j in range(size)]
        # the closed form is the adjugate: A times its columns is n I
        adjugate = [_cartan_adjugate([int(k == j) for k in range(size)]) for j in range(size)]
        assert A * Matrix(size, size, [adjugate[j][i] for i in range(size) for j in range(size)]) \
            == Matrix(size, size, [n * int(i == j) for i in range(size) for j in range(size)])
