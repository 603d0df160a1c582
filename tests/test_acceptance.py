"""Acceptance suite: every criterion checked at exact (zero) tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them live.
"""

import random
import time
from contextlib import contextmanager

import pytest

from dense_reference import Matrix, as_endo, as_matrix, sparse
from root_reference import root_value
from scaled_reference import scaled_parabolic
from liederiv.derivations import (
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
    ad_matrix,
    center,
    first_leibniz_violation,
    restrict,
    validate_structure,
)
from liederiv.linalg import Q, Subspace, contains, subspace_intersect, subspace_sum
from liederiv.parabolic import (
    adapted_subspaces,
    build_gl,
    build_standard_parabolic,
    compositions,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


@pytest.fixture(scope="module")
def sweep():
    """All parabolics with n <= 5 and their derivation oracles, computed once."""
    cases = []
    for n in range(1, 6):
        for blocks in compositions(n):
            q = build_standard_parabolic(blocks)
            cases.append((q, derivation_algebra(q.algebra)))
    return cases


def test_criterion_1_golden_example(golden_q, golden_der):
    with criterion(1, "golden gl_6 blocks 3,2,1"):
        start = time.monotonic()
        q = golden_q
        assert q.dim == 25
        assert q.delta_prime == (1, 2, 4)
        d = q.dim
        h_unit = lambda k: [1 if i == q.coroot_index[k] else 0 for i in range(d)]
        s = adapted_subspaces(q)
        assert s["c"] == Subspace.from_vectors(d, [h_unit(3), h_unit(5)])
        assert s["c"].dim == len(q.c_indices) == 2
        t = s["t"]
        assert t == Subspace.from_vectors(d, [h_unit(1), h_unit(2), h_unit(4)])
        assert t.dim == 3
        assert golden_der.dim == 27
        assert dimension_formula(1, 5, 3, 24) == 27
        elapsed = time.monotonic() - start
        assert elapsed <= 60, f"golden case took {elapsed:.1f}s"


def test_criterion_2_main_theorem_sweep(sweep):
    with criterion(2, "decomposition sweep over all compositions, n <= 5"):
        start = time.monotonic()
        seen = 0
        for q, der in sweep:
            report = verify_main_theorem(q, der)
            assert report.ok, (q.blocks, report)
            lid = l_ideal(q)
            inner = inner_derivations(q.algebra)
            assert subspace_sum(lid, inner) == der
            assert subspace_intersect(lid, inner).dim == 0
            seen += 1
        assert seen == 31  # 15 compositions with n <= 4, 16 with n = 5
        elapsed = time.monotonic() - start
        assert elapsed <= 300, f"sweep took {elapsed:.1f}s"


def test_criterion_3_corner_cases():
    with criterion(3, "semisimple / whole-algebra / Borel corner cases"):
        # (a) trace-zero parabolics have only inner derivations
        for n in range(2, 5):
            for blocks in compositions(n):
                q = build_standard_parabolic(blocks)
                sl = restrict(q.algebra, adapted_subspaces(q)["semisimple_part"])
                der = derivation_algebra(sl)
                inner = inner_derivations(sl)
                assert der == inner, (n, blocks)
                assert der.dim - inner.dim == 0
        # (b) the whole gl_n: dim Der = n^2 = 1 + (n^2 - 1)
        for n in range(1, 5):
            q = build_standard_parabolic((n,))
            der = derivation_algebra(q.algebra)
            assert der.dim == n * n
            assert l_ideal(q).dim == 1
        # (c) Borel of gl_3: 3 center-valued dimensions + 5 inner
        q = build_standard_parabolic((1, 1, 1))
        der = derivation_algebra(q.algebra)
        assert der.dim == 8
        assert l_ideal(q).dim == 3
        assert inner_derivations(q.algebra).dim == 5


def test_criterion_4_constructive_round_trips(sweep):
    with criterion(4, "20 seeded decompositions per swept parabolic"):
        for case_index, (q, der) in enumerate(sweep):
            d = q.dim
            lid = l_ideal(q)
            center_set = set(q.center_indices)
            dp = set(q.delta_prime)
            t_positions = [q.coroot_index[k] for k in range(1, q.n) if k in dp]
            rng = random.Random(1000 + case_index)
            for _ in range(20):
                D = random_combination(q.algebra, der, rng)
                # midpoint: the reduced map kills t and stabilizes root lines
                x, _ = root_line_reduction(q, D)
                reduced = as_matrix(D - ad_matrix(q.algebra, x))
                for pos in t_positions:
                    assert not any(reduced.col(pos))
                for pos in q.root_index.values():
                    col = reduced.col(pos)
                    assert all(col[i] == 0 for i in range(d) if i != pos)
                res = constructive_decompose(q, D)
                assert res.l_part + ad_matrix(q.algebra, res.p) == D
                assert contains(lid, res.l_part.flat())
                assert all(res.p.get(i, 0) == 0 for i in center_set)
                l_comp, _ = split_derivation(q, D)
                assert l_comp == res.l_part


def test_criterion_5_complexification_suite():
    with criterion(5, "complexification center and derivation extension"):
        gl2 = build_gl(2)
        sl2 = restrict(
            gl2,
            Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]),
        )
        borel3 = build_standard_parabolic((1, 1, 1)).algebra
        for L in (gl2, sl2, borel3):
            hat, J = complexify(L)
            # L embeds as the first L.dim coordinates of the doubled algebra
            embed = Matrix(2 * L.dim, L.dim,
                           [int(i == j) for i in range(2 * L.dim) for j in range(L.dim)])
            z = center(L)
            doubled = Subspace.from_vectors(
                2 * L.dim,
                [tuple(v) + (Q(0),) * L.dim for v in z.vectors()]
                + [(Q(0),) * L.dim + tuple(v) for v in z.vectors()],
            )
            assert center(hat) == doubled
            embedded = Subspace.from_vectors(2 * L.dim, [embed.col(j) for j in range(L.dim)])
            der = derivation_algebra(L)
            for flat in der.rows:
                ext = extend_derivation(L, EndoMatrix.from_flat(L, flat), hat)
                assert first_leibniz_violation(hat, ext) is None
                for j in range(L.dim):
                    assert contains(embedded, sparse(as_matrix(ext).mul_vec(embed.col(j))))


def test_criterion_6_property_suites(golden_q, golden_der):
    with criterion(6, "standalone property suites"):
        rng = random.Random(606)

        # Grassmann identity
        for _ in range(15):
            n = rng.randint(1, 6)
            a = Subspace.from_vectors(
                n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            b = Subspace.from_vectors(
                n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            assert subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim

        # rref canonicality under row operations
        for _ in range(15):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = Matrix(rows, cols, [rng.randint(-4, 4) for _ in range(rows * cols)])
            shuffled = [list(m.row(i)) for i in range(rows)]
            for _ in range(6):
                i, j = rng.randrange(rows), rng.randrange(rows)
                c = rng.randint(-2, 2)
                if i != j:
                    shuffled[i] = [x + c * y for x, y in zip(shuffled[i], shuffled[j])]
            rng.shuffle(shuffled)
            r1 = Subspace.from_vectors(cols, [m.row(i) for i in range(rows)])
            r2 = Subspace.from_vectors(cols, shuffled)
            assert (r1.dim, r1.pivots()) == (r2.dim, r2.pivots())
            assert r1.rows == r2.rows

        # structure tables of all fixtures are clean
        fixtures = [
            build_gl(2),
            build_gl(3),
            golden_q.algebra,
            build_standard_parabolic((2, 2)).algebra,
            complexify(build_standard_parabolic((1, 1)).algebra)[0],
        ]
        for L in fixtures:
            assert validate_structure(L).ok

        # scalar projection identity on random Cartan pairs
        q = golden_q
        for _ in range(5):
            D = as_matrix(random_combination(q.algebra, golden_der, rng))
            hc = [Q(0)] * q.dim
            kc = [Q(0)] * q.dim
            for k in range(1, 6):
                hc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
                kc[q.coroot_index[k]] = Q(rng.randint(-4, 4))
            Dh, Dk = D.mul_vec(hc), D.mul_vec(kc)
            for root, pos in q.root_index.items():
                gh, gk = root_value(q, root, sparse(hc)), root_value(q, root, sparse(kc))
                assert Dk[pos] * gh == Dh[pos] * gk

        # normalization independence under doubling the root generators
        q2 = scaled_parabolic((3, 2, 1), 2)
        d = q.dim
        scale = [Q(1)] * d
        for pos in q.root_index.values():
            scale[pos] = Q(2)
        S = Matrix(d, d, [scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
        S_inv = Matrix(d, d, [1 / scale[i] if i == j else Q(0) for i in range(d) for j in range(d)])
        for _ in range(2):
            D = random_combination(q.algebra, golden_der, rng)
            r1 = constructive_decompose(q, D)
            r2 = constructive_decompose(q2, as_endo(q2.algebra, S_inv * as_matrix(D) * S))
            assert S * as_matrix(r2.l_part) * S_inv == as_matrix(r1.l_part)
            ad1, ad2 = ad_matrix(q.algebra, r1.p), ad_matrix(q2.algebra, r2.p)
            assert S * as_matrix(ad2) * S_inv == as_matrix(ad1)
            assert any(v != 0 for v in r1.d_gamma.values())
            assert all(r2.d_gamma[root] == v / 2 for root, v in r1.d_gamma.items())
