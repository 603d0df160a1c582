"""The parabolic build against a reference built the plain way.

``ParabolicAlgebra`` writes the commutators of the pairs of realizing
matrices that meet in closed form and makes its coordinate subspaces
without elimination. ``adapted_subspaces`` decides same-block roots by
their reverse being a root, writes the Levi center in closed form as n
times the fundamental coweights of the simple roots outside delta', and
checks both closures on the support of the table. The reference here does
each step the long way: every pair of realizing matrices is multiplied,
the blocks of i and j are read off the block sizes, every subspace is the
row reduction of its unit vectors, the Levi center is the center of the
Levi factor restricted to a standalone algebra and mapped back (an
elimination), and the closures are the row-reduced spans of brackets. Both must give the same table and the same
canonical subspaces, for every composition of n <= 7.
"""

import pytest

from scaled_reference import scaled_parabolic
from liederiv.lie import LieAlgebra, bracket_span, center, restrict
from liederiv.linalg import Q, Subspace, contains
from liederiv.parabolic import adapted_subspaces, build_standard_parabolic, compositions


def _commutator(a, b):
    out = {}
    for (i, k), u in a.items():
        for (l, j), v in b.items():
            if k == l:
                out[(i, j)] = out.get((i, j), 0) + u * v
    for (i, k), u in b.items():
        for (l, j), v in a.items():
            if k == l:
                out[(i, j)] = out.get((i, j), 0) - u * v
    return {p: v for p, v in out.items() if v}


def _reference_triples(q, s):
    """[x_a, x_b] for every pair a < b, from the commutator of the matrices
    of x_a and x_b: the identity for the central generators, e_kk -
    e_(k+1,k+1) for h_k and s e_ij for x_(i,j)."""
    n = q.n
    mats = {z: {(i, i): 1 for i in range(1, n + 1)} for z in q.center_indices}
    mats.update({pos: {(k, k): 1, (k + 1, k + 1): -1} for k, pos in q.coroot_index.items()})
    mats.update({pos: {(i, j): s} for (i, j), pos in q.root_index.items()})
    triples = []
    for a in range(q.dim):
        for b in range(a + 1, q.dim):
            comm = _commutator(mats[a], mats[b])
            assert sum(v for (i, j), v in comm.items() if i == j) == 0
            coords = {q.root_index[(i, j)]: Q(v) / s for (i, j), v in comm.items() if i != j}
            acc = 0
            for k in range(1, n):
                acc += comm.get((k, k), 0)
                if acc:
                    coords[q.coroot_index[k]] = acc
            triples.extend((a, b, k, v) for k, v in sorted(coords.items()))
    return triples


def _reference_subspaces(q):
    """Every adapted subspace as the row reduction of its unit vectors,
    with the Levi center taken through ``restrict``."""
    d = q.dim
    dp = set(q.delta_prime)
    h = q.coroot_index
    # block[i - 1] is the block of row and column i
    block = [b for b, size in enumerate(q.blocks) for _ in range(size)]
    same = [p for (i, j), p in q.root_index.items() if block[i - 1] == block[j - 1]]
    cross = [p for (i, j), p in q.root_index.items() if block[i - 1] != block[j - 1]]
    t = [h[k] for k in h if k in dp]

    def units(indices):
        return Subspace.from_sparse(d, [{i: 1} for i in indices])

    out = {
        "full": units(range(d)),
        "g_z": units(q.center_indices),
        "cartan": units(h.values()),
        "c": units(h[k] for k in h if k not in dp),
        "t": units(t),
        "derived": units(t + same + cross),
        "levi": units([*h.values(), *same]),
        "nilradical": units(cross),
        "levi_semisimple": units(t + same),
        "semisimple_part": units([*h.values(), *same, *cross]),
    }
    levi = out["levi"]
    z = center(restrict(q.algebra, levi))
    out["levi_center"] = Subspace.from_sparse(d, map(levi.combination, z.rows))
    return out


@pytest.mark.parametrize("root_scale", [Q(1), Q(3, 2), Q(-2, 3)])
@pytest.mark.parametrize("extra_center", [0, 1])
def test_build_matches_reference(extra_center, root_scale):
    for n in range(1, 8):
        for blocks in compositions(n):
            q = scaled_parabolic(blocks, root_scale, extra_center=extra_center)
            assert q.algebra.triples() == _reference_triples(q, root_scale), blocks
            ref = _reference_subspaces(q)
            full = ref.pop("full")
            assert Subspace.full(q.dim) == full
            adapted = adapted_subspaces(q)
            assert adapted.keys() == ref.keys()
            for name, s in ref.items():
                assert adapted[name] == s, (blocks, name)
            L = q.algebra
            for s, (a, b) in (("nilradical", (full, ref["nilradical"])),
                              ("levi", (ref["levi"], ref["levi"]))):
                assert all(contains(ref[s], row) for row in bracket_span(L, a, b).rows), blocks


@pytest.mark.parametrize("extra_center", [0, 1, 2])
def test_build_table_matches_the_constructor(extra_center):
    # the build writes both orders of each pair itself, and ``triples``
    # reads only j > i, so the public constructor on them is held to every
    # entry of the table, the (j, i) ones included. The build writes its
    # pairs in closed-form order, not sorted, so the dicts are compared as
    # dicts
    for n in range(1, 8):
        for blocks in compositions(n):
            L = build_standard_parabolic(blocks, extra_center=extra_center).algebra
            ref = LieAlgebra(L.dim, L.labels, L.triples())
            assert L.int_table == ref.int_table, blocks
            assert (L.labels, L.denominator) == (ref.labels, ref.denominator), blocks


def test_build_skips_the_public_constructor(monkeypatch):
    def refuse(*args):
        raise AssertionError("the build called LieAlgebra.__init__")

    monkeypatch.setattr(LieAlgebra, "__init__", refuse)
    for blocks in ((1,), (3, 2, 1), (2, 2)):
        assert build_standard_parabolic(blocks, extra_center=1).algebra.dim > 1
