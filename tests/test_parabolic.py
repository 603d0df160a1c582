import inspect
import itertools
import math
import re

import pytest

from dense_reference import structure_constants
from root_reference import root_value
from scaled_reference import scaled_parabolic
from liederiv.lie import bracket, bracket_span, center, restrict, validate_structure
from liederiv.linalg import Q, Subspace, contains, is_direct_sum
from liederiv import parabolic
from liederiv.cli import main
from liederiv.parabolic import (
    ParabolicAlgebra,
    _partition,
    adapted_subspaces,
    build_gl,
    build_standard_parabolic,
    compositions,
)


def unit_span(q, indices):
    d = q.algebra.dim
    return Subspace.from_vectors(
        d, [[Q(1) if i == p else Q(0) for i in range(d)] for p in indices]
    )


def _moved(q, s, root, source, target):
    """Subspaces source and target of s with the generator of root moved
    from the first to the second."""
    x = q.root_index[root]
    return {source: Subspace.units(q.dim, set(s[source].pivots()) - {x}),
            target: Subspace.units(q.dim, set(s[target].pivots()) | {x})}


# each fault replaces some of the true subspaces s of the parabolic of
# (2, 1) and leaves every check before its own intact, so the build or
# adapted_subspaces must stop at that check, with its message. The build
# holds the center, c and the derived algebra as index tuples, so a fault
# on one of those three reaches its split check as the replacement's pivots
INVARIANT_FAULTS = [
    ("algebra does not split as center + c + derived",
     lambda q, s: {"g_z": Subspace.units(q.dim, ())}),
    ("Cartan does not split as c + t",
     lambda q, s: {"t": Subspace.units(q.dim, ())}),
    # [E12, E23] = E13 leaves the nilradical once E13 is moved out of it
    ("nilradical is not an ideal",
     lambda q, s: _moved(q, s, (1, 3), "nilradical", "levi")),
    # [E21, E13] = E23 leaves a Levi factor that also holds E13
    ("Levi factor is not a subalgebra",
     lambda q, s: {"levi": Subspace.units(q.dim, s["levi"].pivots() + [q.root_index[(1, 3)]])}),
    ("derived algebra does not split as semisimple Levi + nilradical",
     lambda q, s: {"levi_semisimple": Subspace.units(
         q.dim, set(s["levi_semisimple"].pivots()) - {q.root_index[(2, 1)]})}),
    # c complements t but does not commute with E[1,2]
    ("Levi center is not central in the Levi factor",
     lambda q, s: {"levi_center": s["c"]}),
    ("Levi factor does not split as center + semisimple part",
     lambda q, s: {"levi_center": Subspace.units(q.dim, ())}),
    # the Levi factor cut to its semisimple part and the Levi center left
    # out: every other split still holds
    ("Levi center does not complement the derived algebra",
     lambda q, s: {"levi": s["levi_semisimple"], "levi_center": Subspace.units(q.dim, ())}),
]


@pytest.mark.parametrize("message, fault", INVARIANT_FAULTS,
                         ids=[f"{m.split()[0]}-{m.split()[-1]}" for m, _ in INVARIANT_FAULTS])
def test_fault_injected_invariant_fires(monkeypatch, message, fault):
    # the ten subspaces of (2, 1) and the whole space are distinct, so the
    # patched constructors tell each one apart by its value and hand back
    # the fault's replacement in its place
    q = build_standard_parabolic((2, 1))
    s = adapted_subspaces(q)
    assert len({*s.values(), Subspace.full(q.dim)}) == 11
    swap = {s[name]: r for name, r in fault(q, s).items()}
    swapped = []

    def patched(make):
        def build(cls, *args):
            real = make(*args)
            if real in swap:
                swapped.append(real)
            return swap.get(real, real)
        return classmethod(build)

    for name in ("units", "from_sparse"):
        monkeypatch.setattr(Subspace, name, patched(getattr(Subspace, name)))
    # the build's index tuples, swapped by value on their way into its check
    swap_indices = {tuple(real.pivots()): tuple(r.pivots()) for real, r in swap.items()
                    if real in (s["g_z"], s["c"], s["derived"])}
    partition = parabolic._partition

    def patched_partition(parts, whole):
        parts = [tuple(p) for p in parts]
        swapped.extend(p for p in parts if p in swap_indices)
        return partition([swap_indices.get(p, p) for p in parts], whole)

    monkeypatch.setattr(parabolic, "_partition", patched_partition)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        adapted_subspaces(build_standard_parabolic((2, 1)))
    # each replaced subspace was made once, and no sum a check formed was swapped
    assert len(swapped) == len(swap)


def test_invariant_faults_cover_every_check():
    source = inspect.getsource(ParabolicAlgebra.__init__) + inspect.getsource(adapted_subspaces)
    assert sorted(re.findall(r'RuntimeError\("([^"]+)"\)', source)) == sorted(
        m for m, _ in INVARIANT_FAULTS)


def test_bracket_escaping_the_roots_raises(monkeypatch):
    # with (1,3) left out of the Borel of gl_3, [E12, E23] = E13 has no
    # coordinates in the basis
    roots = parabolic._roots
    monkeypatch.setattr(parabolic, "_roots",
                        lambda n, dp: tuple(r for r in roots(n, dp) if r != (1, 3)))
    with pytest.raises(RuntimeError, match=r"^bracket escaped the parabolic at \(1,3\)$"):
        build_standard_parabolic((1, 1, 1))


def test_partition_matches_is_direct_sum():
    # the splittings into coordinate subspaces are read off their index
    # lists, in any order, against an exact reduction of the unit vectors
    index_lists = ([], [0], [1], [0, 1], [2, 1], [2, 3], [3, 0, 2])
    units = {tuple(ix): Subspace.units(4, ix) for ix in index_lists}
    for parts in itertools.product(index_lists, repeat=2):
        for whole in index_lists:
            expected = is_direct_sum([units[tuple(p)] for p in parts], units[tuple(whole)])
            assert _partition(parts, whole) == expected, (parts, whole)
    assert _partition([(0, 1), (2, 3)], range(4))
    assert not _partition([(0, 1), (1, 2)], (0, 1, 2))  # they overlap


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
    s = adapted_subspaces(q)
    assert q.dim == 25
    assert q.delta_prime == (1, 2, 4)
    assert s["c"] == unit_span(q, [q.coroot_index[3], q.coroot_index[5]])
    assert q.c_indices == (q.coroot_index[3], q.coroot_index[5])
    assert s["t"] == unit_span(q, [q.coroot_index[k] for k in (1, 2, 4)])
    assert len(q.center_indices) == 1 and len(q.c_indices) == 2 and s["t"].dim == 3
    assert len(q.derived_indices) == 22
    assert s["semisimple_part"].dim == 24


def test_whole_algebra_composition():
    for n in (1, 2, 3):
        q = build_standard_parabolic((n,))
        assert q.dim == n * n
        assert q.delta_prime == tuple(range(1, n))
        assert q.c_indices == ()


def test_borel_gl3():
    q = build_standard_parabolic((1, 1, 1))
    assert q.dim == 6
    assert q.delta_prime == ()
    assert unit_span(q, q.c_indices) == adapted_subspaces(q)["cartan"]
    assert len(q.c_indices) == 2


def test_invalid_compositions(capsys):
    with pytest.raises(ValueError, match="^blocks must be positive$"):
        build_standard_parabolic((0, 3))
    # the library reads the blocks alone; the CLI's --n must be their sum
    for blocks, n, error in [("4,3", "6", "blocks (4, 3) do not sum to n=6"),
                             ("0,3", "3", "blocks must be positive"),
                             ("a,b", "3", "cannot parse composition 'a,b'"),
                             ("2,1", "4", "blocks (2, 1) do not sum to n=4")]:
        assert main(["der", "--n", n, "--blocks", blocks]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    # n is read off the blocks, and extra_center is keyword-only, so a
    # stale positional n cannot become extra central generators
    with pytest.raises(TypeError):
        build_standard_parabolic((1, 1, 1), 3)


def test_any_iterable_of_blocks_builds_one_table():
    qs = [build_standard_parabolic(blocks)
          for blocks in ([3, 2, 1], (b for b in (3, 2, 1)), (3, 2, 1))]
    for q in qs:
        assert type(q.blocks) is tuple and q.blocks == (3, 2, 1)
        assert q.n == sum(q.blocks) == 6
        assert q.algebra.int_table == qs[-1].algebra.int_table
        assert q.algebra.labels == qs[-1].algebra.labels


def test_langlands_golden(golden_q):
    s = adapted_subspaces(golden_q)
    levi, nil = s["levi"], s["nilradical"]
    lc, ls = s["levi_center"], s["levi_semisimple"]
    assert levi.dim == 13
    assert nil.dim == 11
    assert lc.dim == 2
    assert ls.dim == 11
    assert levi.dim + nil.dim == s["semisimple_part"].dim == 24


def test_langlands_whole_and_borel():
    whole = adapted_subspaces(build_standard_parabolic((4,)))
    assert whole["nilradical"].dim == 0
    assert whole["levi"] == whole["semisimple_part"]
    borel = adapted_subspaces(build_standard_parabolic((1, 1, 1, 1)))
    assert borel["levi"] == borel["cartan"]
    assert borel["nilradical"].dim == 6  # strictly upper positions of gl_4


def test_adapted_indices_golden(golden_q):
    q = golden_q
    center_idx, c_idx, derived_idx = q.center_indices, q.c_indices, q.derived_indices
    assert len(center_idx) == 1
    assert len(c_idx) == 2
    assert len(derived_idx) == 22
    assert sorted(center_idx + c_idx + derived_idx) == list(range(25))
    assert all(list(ix) == sorted(ix) for ix in (center_idx, c_idx, derived_idx))


def test_adapted_indices_extremes():
    whole = build_standard_parabolic((3,))
    assert len(whole.c_indices) == 0
    assert len(whole.derived_indices) == 9 - 1
    borel2 = build_standard_parabolic((1, 1))
    assert (borel2.center_indices, borel2.c_indices, borel2.derived_indices) == ((0,), (1,), (2,))


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
    for root, pos in q.root_index.items():
        x = {pos: 1}
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
            assert q.dim == 1 + (n - 1) + len(q.root_index)
            count += 1
        assert count == 2 ** (n - 1)


def test_construction_oracle_agreement():
    for blocks in [(1, 1), (2, 1), (2, 2), (3, 1, 1)]:
        q = build_standard_parabolic(blocks)
        full = Subspace.full(q.dim)
        assert bracket_span(q.algebra, full, full) == unit_span(q, q.derived_indices)


def test_golden_oracle_agreement(golden_q):
    q = golden_q
    full = Subspace.full(q.dim)
    assert bracket_span(q.algebra, full, full) == unit_span(q, q.derived_indices)
    nil, levi = (adapted_subspaces(q)[name] for name in ("nilradical", "levi"))
    for s, (a, b) in ((nil, (full, nil)), (levi, (levi, levi))):
        assert all(contains(s, row) for row in bracket_span(q.algebra, a, b).rows)


def test_levi_center_complements_like_c(golden_q):
    # two valid complements of t inside the Cartan; equal only in extreme cases
    q = golden_q
    s = adapted_subspaces(q)
    assert s["levi_center"].dim == s["c"].dim == q.n - 1 - len(q.delta_prime)
    assert is_direct_sum([s["c"], s["t"]], s["cartan"])
    assert is_direct_sum([s["levi_center"], s["t"]], s["cartan"])
    assert is_direct_sum([s["levi_center"], s["levi_semisimple"]], s["levi"])
    assert s["levi_center"] != s["c"]  # distinct complements for blocks (3,2,1)
    borel = build_standard_parabolic((1, 1, 1))
    assert adapted_subspaces(borel)["levi_center"] == unit_span(borel, borel.c_indices)


def test_structure_tables_validate(golden_q):
    assert validate_structure(golden_q.algebra).ok
    assert validate_structure(build_standard_parabolic((2, 2)).algebra).ok


def test_extra_center():
    q = build_standard_parabolic((2,), extra_center=1)
    assert q.dim == 5
    assert q.center_indices == (0, 1)
    assert center(q.algebra) == unit_span(q, q.center_indices)
    assert q.algebra.labels[:2] == ("I", "Z[2]")


def test_size_limit_boundary():
    # the limit on dim q is checked before anything is built, exactly at
    # its boundary: in the slowest shape (one block, every other generator
    # central) and for the whole gl_n
    limit = parabolic.MAX_DIM
    assert build_standard_parabolic((1,), extra_center=limit - 1).dim == limit
    with pytest.raises(ValueError, match=f"^dim q = {limit + 1} is above the limit of {limit}$"):
        build_standard_parabolic((1,), extra_center=limit)
    n = math.isqrt(limit)
    assert build_standard_parabolic((n,)).dim == n * n
    with pytest.raises(ValueError, match=f"^dim q = {(n + 1) ** 2} is above"):
        build_standard_parabolic((n + 1,))


def test_semisimple_restriction_is_trace_zero_part(golden_q):
    sl = restrict(golden_q.algebra, adapted_subspaces(golden_q)["semisimple_part"])
    assert sl.dim == 24
    assert center(sl).dim == 0


def _dense_realization(q, s):
    """Each basis element of q as a dense n x n Fraction matrix: the identity
    for I and the extra central generators, e_kk - e_{k+1,k+1} for h_k and
    s e_ij for x_(i,j)."""
    n = q.n

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
        mats[pos] = matrix({(i, j): s})
    return mats


def _dense_product(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n) if A[i][k]), Q(0)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("extra_center", [0, 1])
@pytest.mark.parametrize("root_scale", [Q(1), Q(3, 2), Q(-2, 3), Q(2)])
def test_structure_constants_match_dense_commutators(root_scale, extra_center):
    # the central generators all realize as the identity, so their
    # coefficients are checked to vanish separately
    scaled = set()  # (target is a root generator, constant) over root pairs
    for n in range(1, 6):
        for blocks in compositions(n):
            q = scaled_parabolic(blocks, root_scale, extra_center=extra_center)
            mats = _dense_realization(q, root_scale)
            sc = structure_constants(q.algebra)
            roots = set(q.root_index.values())
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
                    if a in roots and b in roots:
                        scaled.update((k in roots, c) for k, c in coords.items())
    # the sweep checked both scalings against the dense commutators:
    # [x_(i,j), x_(j,l)] = s x_(i,l) and [x_(i,j), x_(j,i)] = s^2 (h_i + ... + h_(j-1))
    assert {(True, root_scale), (False, root_scale ** 2)} <= scaled


def test_property_sparse_bracket_is_bilinear(golden_q):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))
    # the golden composition with root generators 3/2 e_ij has constants
    # such as 3/2 and 9/4, so its integer table is N = 4 times the constants
    scaled = scaled_parabolic((3, 2, 1), Q(3, 2)).algebra
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
