"""Block upper triangular subalgebras of gl_n and their adapted decompositions.

A composition (b_1, ..., b_r) of n selects the block upper triangular
subalgebra q of gl_n. Its basis is adapted to the chain of splittings used
throughout this package: the scalar line (plus optional extra central
generators), the coroots h_k = e_kk - e_{k+1,k+1}, and one generator per
allowed off-diagonal position. The structure constants are the commutators
of these matrices, written in closed form as ints: [h_k, e_ij] is
(eps_i - eps_j)(h_k) e_ij, [e_ij, e_jl] = e_il for l != i, and [e_ij, e_ji]
= e_ii - e_jj is a sum of coroots. Only the pairs that meet are visited,
the root generators being indexed by row; every other commutator is zero.

A ``ParabolicAlgebra`` keeps the three subspaces the theorem reads, the
center, the complement c of the derived algebra and the derived algebra,
as the sorted positions of the basis vectors that span them.
``adapted_subspaces`` makes these and the rest of the Levi decomposition
as ``Subspace``s for ``describe``, and checks them. Every subspace but the
Levi center is spanned by basis vectors, so its canonical basis is written
down without elimination (``Subspace.units``); the Levi center is spanned
by n times the fundamental coweights of the simple roots outside delta',
rows of n A^-1.
"""

from __future__ import annotations

from itertools import accumulate

from . import lie
from .lie import LieAlgebra, bracket
from .linalg import Subspace, is_direct_sum, require_iterable, require_size

__all__ = [
    "ParabolicAlgebra",
    "adapted_subspaces",
    "build_gl",
    "build_standard_parabolic",
    "compositions",
]

# the largest dim q built: ``der`` on the slowest shape at this size, one
# block with every other generator central, takes seconds and a few hundred MB
MAX_DIM = 400


def _require_n(n) -> None:
    """The rule for a size n of gl_n: an int, not a bool, of at least 1."""
    if type(n) is not int:
        raise ValueError(f"n {n!r} is not an int")
    if n < 1:
        raise ValueError("n must be at least 1")


def compositions(n: int):
    """All 2^(n-1) compositions of n, lexicographically by block tuple."""
    _require_n(n)

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + (first,))

    return rec(n, ())


def _roots(n: int, delta_prime) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) standing for eps_i - eps_j that q holds: the positive
    roots and the negative roots, i > j, in the span of delta' (every
    simple index from j to i - 1 selected), in lexicographic order."""
    dp = set(delta_prime)
    span = range(1, n + 1)
    return tuple((i, j) for i in span for j in span if i < j or i > j and dp.issuperset(range(j, i)))


def _cartan_adjugate(c: list[int]) -> list[int]:
    """adj(A) c for the type A Cartan matrix A of size len(c), in ints.

    With n = len(c) + 1, det A = n and A^-1 has entries min(j, k) (n -
    max(j, k)) / n, 1 <= j, k <= n - 1, so adj(A) = n A^-1 is integral and
    A b = c is solved, without elimination, by b = adj(A) c / n.
    """
    n = len(c) + 1
    return [sum(min(j, k) * (n - max(j, k)) * ck for k, ck in enumerate(c, 1))
            for j in range(1, n)]


def _partition(parts, whole) -> bool:
    """Whether the coordinate subspaces spanned by the index lists parts
    split the one spanned by whole: each index of whole in exactly one part."""
    return sorted(i for p in parts for i in p) == sorted(whole)


def _closed(L: LieAlgebra, a, b: set[int], target: set[int]) -> bool:
    """True iff every bracket [x_i, x_j], i in a and j in b, has its support
    in target."""
    T = L.int_table
    return all(T[i][j].keys() <= target for i in a for j in T[i].keys() & b)


class ParabolicAlgebra:
    """A block parabolic of gl_n with its adapted basis.

    The composition is its blocks, any iterable of positive ints (not bools),
    checked before anything else: ``blocks`` keeps them, ``n`` is their sum.
    Basis order: scalar I (index 0), extra central generators, coroots
    h_1..h_{n-1}, then the allowed off-diagonal generators x_(i,j) sorted by
    (i, j). The center, the complement c of the derived algebra and the
    derived algebra are spanned by basis vectors; ``center_indices``,
    ``c_indices`` and ``derived_indices`` hold their positions, sorted, and
    are checked to split q. A q of dim above ``MAX_DIM`` raises ValueError
    before anything is built.
    """

    def __init__(self, blocks, extra_center: int = 0):
        blocks = tuple(require_iterable(blocks, "composition"))
        if not all(type(b) is int for b in blocks):
            raise ValueError(f"blocks must be ints, got {blocks!r}")
        if not blocks or min(blocks) < 1:
            raise ValueError("blocks must be positive")
        require_size(extra_center, "extra_center")
        self.n = n = sum(blocks)
        # the center, the coroots and one generator per root: n(n - 1)/2
        # positive ones and b(b - 1)/2 negative ones in each block b
        dim = 1 + extra_center + (n - 1) + sum(b * (b - 1) // 2 for b in (n, *blocks))
        if dim > MAX_DIM:
            raise ValueError(f"dim q = {dim} is above the limit of {MAX_DIM}")
        self.blocks = blocks
        self.extra_center = extra_center

        # k and k + 1 share a block unless a block ends at k
        ends = set(accumulate(blocks))
        self.delta_prime = delta_prime = tuple(k for k in range(1, n) if k not in ends)
        roots = _roots(n, delta_prime)

        m = 1 + extra_center
        labels = ["I"] + [f"Z[{t}]" for t in range(2, m + 1)]
        labels += [f"H[{k}]" for k in range(1, n)]
        labels += [f"E[{i},{j}]" for (i, j) in roots]

        self.center_indices = tuple(range(m))
        self.coroot_index = {k: m + (k - 1) for k in range(1, n)}
        self.root_index = {r: m + (n - 1) + t for t, r in enumerate(roots)}

        # the commutators of e_kk - e_(k+1,k+1) (the coroot h_k) and e_ij
        # (the root generator x_(i,j)), in closed form, written at both
        # orders of each pair; I commutes with everything, so it is skipped
        T: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        h = self.coroot_index
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, j), pos in self.root_index.items():
            by_row.setdefault(i, []).append((j, pos))
            # [h_k, e_ij] = (eps_i - eps_j)(h_k) e_ij
            for k in {i - 1, i, j - 1, j} & h.keys():
                v = (i == k) - (i == k + 1) - (j == k) + (j == k + 1)
                T[h[k]][pos], T[pos][h[k]] = {pos: v}, {pos: -v}
        for (i, j), a in self.root_index.items():
            for l, b in by_row.get(j, ()):
                if l != i:
                    # [e_ij, e_jl] = e_il
                    c = self.root_index.get((i, l))
                    if c is None:
                        raise RuntimeError(f"bracket escaped the parabolic at ({i},{l})")
                    T[a][b], T[b][a] = {c: 1}, {c: -1}
                elif i < j:
                    # [e_ij, e_ji] = e_ii - e_jj = h_i + ... + h_(j-1)
                    T[a][b] = {h[k]: 1 for k in range(i, j)}
                    T[b][a] = {h[k]: -1 for k in range(i, j)}
        self.c_indices = tuple(h[k] for k in range(1, n) if k not in delta_prime)
        self.derived_indices = (*map(h.get, delta_prime), *self.root_index.values())
        # the build's certificates. The table is the gl_n bracket of linearly
        # independent matrices (an escaping bracket raised above), so Jacobi
        # holds. The weight-0 Leibniz equations at the pairs that meet the
        # simple root generators x_(k,k+1), in increasing position, cut out
        # the weight-0 derivations: ``derivation_algebra`` gives the argument
        # from the closed-form brackets above, and reads both. Every bracket
        # lands on a root generator or, for [e_ij, e_ji] with e_ji in q, on
        # coroots of delta': the derived positions hold the support of every
        # bracket, which ``derivations._sum_certified`` reads
        self.algebra = LieAlgebra._of(
            labels, T, tuple(self.root_index[(k, k + 1)] for k in range(1, n)),
            self.derived_indices)
        if not _partition([self.center_indices, self.c_indices, self.derived_indices], range(dim)):
            raise RuntimeError("algebra does not split as center + c + derived")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __repr__(self) -> str:
        return f"ParabolicAlgebra(n={self.n}, blocks={self.blocks})"


def adapted_subspaces(q: ParabolicAlgebra) -> dict[str, Subspace]:
    """The ten adapted subspaces of q by name, in ``describe``'s order.

    The seven claims of the Levi decomposition are checked before they are
    returned, raising RuntimeError with the one that fails. Splittings into
    coordinate subspaces are read off the pivots (``_partition``). The
    closures and the centrality are read off the table: a bracket of basis
    vectors lies in a coordinate subspace exactly when its support does.
    """
    L, n, d = q.algebra, q.n, q.dim
    dp = q.delta_prime
    h = [q.coroot_index[k] for k in range(1, n)]
    t = [q.coroot_index[k] for k in dp]
    # (i, j) is a Levi root iff (j, i) is a root too
    same = [p for (i, j), p in q.root_index.items() if (j, i) in q.root_index]
    cross = [p for (i, j), p in q.root_index.items() if (j, i) not in q.root_index]
    s = {
        "g_z": Subspace.units(d, q.center_indices),
        "cartan": Subspace.units(d, h),
        "c": Subspace.units(d, q.c_indices),
        "t": Subspace.units(d, t),
        "derived": Subspace.units(d, q.derived_indices),
        "levi": Subspace.units(d, h + same),
        "nilradical": Subspace.units(d, cross),
        # n times the fundamental coweight of each simple root outside
        # delta', adj(A) e_k = n A^-1 e_k: every root of delta' vanishes on it
        "levi_center": Subspace.from_sparse(d, (
            dict(zip(h, _cartan_adjugate([int(i == k) for i in range(1, n)])))
            for k in range(1, n) if k not in dp
        )),
        "levi_semisimple": Subspace.units(d, t + same),
        "semisimple_part": Subspace.units(d, h + same + cross),
    }
    piv = {name: space.pivots() for name, space in s.items()}
    nil, levi = set(piv["nilradical"]), set(piv["levi"])
    if not _partition([piv["c"], piv["t"]], piv["cartan"]):
        raise RuntimeError("Cartan does not split as c + t")
    if not _closed(L, range(d), nil, nil):
        raise RuntimeError("nilradical is not an ideal")
    if not _closed(L, levi, levi, levi):
        raise RuntimeError("Levi factor is not a subalgebra")
    if not _partition([piv["levi_semisimple"], piv["nilradical"]], piv["derived"]):
        raise RuntimeError("derived algebra does not split as semisimple Levi + nilradical")
    if any(bracket(L, z, {p: 1}) for z in s["levi_center"].rows for p in levi):
        raise RuntimeError("Levi center is not central in the Levi factor")
    # the Levi center is another valid complement of the derived algebra
    # alongside c (they coincide only for extreme compositions)
    if not is_direct_sum([s["levi_center"], s["levi_semisimple"]], s["levi"]):
        raise RuntimeError("Levi factor does not split as center + semisimple part")
    if not is_direct_sum([s["g_z"], s["levi_center"], s["derived"]], Subspace.full(d)):
        raise RuntimeError("Levi center does not complement the derived algebra")
    return s


def build_gl(n: int) -> LieAlgebra:
    """gl_n on the matrix-unit basis E[i,j], lexicographic in (i, j); n*n
    at most ``lie.MAX_DIM``, checked before any bracket is formed."""
    _require_n(n)
    if n * n > lie.MAX_DIM:
        raise ValueError(f"dim {n * n} is above the limit of {lie.MAX_DIM}")
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    pos = {u: t for t, u in enumerate(units)}
    labels = [f"E[{i},{j}]" for (i, j) in units]
    triples = []
    for a in range(len(units)):
        i, j = units[a]
        for b in range(a + 1, len(units)):
            k, l = units[b]
            # [E_ij, E_kl] = [j = k] E_il - [l = i] E_kj; both terms at once
            # need i = j = k = l, so no two entries meet
            if j == k:
                triples.append((a, b, pos[(i, l)], 1))
            if l == i:
                triples.append((a, b, pos[(k, j)], -1))
    return LieAlgebra(n * n, labels, triples)


def build_standard_parabolic(blocks, *, extra_center: int = 0) -> ParabolicAlgebra:
    """The block parabolic of gl_n for the composition of n into blocks,
    with extra_center central generators (``ParabolicAlgebra``)."""
    return ParabolicAlgebra(blocks, extra_center=extra_center)
