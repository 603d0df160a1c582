"""Block upper triangular subalgebras of gl_n and their adapted decompositions.

A composition (b_1, ..., b_r) of n selects the block upper triangular
subalgebra q of gl_n. Its basis is adapted to the chain of splittings used
throughout this package: the scalar line (plus optional extra central
generators), the coroots h_k = e_kk - e_{k+1,k+1}, and one generator per
allowed off-diagonal position. The structure constants are read off the
commutators of the coroots and root generators, realized as sparse n x n
matrices {(i, j): entry}. All distinguished subspaces (center, split Cartan
pieces, derived algebra, Levi factor, nilradical) come out of the
construction in canonical form and are cross-checked on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lie import LieAlgebra, bracket_span, center, restrict
from .linalg import Q, Subspace, is_direct_sum, rational

__all__ = [
    "BlockComposition",
    "RootDatumA",
    "ParabolicAlgebra",
    "build_gl",
    "build_standard_parabolic",
    "parabolic_from_delta_prime",
    "root_value",
    "compositions",
    "semisimple_restriction",
]


@dataclass(frozen=True)
class BlockComposition:
    """An ordered composition of n into positive block sizes; n and the
    blocks are ints, not bools."""

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not all(type(b) is int for b in (self.n, *self.blocks)):
            raise ValueError(f"n and blocks must be ints, got {self.n!r} and {self.blocks!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise ValueError("blocks must be positive")
        if sum(self.blocks) != self.n:
            raise ValueError(f"blocks {self.blocks} do not sum to n={self.n}")

    @classmethod
    def parse(cls, n: int, text: str) -> BlockComposition:
        try:
            blocks = tuple(int(t) for t in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse composition {text!r}") from None
        return cls(n, blocks)

    def block_of(self, i: int) -> int:
        """Block index (0-based) of the 1-based row/column index i."""
        acc = 0
        for b, size in enumerate(self.blocks):
            acc += size
            if i <= acc:
                return b
        raise ValueError(f"index {i} out of range")


def compositions(n: int):
    """All 2^(n-1) compositions of n, lexicographically by block tuple."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + (first,))

    yield from rec(n, ())


@dataclass(frozen=True)
class RootDatumA:
    """Type A root data for gl_n: pairs (i, j) standing for eps_i - eps_j."""

    n: int
    delta_prime: tuple[int, ...]

    @property
    def delta(self) -> tuple[int, ...]:
        return tuple(range(1, self.n))

    @property
    def phi(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1) if i != j
        )

    def in_span_delta_prime(self, root: tuple[int, int]) -> bool:
        """(i, j) lies in the span of the selected simple roots iff every
        simple index between i and j is selected."""
        i, j = root
        lo, hi = min(i, j), max(i, j)
        return all(k in self.delta_prime for k in range(lo, hi))

    @property
    def phi_prime(self) -> tuple[tuple[int, int], ...]:
        out = []
        for root in self.phi:
            i, j = root
            if i < j or self.in_span_delta_prime(root):
                out.append(root)
        return tuple(sorted(out))


def _commutator(a: dict, b: dict) -> dict:
    """AB - BA for sparse matrices {(i, j): entry}, zero entries dropped."""
    out: dict[tuple[int, int], Q] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (i, k), u in x.items():
            for (l, j), v in y.items():
                if k == l:
                    out[(i, j)] = out.get((i, j), 0) + sign * u * v
    return {p: v for p, v in out.items() if v}


class ParabolicAlgebra:
    """A block parabolic of gl_n with its adapted basis and subspaces.

    Basis order: scalar I (index 0), extra central generators, coroots
    h_1..h_{n-1}, then the allowed off-diagonal generators x_(i,j) sorted by
    (i, j). All subspaces are held in ambient coordinates of this basis.
    """

    def __init__(self, composition: BlockComposition, extra_center: int = 0, root_scale=1):
        if type(extra_center) is not int:
            raise ValueError(f"extra_center {extra_center!r} is not an int")
        if extra_center < 0:
            raise ValueError("extra_center must be nonnegative")
        root_scale = rational(root_scale, "for root_scale")
        if root_scale == 0:
            raise ValueError("root_scale must be nonzero")
        n = composition.n
        self.composition = composition
        self.extra_center = extra_center
        self.root_scale = root_scale

        delta_prime = tuple(
            k for k in range(1, n) if composition.block_of(k) == composition.block_of(k + 1)
        )
        self.root_datum = RootDatumA(n, delta_prime)
        roots = self.root_datum.phi_prime

        m = 1 + extra_center
        labels = ["I"] + [f"Z[{t}]" for t in range(2, m + 1)]
        labels += [f"H[{k}]" for k in range(1, n)]
        labels += [f"E[{i},{j}]" for (i, j) in roots]

        self.center_indices = tuple(range(m))
        self.coroot_index = {k: m + (k - 1) for k in range(1, n)}
        self.root_index = {r: m + (n - 1) + t for t, r in enumerate(roots)}
        self.roots = roots
        dim = len(labels)

        # realize each non-central basis element as a sparse n x n matrix
        # {(i, j): entry}, 1-based; I commutes with everything, so it is skipped
        mats = {self.coroot_index[k]: {(k, k): 1, (k + 1, k + 1): -1} for k in range(1, n)}
        mats.update({pos: {(i, j): root_scale} for (i, j), pos in self.root_index.items()})
        triples = []
        for a in range(m, dim):
            for b in range(a + 1, dim):
                for k, v in self._coords_of(_commutator(mats[a], mats[b])).items():
                    triples.append((a, b, k, v))
        self.algebra = LieAlgebra(dim, labels, triples)

        self._make_subspaces()
        self._check_invariants()

    def _coords_of(self, mat: dict[tuple[int, int], Q]) -> dict[int, Q]:
        """Coordinates of a traceless block upper triangular sparse matrix."""
        out: dict[int, Q] = {}
        for (i, j), v in sorted(mat.items()):
            if i != j:
                pos = self.root_index.get((i, j))
                if pos is None:
                    raise RuntimeError(f"bracket escaped the parabolic at ({i},{j})")
                out[pos] = v / self.root_scale
        trace = sum(v for (i, j), v in mat.items() if i == j)
        if trace != 0:
            raise RuntimeError("commutator acquired a trace")
        acc = Q(0)
        for k in range(1, self.composition.n):
            acc += mat.get((k, k), 0)
            if acc:
                out[self.coroot_index[k]] = acc
        return out

    def _units(self, indices) -> Subspace:
        d = self.algebra.dim
        return Subspace.from_sparse(d, [{i: Q(1)} for i in indices])

    def _make_subspaces(self) -> None:
        comp = self.composition
        dp = set(self.root_datum.delta_prime)
        n = comp.n
        self.g_z = self._units(self.center_indices)
        self.cartan = self._units(self.coroot_index[k] for k in range(1, n))
        self.c = self._units(self.coroot_index[k] for k in range(1, n) if k not in dp)
        self.t = self._units(self.coroot_index[k] for k in range(1, n) if k in dp)
        same_block = [r for r in self.roots if comp.block_of(r[0]) == comp.block_of(r[1])]
        cross_block = [r for r in self.roots if comp.block_of(r[0]) != comp.block_of(r[1])]
        root_pos = [self.root_index[r] for r in self.roots]
        self.derived = self._units(
            [self.coroot_index[k] for k in range(1, n) if k in dp] + root_pos
        )
        self.levi = self._units(
            [self.coroot_index[k] for k in range(1, n)] + [self.root_index[r] for r in same_block]
        )
        self.nilradical = self._units(self.root_index[r] for r in cross_block)
        self.levi_semisimple = self._units(
            [self.coroot_index[k] for k in range(1, n) if k in dp]
            + [self.root_index[r] for r in same_block]
        )
        self.semisimple_part = self._units(
            [self.coroot_index[k] for k in range(1, n)] + root_pos
        )
        self.levi_center = self._levi_center()

    def _levi_center(self) -> Subspace:
        z = center(restrict(self.algebra, self.levi))
        return Subspace.from_sparse(self.algebra.dim, map(self.levi.combination, z.rows))

    def _check_invariants(self) -> None:
        L = self.algebra
        full = Subspace.full(L.dim)
        if not is_direct_sum([self.c, self.t], self.cartan):
            raise RuntimeError("Cartan does not split as c + t")
        if not is_direct_sum([self.g_z, self.c, self.derived], full):
            raise RuntimeError("algebra does not split as center + c + derived")
        if not bracket_span(L, full, self.nilradical) <= self.nilradical:
            raise RuntimeError("nilradical is not an ideal")
        if not bracket_span(L, self.levi, self.levi) <= self.levi:
            raise RuntimeError("Levi factor is not a subalgebra")
        if not is_direct_sum([self.levi_semisimple, self.nilradical], self.derived):
            raise RuntimeError("derived algebra does not split as semisimple Levi + nilradical")
        # the Levi center is another valid complement of the derived algebra
        # alongside c (they coincide only for extreme compositions)
        if not is_direct_sum([self.levi_center, self.levi_semisimple], self.levi):
            raise RuntimeError("Levi factor does not split as center + semisimple part")
        if not is_direct_sum([self.g_z, self.levi_center, self.derived], full):
            raise RuntimeError("Levi center does not complement the derived algebra")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def cartan_element_for_root(self, root: tuple[int, int]) -> dict[int, int]:
        """Sparse coordinates of diag(e_ii - e_jj) for root (i, j); the root
        takes value 2 on it."""
        i, j = root
        out = {}
        for k in range(1, self.composition.n):
            b = (i <= k) - (j <= k)
            if b:
                out[self.coroot_index[k]] = b
        return out

    def __repr__(self) -> str:
        return f"ParabolicAlgebra(n={self.composition.n}, blocks={self.composition.blocks})"


def build_gl(n: int) -> LieAlgebra:
    """gl_n on the matrix-unit basis E[i,j], lexicographic in (i, j)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    pos = {u: t for t, u in enumerate(units)}
    labels = [f"E[{i},{j}]" for (i, j) in units]
    triples = []
    for a in range(len(units)):
        i, j = units[a]
        for b in range(a + 1, len(units)):
            k, l = units[b]
            acc: dict[int, Q] = {}
            if j == k:
                acc[pos[(i, l)]] = acc.get(pos[(i, l)], Q(0)) + 1
            if l == i:
                acc[pos[(k, j)]] = acc.get(pos[(k, j)], Q(0)) - 1
            for t, v in acc.items():
                if v:
                    triples.append((a, b, t, v))
    return LieAlgebra(n * n, labels, triples)


def build_standard_parabolic(
    composition: BlockComposition | tuple[int, ...],
    n: int | None = None,
    extra_center: int = 0,
    root_scale=1,
) -> ParabolicAlgebra:
    """The block parabolic of gl_n for a composition.

    Accepts either a BlockComposition or a plain block tuple plus n.
    """
    if not isinstance(composition, BlockComposition):
        blocks = tuple(composition)
        composition = BlockComposition(n if n is not None else sum(blocks), blocks)
    elif n is not None and n != composition.n:
        raise ValueError("n disagrees with the composition")
    return ParabolicAlgebra(composition, extra_center=extra_center, root_scale=root_scale)


def parabolic_from_delta_prime(n: int, delta_prime, **kwargs) -> ParabolicAlgebra:
    """Thin adapter: derive the block composition from a set of selected
    simple indices (k and k+1 share a block iff k is selected)."""
    selected = set(delta_prime)
    if not selected <= set(range(1, n)):
        raise ValueError("selected simple indices out of range")
    blocks = []
    size = 1
    for k in range(1, n):
        if k in selected:
            size += 1
        else:
            blocks.append(size)
            size = 1
    blocks.append(size)
    return build_standard_parabolic(tuple(blocks), n, **kwargs)


def root_value(q: ParabolicAlgebra, root: tuple[int, int], h: dict) -> Q:
    """The value of the root eps_i - eps_j on a Cartan element h.

    h is a sparse coordinate dict of q.algebra (index -> value) and must lie
    in the span of the coroots.
    """
    n = q.composition.n
    coroot_pos = set(q.coroot_index.values())
    if any(v and idx not in coroot_pos for idx, v in h.items()):
        raise ValueError("element is not in the Cartan subalgebra")
    i, j = root
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"({i},{j}) is not a root")
    b = [0] * (n + 1)  # b[k] = coefficient of h_k, 1-based, b[n] = 0
    for k in range(1, n):
        b[k] = h.get(q.coroot_index[k], 0)
    diag = [b[k] - b[k - 1] for k in range(1, n + 1)]  # t_k, 1-based offset
    return diag[i - 1] - diag[j - 1]


def semisimple_restriction(q: ParabolicAlgebra) -> LieAlgebra:
    """The trace-zero part of q as a standalone algebra (coroots + root
    generators), i.e. the corresponding parabolic of sl_n."""
    return restrict(q.algebra, q.semisimple_part)
