"""The benchmark's three workloads: seeded request lists, requests, output checks.

Each workload turns a seed into a fixed list of requests, sends one request
in-process and returns a small hashable response, and checks a response
against answers the benchmark derives itself (closed forms in the blocks, or
a rebuild from the structure constants), never against the library's own
answers for the same request.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# Seeded samples are stratified by partition: each seed picks one ordering of
# every partition below, so the work per pass hardly changes with the seed.
# The der-n8 strata have dim q 41..44 and cost alike, so the median and the
# tail request fall among them and not on a jump between gl_8 and the Borel.
DER_N = 8
DER_STRATA = ((3, 2, 2, 1), (3, 3, 1, 1), (4, 2, 1, 1), (4, 2, 2))
SWEEP_MAX_N = 5
# Five gl_6 cases that cost about as much as gl_5. With gl_5 they form the
# top group of a pass, so the tail request is inside that group, and the
# median request falls among the four dim-16 cases of n = 5 rather than on
# the step between two cost levels.
SWEEP_STRATA = ((3, 2, 1), (3, 2, 1), (2, 2, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1))
GOLDEN = (3, 2, 1)
DECOMPOSE_INPUTS = 32
INVALID_EVERY = 8  # one perturbed input in each run of this many


def q_dim(blocks) -> int:
    """dim q = n + n(n-1)/2 + sum b(b-1)/2 for the block parabolic of gl_n."""
    n = sum(blocks)
    return n + n * (n - 1) // 2 + sum(b * (b - 1) // 2 for b in blocks)


def closed_form(blocks) -> dict:
    """Dimensions the paper's theorem predicts for a composition with r blocks."""
    dq, r = q_dim(blocks), len(blocks)
    return {"q_dim": dq, "der_dim": dq - 1 + r, "l_dim": r, "inner_dim": dq - 1, "h1_dim": r}


def all_compositions(n: int):
    """Every composition of n, from the 2^(n-1) ways to cut n - 1 gaps."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        blocks, size = [], 1
        for cut in cuts:
            if cut:
                blocks.append(size)
                size = 1
            else:
                size += 1
        blocks.append(size)
        yield tuple(blocks)


def ordering(rng: random.Random, partition) -> tuple[int, ...]:
    parts = list(partition)
    rng.shuffle(parts)
    return tuple(parts)


def call_cli(cli, argv) -> tuple[int, str]:
    """One CLI request in-process: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Workload:
    name = ""
    # Pass wall time on the reference host (2 vCPUs, Python 3.11); a run
    # makes round(seconds / this) passes, so parent and change do equal work.
    nominal_pass_s = 1.0

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.rng = random.Random(f"{self.name}/{seed}")
        self.requests: list = []

    def send(self, req):
        raise NotImplementedError

    def check(self, req, response) -> bool:
        raise NotImplementedError

    def listing(self) -> bytes:
        """Canonical bytes of the request list, for reproducibility checks."""
        return json.dumps([self.describe(r) for r in self.requests]).encode()

    def describe(self, req):
        return req


class DerN8(Workload):
    """`der --n 8` through the CLI: gl_8, the Borel, and a seeded sample."""

    name = "der-n8"
    nominal_pass_s = 9.5

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        comps = [(DER_N,), (1,) * DER_N] + [ordering(self.rng, p) for p in DER_STRATA]
        self.requests = [
            ("der", "--n", str(DER_N), "--blocks", ",".join(map(str, b))) for b in comps
        ]

    def send(self, req):
        return call_cli(self.lib.cli, req)

    def check(self, req, response) -> bool:
        code, out = response
        blocks = tuple(int(b) for b in req[4].split(","))
        f = closed_form(blocks)
        r = len(blocks)
        expected = {
            "n": sum(blocks),
            "blocks": list(blocks),
            "der_dim": f["der_dim"],
            "l_dim": f["l_dim"],
            "inner_dim": f["inner_dim"],
            "h1_dim": f["h1_dim"],
            "formula_dim": f["der_dim"],
            "formula_ok": True,
            "center_dim": 1,
            "c_dim": r - 1,
            "derived_dim": f["q_dim"] - r,
        }
        return code == 0 and json.loads(out) == expected


class TheoremSweep(Workload):
    """Library route: build -> oracle -> verify_main_theorem, per composition."""

    name = "theorem-sweep"
    nominal_pass_s = 9.0

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.requests = [b for n in range(1, SWEEP_MAX_N + 1) for b in all_compositions(n)]
        self.requests += [ordering(self.rng, p) for p in SWEEP_STRATA]

    def send(self, blocks):
        lib = self.lib
        q = lib.parabolic.build_standard_parabolic(blocks)
        der = lib.derivations.derivation_algebra(q.algebra)
        rep = lib.derivations.verify_main_theorem(q, der)
        return (q.dim, rep.der_dim, rep.l_dim, rep.inner_dim, rep.h1_dim, rep.ok)

    def check(self, blocks, response) -> bool:
        f = closed_form(blocks)
        expected = (f["q_dim"], f["der_dim"], f["l_dim"], f["inner_dim"], f["h1_dim"], True)
        return response == expected


class DecomposeStream(Workload):
    """`decompose` on the golden gl_6 case with seeded derivations, one in
    eight perturbed so that it fails Leibniz and must exit 4."""

    name = "decompose-stream"
    nominal_pass_s = 5.0

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        blocks = ",".join(map(str, GOLDEN))
        n = str(sum(GOLDEN))
        code, out = call_cli(lib.cli, ["describe", "--n", n, "--blocks", blocks])
        if code != 0:
            raise RuntimeError(f"describe failed with exit code {code}")
        desc = json.loads(out)
        d = self.dim = desc["dim"]
        self.table = _bracket_table(desc["sc"])
        self.center_rows = _unit_indices(desc["subspaces"]["g_z"])
        self.derived_cols = _unit_indices(desc["subspaces"]["derived"])

        q = lib.parabolic.build_standard_parabolic(GOLDEN)
        basis = lib.derivations.derivation_algebra(q.algebra).vectors()
        invalid = {k + self.rng.randrange(INVALID_EVERY)
                   for k in range(0, DECOMPOSE_INPUTS, INVALID_EVERY)}
        self.matrices = []
        for t in range(DECOMPOSE_INPUTS):
            flat = [Fraction(0)] * (d * d)
            for v in basis:
                c = self.rng.randint(-9, 9)
                if c:
                    for idx, e in enumerate(v):
                        if e:
                            flat[idx] += c * e
            # flattening is column-major: entry (i, j) sits at j * d + i
            m = [[flat[j * d + i] for j in range(d)] for i in range(d)]
            if t in invalid:
                a, b = self._non_derivation_unit()
                m[a][b] += self.rng.choice((-3, -2, -1, 1, 2, 3))
            path = workdir / f"input-{t:03d}.json"
            text = json.dumps({"dim": d, "matrix": [[str(e) for e in row] for row in m]})
            path.write_text(text, encoding="utf-8")
            self.matrices.append(m)
            self.requests.append((t, t not in invalid, path, text))
        self._argv = ["decompose", "--n", n, "--blocks", blocks, "--input"]

    def describe(self, req):
        t, valid, path, text = req
        return [t, valid, path.name, text]

    def _non_derivation_unit(self) -> tuple[int, int]:
        """A seeded position (a, b) whose unit matrix breaks Leibniz, so adding
        any nonzero multiple of it to a derivation leaves Der q."""
        while True:
            a, b = self.rng.randrange(self.dim), self.rng.randrange(self.dim)
            if not _unit_is_derivation(self.table, self.dim, a, b):
                return a, b

    def send(self, req):
        return call_cli(self.lib.cli, self._argv + [str(req[2])])

    def check(self, req, response) -> bool:
        t, valid, _, _ = req
        code, out = response
        if not valid:
            return code == 4 and out == ""
        if code != 0:
            return False
        payload = json.loads(out)
        d = self.dim
        l_part = [[Fraction(e) for e in row] for row in payload["l_part"]]
        p = [Fraction(e) for e in payload["p"]]
        if len(l_part) != d or any(len(row) != d for row in l_part) or len(p) != d:
            return False
        if any(l_part[i][j] for i in range(d) if i not in self.center_rows for j in range(d)):
            return False
        if any(l_part[i][j] for i in range(d) for j in self.derived_cols):
            return False
        ad = [[Fraction(0)] * d for _ in range(d)]  # ad(p)[k][j] = sum_i p_i c_ij^k
        for (i, j), ks in self.table.items():
            if i < j:
                for k, v in ks.items():
                    ad[k][j] += p[i] * v
                    ad[k][i] -= p[j] * v
        m = self.matrices[t]
        return all(l_part[i][j] + ad[i][j] == m[i][j] for i in range(d) for j in range(d))


def _bracket_table(sc) -> dict[tuple[int, int], dict[int, Fraction]]:
    """[x_i, x_j] for every ordered pair, from the canonical i < j triples."""
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, v in sc:
        v = Fraction(v)
        table.setdefault((i, j), {})[k] = v
        table.setdefault((j, i), {})[k] = -v
    return table


def _unit_indices(basis) -> set[int]:
    """Indices of a subspace spanned by unit vectors, given its basis rows."""
    out = set()
    for row in basis:
        nonzero = [j for j, e in enumerate(row) if Fraction(e)]
        if len(nonzero) != 1 or Fraction(row[nonzero[0]]) != 1:
            raise RuntimeError("expected a subspace spanned by basis vectors")
        out.add(nonzero[0])
    return out


def _unit_is_derivation(table, d: int, a: int, b: int) -> bool:
    """Leibniz for the map x_b -> x_a (all other basis vectors -> 0):
    E[x_i, x_j] = [E x_i, x_j] + [x_i, E x_j] for every pair i < j."""
    for i in range(d):
        for j in range(i + 1, d):
            res: dict[int, Fraction] = {}
            c = table.get((i, j), {}).get(b)
            if c:
                res[a] = res.get(a, 0) + c
            if i == b:
                for k, v in table.get((a, j), {}).items():
                    res[k] = res.get(k, 0) - v
            if j == b:
                for k, v in table.get((i, a), {}).items():
                    res[k] = res.get(k, 0) - v
            if any(res.values()):
                return False
    return True


WORKLOADS = {w.name: w for w in (DerN8, TheoremSweep, DecomposeStream)}
