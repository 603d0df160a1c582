"""The Jacobi identity checked triple by triple, as its own loop nest.

The library reads Jacobi failures off its Leibniz evaluator (the sum at
(i, j, k) is minus the Leibniz residual of ad x_i at (x_j, x_k)). The tests
compare it with this reference, which sums the three brackets of each
triple i < j < k straight from ``int_table`` and so shares no code with
that evaluator.
"""


def jacobi_failures(L):
    """The triples (i, j, k), i < j < k, where the table breaks the Jacobi
    identity, in increasing order; checked on N times the constants (it is
    homogeneous in them), on the x with nonzero ad (a central x gives 0).
    [x_i, x_j] is looked up once per pair, and a triple whose three brackets
    are all zero is skipped, its Jacobi sum being 0."""
    T = L.int_table
    active = [i for i, row in enumerate(T) if row]
    for p, i in enumerate(active):
        Ti = T[i]
        for r, j in enumerate(active[p + 1:], p + 1):
            ij, Tj = Ti.get(j), T[j]
            for k in active[r + 1:]:
                jk, ki = Tj.get(k), T[k].get(i)
                if not (ij or jk or ki):
                    continue
                # [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j]
                acc: dict[int, int] = {}
                for b, c in ((ij, k), (jk, i), (ki, j)):
                    for m, v in (b or {}).items():
                        for t, w in T[m].get(c, {}).items():
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    yield i, j, k
