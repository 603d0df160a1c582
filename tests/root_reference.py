"""Root values on the Cartan, worked out from the diagonal matrix.

The library reads root values off its structure-constant table; the tests
compare against this reference, which goes through diag(t_1, ..., t_n)
instead. h_k is e_kk - e_(k+1,k+1), so an element sum_k b_k h_k is the
diagonal matrix with t_k = b_k - b_(k-1), and eps_i - eps_j takes the value
t_i - t_j on it. Conversely a trace-zero diagonal (t_1, ..., t_n) is the
element with b_k = t_1 + ... + t_k.
"""

from fractions import Fraction as Q


def root_value(q, root: tuple[int, int], h: dict) -> Q:
    """The value of the root eps_i - eps_j on a Cartan element h.

    h is a sparse coordinate dict of q.algebra (index -> value) and must lie
    in the span of the coroots.
    """
    n = q.n
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


def cartan_element(q, diag) -> dict:
    """The sparse coordinates of the trace-zero diagonal matrix
    diag(t_1, ..., t_n) in q: b_k = t_1 + ... + t_k on h_k."""
    if len(diag) != q.n or sum(diag):
        raise ValueError("not a trace-zero diagonal of the right size")
    out, b = {}, 0
    for k in range(1, q.n):
        b += diag[k - 1]
        if b:
            out[q.coroot_index[k]] = b
    return out
