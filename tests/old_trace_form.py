"""The trace form that `simples._trace_form` computed before it read
tr(L_a L_b) off the traces of the basis: it builds every left
multiplication matrix L_a and sums tr(L_a L_b) over all pairs a <= b.
Kept verbatim as the reference for the differential tests."""


def _trace_form(dim, table):
    """Rows of T[a][b] = tr(L_a L_b) = sum over k, l of
    table[a, l][k] * table[b, k][l], as sparse dicts."""
    # L[a][(k, l)] is the (k, l) entry of left multiplication by b_a
    L = [{(k, l): c for l in range(dim) for k, c in table[(a, l)].items()}
         for a in range(dim)]
    T = [{} for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            Lb = L[b]
            s = sum(c * Lb[(l, k)] for (k, l), c in L[a].items() if (l, k) in Lb)
            if s:
                T[a][b] = T[b][a] = s
    return T
