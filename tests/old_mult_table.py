"""The structure-constant table that `simples._mult_table` built before
it skipped the products its quotient cannot keep: every basis pair is
multiplied and reduced.  Kept verbatim as the reference for the
differential tests."""

from quiverhecke.cyclotomic import CycAlgebra


def _mult_table(alg: CycAlgebra):
    """Ungraded basis and structure constants c[i][j] = coords of
    b_i b_j."""
    basis = [m for m, _ in alg.basis()]
    index = {m: k for k, m in enumerate(basis)}
    eng = alg.engine
    table = {}
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            prod = alg.nf(eng.multiply({ma: 1}, {mb: 1}))
            row = {}
            for m, c in prod.items():
                row[index[m]] = c
            table[(a, b)] = row
    return basis, table
