"""`tensors.tensor_dim` as it was before `tensor_dim_poly` shared one
memo of the module actions across its degrees, kept verbatim as the
reference for the differential test: it recomputes M.act and N.act at
every degree."""

from quiverhecke.klr import BasisMonomial
from quiverhecke.laurent import LaurentPoly
from quiverhecke.linalg import SubspaceBasis


def _pair_key(key):
    return (key[0], BasisMonomial.sort_key(key[1]), BasisMonomial.sort_key(key[2]))


def tensor_dim(M, N, gens, d) -> int:
    """Dimension of (M tensor_A N) in degree d, with A presented by the
    (element, degree) list gens.

    The M-degree scan runs from M's least degree up to the bound that N's
    least degree sets, and stops at M's top degree.
    """
    nmin = N.min_degree
    npairs = 0
    for d1 in range(M.min_degree, min(d - nmin, M.max_degree) + 1):
        mb = M.basis(d1)
        if mb:
            npairs += len(mb) * len(N.basis(d - d1))
    if not npairs:
        return 0
    sb = SubspaceBasis(keyfunc=_pair_key)
    for (gelt, gdeg) in gens:
        # relations can involve m above the pair window when the
        # generator has negative degree; the image still lands inside
        top_g = min(d - nmin - gdeg, M.max_degree)
        for d1 in range(M.min_degree, top_g + 1):
            mb = M.basis(d1)
            if not mb:
                continue
            nb = N.basis(d - d1 - gdeg)
            if not nb:
                continue
            gns = [N.act(nk, gelt) for nk in nb]
            for m in mb:
                mg = M.act(m, gelt)
                for nk, gn in zip(nb, gns):
                    row = {}
                    for mm, c in mg.items():
                        key = (d1 + gdeg, mm, nk)
                        row[key] = row.get(key, 0) + c
                    for nn, c in gn.items():
                        key = (d1, m, nn)
                        row[key] = row.get(key, 0) - c
                    row = {k: c for k, c in row.items() if c}
                    if row:
                        sb.add(row)
    return npairs - sb.rank


def tensor_dim_poly(M, N, gens, window) -> LaurentPoly:
    return LaurentPoly({d: tensor_dim(M, N, gens, d)
                        for d in range(window[0], window[1] + 1)})
