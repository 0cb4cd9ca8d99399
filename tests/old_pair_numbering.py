"""`tensors.tensor_dim` and `tensor_dim_poly` as they were before the
tensor was presented over the idempotents, kept verbatim as the
reference for the differential test: every pair (d1, m, n) of the two
bases is numbered, the pairs on different idempotents included, and
every generator, each idempotent included, offers its relation rows,
over actions memoized across the window."""

from quiverhecke.laurent import LaurentPoly
from quiverhecke.linalg import SubspaceBasis


def _act(acts, side, module, gi, gelt, m):
    """module.act(m, gelt) for the generator gelt = gens[gi], memoized
    in acts under (side, gi, m)."""
    key = (side, gi, m)
    hit = acts.get(key)
    if hit is None:
        hit = acts[key] = module.act(m, gelt)
    return hit


def tensor_dim(M, N, gens, d, acts=None) -> int:
    """Dimension of (M tensor_A N) in degree d, with A presented by the
    (element, degree) list gens.

    The M-degree scan runs from M's least degree up to the bound that N's
    least degree sets, and stops at M's top degree.

    The pairs (d1, m, n), with m in M.basis(d1) and n in N.basis(d - d1),
    are numbered once, in the order of that scan; as both bases are
    sorted by `BasisMonomial.sort_key`, which determines a monomial, that
    is the order of (d1, sort key of m, sort key of n).  The relations
    are eliminated on these numbers.  The rank of a set of rows does not
    depend on how its columns are labelled or ordered, so npairs - rank
    is the dimension.  Every relation key is a numbered pair, so a
    lookup that misses is a bug and raises: the term (m', n) of
    (m.g) (x) n has m' in M.basis(d1 + g's degree) and n in
    N.basis(d - d1 - g's degree), both nonempty and inside the scan, and
    the term (m, n') of m (x) (g.n) has n' in N.basis(d - d1), nonempty,
    with d1 inside the scan.

    `acts` memoizes the module actions, so that `tensor_dim_poly`
    computes each once across its window.  A memoized action is the one
    a recomputation gives: act is nf(multiply(...)) for a fixed module,
    generator and embedding, and the space's reduction is canonical, so
    the relation rows are the same rows in the same order.
    """
    if acts is None:
        acts = {}
    nmin = N.min_degree
    index = {}
    for d1 in range(M.min_degree, min(d - nmin, M.max_degree) + 1):
        mb = M.basis(d1)
        if mb:
            nb = N.basis(d - d1)
            for m in mb:
                for nk in nb:
                    index[(d1, m, nk)] = len(index)
    if not index:
        return 0
    sb = SubspaceBasis()
    for gi, (gelt, gdeg) in enumerate(gens):
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
            gns = [_act(acts, "N", N, gi, gelt, nk) for nk in nb]
            for m in mb:
                mg = _act(acts, "M", M, gi, gelt, m)
                for nk, gn in zip(nb, gns):
                    row = {}
                    for mm, c in mg.items():
                        key = index[(d1 + gdeg, mm, nk)]
                        row[key] = row.get(key, 0) + c
                    for nn, c in gn.items():
                        key = index[(d1, m, nn)]
                        row[key] = row.get(key, 0) - c
                    row = {k: c for k, c in row.items() if c}
                    if row:
                        sb.add(row)
    return len(index) - sb.rank


def tensor_dim_poly(M, N, gens, window) -> LaurentPoly:
    acts = {}
    return LaurentPoly({d: tensor_dim(M, N, gens, d, acts)
                        for d in range(window[0], window[1] + 1)})
