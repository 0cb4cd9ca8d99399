"""Graded tensor products of truncation modules over a strand algebra.

M tensor_A N is presented degreewise as the plain tensor product of
graded pieces modulo the span of m.g (x) n - m (x) g.n for g running
over the generators of A.  Generators suffice: the relation for a
product factors as rel(ab; m, n) = rel(b; m.a, n) + rel(a; m, b.n), so
the span over generators already contains the relation for every
element of the subalgebra they generate.

`TruncationModule` is the one graded module class: e(rows) R(beta)
e(cols) modulo the span of an IdealSpace, which is free for the empty
chain family, a cyclotomic quotient for the full one (always through
`CycAlgebra`), and K0 or K1 of `bimodules` for a restricted one.  A
tensor factor also carries the side the subalgebra acts on and an
embedding that adds one untouched strand (at the end or, shifted, at the
front).
"""

from __future__ import annotations

from .cartan import seqs_of
from .klr import BasisMonomial, min_tau_degree
from .laurent import LaurentPoly
from .linalg import SubspaceBasis

__all__ = [
    "TruncationModule",
    "algebra_gens",
    "tensor_dim",
    "tensor_dim_poly",
]


def algebra_gens(datum, beta):
    """Generators of the strand algebra R(beta) as (element, degree)
    pairs: all idempotents and their dot and crossing cuts.  The same
    list presents a cyclotomic quotient, whose actions reduce anyway."""
    n = sum(beta)
    gens = []
    for nu in seqs_of(beta):
        zero = (0,) * n
        gens.append(({BasisMonomial((), zero, nu): 1}, 0))
        for p in range(n):
            exps = tuple(1 if t == p else 0 for t in range(n))
            gens.append((
                {BasisMonomial((), exps, nu): 1},
                datum.form(nu[p], nu[p]),
            ))
        for l in range(n - 1):
            gens.append((
                {BasisMonomial((l,), zero, nu): 1},
                -datum.form(nu[l], nu[l + 1]),
            ))
    return gens


class TruncationModule:
    """The graded module sum over lam in rows and mu in cols of the blocks
    e(lam) R(beta) e(mu), modulo the span of the IdealSpace `space`.

    Its degree-d basis is the non-pivot columns of those blocks, in
    canonical order, and its normal form is the space's.  `degrees`, when
    given, maps each pair (lam, mu) to every degree where its block can
    be nonzero, and no block is built at any other; otherwise the module
    starts at the least crossing degree and is unbounded above.  As a
    factor of a tensor product it is a right module (side "right", action
    m * g) or a left module (side "left", action g * m) over a subalgebra
    whose elements emb maps into R(beta).
    """

    def __init__(self, space, rows, cols, side=None, emb=None, degrees=None):
        self.space = space
        self.pairs = tuple((lam, mu) for lam in rows for mu in cols)
        self.side = side
        self.emb = emb
        self.degrees = degrees
        if degrees is None:
            self.min_degree = min_tau_degree(space.engine.datum, space.beta)
            self.max_degree = float("inf")
        else:
            every = [d for pair in self.pairs for d in degrees[pair]]
            self.min_degree = min(every, default=0)
            self.max_degree = max(every, default=0)
        self._basis = {}

    def basis(self, d):
        """Degree-d basis: the blocks' bases copied into one list of this
        module's own, sorted.  The space's block lists are shared and
        never handed out, so changing the list changes no other module."""
        hit = self._basis.get(d)
        if hit is None:
            hit = []
            for pair in self.pairs:
                if self.degrees is None or d in self.degrees[pair]:
                    hit.extend(self.space.block_basis(*pair, d))
            hit.sort(key=BasisMonomial.sort_key)
            self._basis[d] = hit
        return hit

    def graded_dim_poly(self, window) -> LaurentPoly:
        return LaurentPoly({d: len(self.basis(d))
                            for d in range(window[0], window[1] + 1)})

    def nf(self, E: dict) -> dict:
        return self.space.reduce(E)

    def act(self, m, gen_elt):
        one = {m: 1}
        g = self.emb(gen_elt)
        if self.side == "right":
            return self.nf(self.space.engine.multiply(one, g))
        return self.nf(self.space.engine.multiply(g, one))


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
