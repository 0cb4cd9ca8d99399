"""Graded tensor products of truncation modules over a strand algebra.

M tensor_A N is presented degreewise as the plain tensor product of
graded pieces modulo the span of m.g (x) n - m (x) g.n for g running
over the generators of A.  Generators suffice: the relation for a
product factors as rel(ab; m, n) = rel(b; m.a, n) + rel(a; m, b.n), so
the span over generators already contains the relation for every
element of the subalgebra they generate.

One module adapter wraps either a free strand algebra or a cyclotomic
quotient, truncated by idempotents on one side, with the subalgebra
acting on the other side through an embedding that adds one untouched
strand (at the end or, shifted, at the front).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycAlgebra
from .klr import (
    BasisMonomial,
    basis_monomials,
    get_engine,
    left_seq,
    min_tau_degree,
    seqs_of,
)
from .laurent import LaurentPoly
from .linalg import SubspaceBasis

__all__ = [
    "TruncationModule",
    "algebra_gens",
    "tensor_dim",
    "tensor_dim_poly",
]


def algebra_gens(datum, beta, qspec=None):
    """Generators of the strand algebra R(beta) as (element, degree)
    pairs: all idempotents and their dot and crossing cuts.  The same
    list presents a cyclotomic quotient, whose actions reduce anyway."""
    n = sum(beta)
    gens = []
    for nu in seqs_of(beta):
        zero = (0,) * n
        gens.append(({BasisMonomial((), zero, nu): Fraction(1)}, 0))
        for p in range(n):
            exps = tuple(1 if t == p else 0 for t in range(n))
            gens.append((
                {BasisMonomial((), exps, nu): Fraction(1)},
                datum.form(nu[p], nu[p]),
            ))
        for l in range(n - 1):
            gens.append((
                {BasisMonomial((l,), zero, nu): Fraction(1)},
                -datum.form(nu[l], nu[l + 1]),
            ))
    return gens


class TruncationModule:
    """A e(S) as a right module (side "right", action m * g) or e(S) A as
    a left module (side "left", action g * m) over a subalgebra whose
    elements emb maps into A.

    A is the free strand algebra R(beta), given by datum and beta (and
    qspec), with the basis monomials as basis; or the cyclotomic quotient
    alg, with its quotient basis in its nonzero degrees and products reduced
    by alg.nf.
    """

    def __init__(self, side, seqs, emb, alg: CycAlgebra = None,
                 datum=None, beta=None, qspec=None):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        self.side = side
        self.seqs = set(seqs)
        self.emb = emb
        self.alg = alg
        if alg is None:
            self.datum = datum
            self.beta = tuple(beta)
            self.engine = get_engine(datum, sum(beta), qspec)
            self._min_degree = min_tau_degree(datum, self.beta)
        else:
            self.engine = alg.engine
            self._min_degree = alg.dmin
            # quotient_basis(d) is empty at every other degree
            self._degrees = set(alg.graded_dims())
        self._basis = {}

    def min_degree(self):
        return self._min_degree

    def basis(self, d):
        hit = self._basis.get(d)
        if hit is None:
            if self.alg is None:
                mons = basis_monomials(self.datum, self.beta, d)
            elif d in self._degrees:
                mons = self.alg.quotient_basis(d)
            else:
                mons = []
            if self.side == "right":
                hit = [m for m in mons if m.seq in self.seqs]
            else:
                hit = [m for m in mons if left_seq(m) in self.seqs]
            self._basis[d] = hit
        return hit

    def act(self, m, gen_elt):
        one = {m: Fraction(1)}
        g = self.emb(gen_elt)
        if self.side == "right":
            prod = self.engine.multiply(one, g)
        else:
            prod = self.engine.multiply(g, one)
        return prod if self.alg is None else self.alg.nf(prod)


def _pair_key(key):
    return (key[0], BasisMonomial.sort_key(key[1]), BasisMonomial.sort_key(key[2]))


def tensor_dim(M, N, gens, d, dmax_m=None) -> int:
    """Dimension of (M tensor_A N) in degree d, with A presented by the
    (element, degree) list gens.

    dmax_m caps the M-degree scan for finite M (None scans by N's lower
    bound alone).
    """
    nmin = N.min_degree()
    mmin = M.min_degree()
    top = d - nmin if dmax_m is None else min(d - nmin, dmax_m)
    npairs = 0
    for d1 in range(mmin, top + 1):
        mb = M.basis(d1)
        if mb:
            npairs += len(mb) * len(N.basis(d - d1))
    if not npairs:
        return 0
    sb = SubspaceBasis(keyfunc=_pair_key)
    for (gelt, gdeg) in gens:
        # relations can involve m above the pair window when the
        # generator has negative degree; the image still lands inside
        top_g = d - nmin - gdeg
        if dmax_m is not None:
            top_g = min(top_g, dmax_m)
        for d1 in range(mmin, top_g + 1):
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


def tensor_dim_poly(M, N, gens, window, dmax_m=None) -> LaurentPoly:
    coeffs = {}
    for d in range(window[0], window[1] + 1):
        k = tensor_dim(M, N, gens, d, dmax_m=dmax_m)
        if k:
            coeffs[d] = k
    return LaurentPoly(coeffs)
