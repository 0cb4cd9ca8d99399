"""Graded tensor products of truncation modules over a strand algebra.

M tensor_A N is presented degreewise as the plain tensor product of
graded pieces modulo the span of m.g (x) n - m (x) g.n for g running
over the generators of A.  Generators suffice: the relation for a
product factors as rel(ab; m, n) = rel(b; m.a, n) + rel(a; m, b.n), so
the span over generators already contains the relation for every
element of the subalgebra they generate.  The idempotent generators
need no relations at all: they are handled by the pairing.  Each basis
monomial of M lies in one summand M e(nu) and each of N in one e(nu) N,
and the relations of the idempotents span exactly the unit vectors of
the pairs whose two nu differ, so `tensor_dim` numbers only the pairs
whose nu agree and relates each of those by the other generators
alone (the argument is in its docstring).

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
from .klr import BasisMonomial, left_seq, min_tau_degree
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


def _is_unit(gelt):
    """Whether the generator gelt is a nonzero multiple of an idempotent
    e(nu)."""
    if len(gelt) != 1:
        return False
    (m, c), = gelt.items()
    return bool(c) and not m.word and not any(m.exps)


def _sides(gelt):
    """(lam, mu) with gelt = e(lam) gelt e(mu): the left and the right
    sequence that every monomial of gelt has.  A generator whose
    monomials lie in two blocks e(lam) R e(mu) raises."""
    sides = {(left_seq(m), m.seq) for m in gelt}
    if len(sides) != 1:
        raise ValueError(
            f"generator {gelt!r} is not idempotent-homogeneous: its "
            f"monomials lie in the blocks {sorted(sides)}")
    return sides.pop()


class _Factor:
    """One factor of a tensor product over a window: its degree-d basis
    split into the summands module * emb(e(nu)) (right side) or
    emb(e(nu)) * module (left side), each monomial numbered by its
    position in its summand, and its generator actions memoized on
    those numbers.  `slot_of` maps the sequence of emb(e(nu)) to the
    summand number of nu."""

    def __init__(self, module, slot_of):
        self.module = module
        self.right = module.side == "right"
        i = 1 if self.right else 0
        for pair in module.pairs:
            if pair[i] not in slot_of:
                raise ValueError(
                    f"{module.side} tensor factor has the sequence "
                    f"{pair[i]}, which embeds no idempotent generator")
        self.slot_of = slot_of
        self._groups = {}
        self._where = {}
        self._acts = {}

    def groups(self, d):
        """The degree-d basis monomials of each summand, in basis order,
        by summand number; each monomial's (summand, position) goes to
        the degree's `_where`."""
        hit = self._groups.get(d)
        if hit is None:
            slot_of = self.slot_of
            right = self.right
            hit, where = {}, {}
            for m in self.module.basis(d):
                slot = slot_of[m.seq if right else left_seq(m)]
                group = hit.setdefault(slot, [])
                where[m] = (slot, len(group))
                group.append(m)
            self._groups[d] = hit
            self._where[d] = where
        return hit

    def actions(self, gi, gelt, d, source, target, tdeg):
        """For each monomial of summand `source` in degree d, its action
        by the generator gelt = gens[gi] as (position, coefficient) pairs
        of summand `target` in degree tdeg.  A term elsewhere raises."""
        key = (gi, d)
        hit = self._acts.get(key)
        if hit is None:
            self.groups(tdeg)
            where = self._where[tdeg]
            hit = []
            for m in self.groups(d)[source]:
                terms = []
                for t, c in self.module.act(m, gelt).items():
                    slot, pos = where[t]
                    if slot != target:
                        raise ValueError(
                            f"{gelt!r} maps {m} outside its summand")
                    terms.append((pos, c))
                hit.append(terms)
            self._acts[key] = hit
        return hit


class _Pairing:
    """The window-wide data of M tensor_A N: the summand number of each
    idempotent generator, the other generators as (index, element,
    degree, lam summand, mu summand), and the two factors."""

    def __init__(self, M, N, gens):
        units, others = {}, []
        for gi, (gelt, gdeg) in enumerate(gens):
            lam, mu = _sides(gelt)
            if not _is_unit(gelt):
                others.append((gi, gelt, gdeg, lam, mu))
            elif lam not in units:
                units[lam] = (len(units), gelt)
        self.relations = []
        for gi, gelt, gdeg, lam, mu in others:
            if lam not in units or mu not in units:
                raise ValueError(
                    f"generator {gelt!r} lies in e({lam}) A e({mu}), and "
                    f"an idempotent of it is not a generator")
            self.relations.append(
                (gi, gelt, gdeg, units[lam][0], units[mu][0]))
        # emb(e(nu)) is the one idempotent e(sequence)
        self.M, self.N = (
            _Factor(X, {next(iter(X.emb(unit))).seq: k
                        for k, unit in units.values()})
            for X in (M, N))


def tensor_dim(M, N, gens, d, pairing=None) -> int:
    """Dimension of (M tensor_A N) in degree d, with A presented by the
    (element, degree) list gens.

    The tensor is spanned by the pairs (m, n), m in M.basis(d1) and n in
    N.basis(d - d1), modulo the rows rel(g; m, n) = m.g (x) n - m (x) g.n.
    A basis monomial m of the right factor M lies in exactly one summand
    M.emb(e(nu)), the nu whose embedding is its right sequence, and
    m.emb(e(nu')) is m when nu' = nu and 0 otherwise; a basis monomial of
    the left factor N lies in exactly one emb(e(nu)).N, read off its left
    sequence.  Call (m, n) matched when the two nu agree.  Then:
    - rel(e(nu); m, n) is 0 on a matched pair and +-(m, n) on a
      mismatched pair with a factor in summand nu, so the idempotent
      relations span exactly the unit vectors of the mismatched pairs;
    - for g = e(lam) g e(mu), m.g lies in M e(mu) and is 0 unless m is in
      M e(lam), and g.n lies in e(lam) N and is 0 unless n is in e(mu) N.
      So rel(g; m, n) for m in M e(lam) and n in e(mu) N has every term
      on a matched pair, (m', n) in summand mu and (m, n') in summand
      lam, and every other rel(g; m, n) lies on mismatched pairs only.
    Modulo the mismatched unit vectors, the tensor is the span of the
    matched pairs modulo the rows of the first kind, so its dimension is
    #matched - rank of those rows, which is npairs - rank of the whole
    presentation.  The argument has two premises, and both are checked:
    every generator is idempotent-homogeneous (`_sides`), and every
    sequence a factor's blocks lie on, like each idempotent of each
    generator, is the embedding of an idempotent generator (`_Factor`,
    `_Pairing`).

    The M-degree scan runs from M's least degree up to the bound that N's
    least degree sets, and stops at M's top degree.  The matched pairs of
    the block (M summand nu, degree d1) x (N summand nu, degree d - d1)
    are numbered from the block's base in the scan: (m, n) is base +
    pos(m) * width + pos(n), with pos a position in the summand and width
    the N summand's length.  The rank of a set of rows does not depend
    on how its columns are labelled, as long as distinct pairs get
    distinct numbers.  Every term of a row is a numbered pair: (m', n)
    has m' in M's summand mu in degree d1 + g's degree and n in N's
    summand mu in degree d - d1 - g's degree, both nonempty and inside
    the scan, and (m, n') has n' in N's summand lam in degree d - d1,
    nonempty, with d1 inside the scan; a term outside its summand raises
    in `_Factor.actions`.

    `pairing` holds what `tensor_dim_poly` shares across its window:
    each factor's split bases and its memoized actions.  A memoized
    action is the one a recomputation gives: act is nf(multiply(...))
    for a fixed module, generator and embedding, and the space's
    reduction is canonical, so the relation rows are the same rows in
    the same order.
    """
    if pairing is None:
        pairing = _Pairing(M, N, gens)
    Mf, Nf = pairing.M, pairing.N
    nmin = N.min_degree
    base = {}
    count = 0
    for d1 in range(M.min_degree, min(d - nmin, M.max_degree) + 1):
        mgroups = Mf.groups(d1)
        if mgroups:
            ngroups = Nf.groups(d - d1)
            for slot, ms in mgroups.items():
                ns = ngroups.get(slot)
                if ns:
                    base[(d1, slot)] = count
                    count += len(ms) * len(ns)
    if not count:
        return 0
    sb = SubspaceBasis()
    for gi, gelt, gdeg, lam, mu in pairing.relations:
        # relations can involve m above the pair window when the
        # generator has negative degree; the image still lands inside
        top_g = min(d - nmin - gdeg, M.max_degree)
        for d1 in range(M.min_degree, top_g + 1):
            if lam not in Mf.groups(d1):
                continue
            dn = d - d1 - gdeg
            ns = Nf.groups(dn).get(mu)
            if not ns:
                continue
            mgs = Mf.actions(gi, gelt, d1, lam, mu, d1 + gdeg)
            gns = Nf.actions(gi, gelt, dn, mu, lam, d - d1)
            # (m', n) is numbered in the block (d1 + gdeg, mu) and (m, n')
            # in (d1, lam); a block has no base only when the summand that
            # its action terms would lie in is empty
            width = len(ns)
            m_base = base.get((d1 + gdeg, mu))
            n_base = base.get((d1, lam))
            n_width = len(Nf.groups(d - d1).get(lam, ()))
            for pm, mg in enumerate(mgs):
                left = [(m_base + p * width, c) for p, c in mg]
                off = None if n_base is None else n_base + pm * n_width
                for pn, gn in enumerate(gns):
                    row = {k + pn: c for k, c in left}
                    for p, c in gn:
                        key = off + p
                        row[key] = row.get(key, 0) - c
                    row = {k: c for k, c in row.items() if c}
                    if row:
                        sb.add(row)
    return count - sb.rank


def tensor_dim_poly(M, N, gens, window) -> LaurentPoly:
    pairing = _Pairing(M, N, gens)
    return LaurentPoly({d: tensor_dim(M, N, gens, d, pairing)
                        for d in range(window[0], window[1] + 1)})
