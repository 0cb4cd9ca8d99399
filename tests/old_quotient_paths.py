"""The quotient paths that `CycAlgebra` replaced, kept verbatim as
references for the differential tests: the ideal rows as products with
the expanded generator, `IdealSpace.generator` (without its memo) and
`IdealSpace._ideal_rows`, the window functions `degree_cap`,
`_table_window`, `alive_window` and `default_window`, the basis listings
`IdealSpace.quotient_basis`, `CycAlgebra.quotient_basis`,
`CycAlgebra.dim_at` (without its memo) and
`Bimodules._sub_quotient_basis`, the F module built at every degree and
on every sequence, `Bimodules._tpoly_s`, and the two certified scans of
`CycAlgebra`: `graded_dims` over the whole algebra and `corner` block by
block, with the `module` and `summary` that read them.  Methods take
their object as the first argument, and calls between them go through
this module."""

from fractions import Fraction

from quiverhecke.cartan import seqs_of
from quiverhecke.cyclotomic import (
    alive_seqs,
    get_ideal_space,
    nilpotency_table,
    scan_until_vanishing,
)
from quiverhecke.klr import (
    BasisMonomial,
    crossing_degree,
    min_tau_degree,
)
from quiverhecke.laurent import LaurentPoly
from quiverhecke.perms import all_perms, apply_word
from quiverhecke.qpolys import QSpec
from quiverhecke.tensors import TruncationModule


# ---- ideal rows --------------------------------------------------------


def generator(self, idx: int, mu):
    """x_p^{level} e(w mu) tau_word for the idx-th family member, in
    basis form; this is the right-idempotent-mu piece of that
    generator.  Returns (element, degree)."""
    eng = self.engine
    xpos, word = self.chains[idx]
    left = apply_word(word, mu)
    exps = [0] * self.n
    exps[xpos] = self.weight.level(left[xpos])
    E = {BasisMonomial((), tuple(exps), left): 1}
    E = eng.right_mult_word(E, word)
    deg = eng.element_degree(E) if E else None
    return E, deg


def ideal_rows(self, lam, mu, d, colset):
    """Nonzero spanning rows b * generator of block (lam, mu, d),
    each checked to lie on the block's columns `colset`."""
    eng = self.engine
    for idx in range(len(self.chains)):
        gen, gdeg = generator(self, idx, mu)
        if not gen:
            continue
        left_of_gen = apply_word(self.chains[idx][1], mu)
        for b in self.block_columns(lam, left_of_gen, d - gdeg):
            row = eng.multiply({b: 1}, gen)
            if row:
                assert row.keys() <= colset, "ideal row escaped its block"
                yield row


# ---- windows ---------------------------------------------------------


def degree_cap(datum, weight, beta, qspec=None):
    """Degree window (dmin, dmax) from the nilpotency table alone.

    dmin is the least crossing degree over alive sequences; dmax adds the
    largest polynomial part allowed by the per-strand bounds.  An empty
    window (0, -1) signals that every sequence is dead.
    """
    if qspec is None:
        qspec = QSpec.standard(datum)
    table = nilpotency_table(datum, weight, beta, qspec)
    return _table_window(datum, table, alive_seqs(beta, table))


def _table_window(datum, table, alive):
    """The window of `degree_cap`, from a nilpotency table and its alive
    sequences."""
    if not alive:
        return (0, -1)
    dmin = 0
    dmax = 0
    perms = all_perms(len(alive[0]))
    for seq in alive:
        taus = [crossing_degree(datum, w, seq) for w in perms]
        poly = sum(
            (table[pos][i] - 1) * datum.form(i, i) for pos, i in enumerate(seq)
        )
        dmin = min(dmin, min(taus))
        dmax = max(dmax, max(taus) + poly)
    return (dmin, dmax)


def alive_window(datum, n, table, alive):
    """(dmin, dmax) as `CycAlgebra.__init__` computed it on n strands
    from the table and the alive sequences, before the per-sequence
    bounds moved onto the space (`IdealSpace.seq_window`)."""
    perms = all_perms(n)
    taus = [[crossing_degree(datum, w, nu) for w in perms] for nu in alive]
    polys = [sum((table[pos][i] - 1) * datum.form(i, i)
                 for pos, i in enumerate(nu)) for nu in alive]
    dmin = min((min(t) for t in taus), default=0)
    dmax = max((max(t) + p for t, p in zip(taus, polys)), default=-1)
    return dmin, dmax


def default_window(datum, weight, beta_hat, qspec=None):
    """Degree window for bimodule comparisons: from the least crossing
    degree up to the quotient bound on beta_hat plus one extra
    polynomial step."""
    pad = 2 * max(datum.form(i, i) for i in range(datum.rank))
    top = degree_cap(datum, weight, beta_hat, qspec)[1] + pad
    return (min_tau_degree(datum, beta_hat), top)


def graded_scan_top(self):
    """The `top` that `CycAlgebra.graded_dims` computed for its scan."""
    perms = all_perms(self.n)
    return max(
        crossing_degree(self.datum, w, nu) for nu in self.alive for w in perms
    )


# ---- bases -----------------------------------------------------------


def space_quotient_basis(self, pairs, d):
    """Non-pivot columns of the blocks (lam, mu, d) over the given
    (lam, mu) pairs, in canonical order: a basis of degree d of the
    sum of those blocks modulo the span."""
    out = []
    for lam, mu in pairs:
        out.extend(self.block_basis(lam, mu, d))
    out.sort(key=BasisMonomial.sort_key)
    return out


def quotient_basis(self, d: int):
    """Monomials spanning degree d of the quotient: non-pivot columns
    of every alive block, in canonical order."""
    if self._zero:
        return []
    return space_quotient_basis(
        self.space, ((lam, mu) for lam in self.alive for mu in self.alive), d)


def dim_at(self, d: int) -> int:
    if self._zero:
        return 0
    return sum(len(self.space.block_basis(lam, mu, d))
               for lam in self.alive for mu in self.alive)


# ---- the two certified scans ----------------------------------------


def graded_dims(self) -> dict:
    # With no strands there is nothing above degree top; any step works.
    step = max(
        (self.datum.form(i, i) for nu in self.alive for i in nu), default=1
    )
    return scan_until_vanishing(lambda d: dim_at(self, d), self.dmin,
                                self.dmax, graded_scan_top(self), step)


def corner(self, rows, cols) -> LaurentPoly:
    """Graded dimension of the sum of the blocks e(lam) R^Lambda(beta)
    e(mu) over alive lam in rows and mu in cols, each certified by its
    own scan of the window."""
    total = LaurentPoly.zero()
    if self._zero:
        return total
    for lam in self._cut(rows):
        for mu in self._cut(cols):
            top = max(crossing_degree(self.datum, w, mu)
                      for w in self.space.transporter(mu, lam))
            step = max((self.datum.form(i, i) for i in mu), default=1)
            total += LaurentPoly(scan_until_vanishing(
                lambda d, lam=lam, mu=mu: len(
                    self.space.block_basis(lam, mu, d)),
                self.dmin, self.dmax, top, step))
    return total


def module(self, rows, cols, side=None, emb=None) -> TruncationModule:
    """The blocks of `corner` as a module, built only in the nonzero
    degrees of the quotient (given to every block in the per-pair form
    `TruncationModule` now takes)."""
    rows, cols = self._cut(rows), self._cut(cols)
    dims = graded_dims(self)
    return TruncationModule(self.space, rows, cols, side, emb,
                            {(lam, mu): dims for lam in rows for mu in cols})


def summary(self) -> dict:
    """JSON-ready description of the computed algebra."""
    dims = graded_dims(self)

    def name(seq):
        return ",".join(str(self.datum.labels[i]) for i in seq)

    truncs = {}
    for mu in self.alive:
        for nu in self.alive:
            t = corner(self, [mu], [nu])
            if t:
                truncs[name(mu) + "|" + name(nu)] = t.to_json()
    return {
        "labels": list(map(str, self.datum.labels)),
        "levels": list(self.weight.levels),
        "beta": list(self.beta),
        "window": [self.dmin, self.dmax],
        "window_bound": self.dmax_bound,
        "nilpotency": [
            {str(self.datum.labels[i]): v for i, v in row.items()}
            for row in self.table
        ],
        "alive": [name(nu) for nu in self.alive],
        "zero": self.is_zero(),
        "graded_dim": {str(d): v for d, v in sorted(dims.items())},
        "total_dim": sum(dims.values()),
        "truncations": truncs,
    }


def sub_quotient_basis(self):
    """Quotient basis monomials of R^Lambda(beta) with their degrees,
    over the nonzero degrees only."""
    return [(m, d) for d in sorted(self.sub.graded_dims())
            for m in quotient_basis(self.sub, d)]


# ---- bimodules -------------------------------------------------------


def uncut_F(self):
    """F as `Bimodules` built it: every sequence, every degree."""
    seqs = seqs_of(self.beta)
    rows = seqs_of(self.beta_hat)
    cols0 = [s + (self.i,) for s in seqs]
    return TruncationModule(
        get_ideal_space(self.datum, self.weight, self.beta_hat, self.qspec),
        rows, cols0)


def _tpoly_s(self):
    """S = sum over nu of prod over a with nu_a = i of (t - x_a)^2
    e(nu): the monic central annihilator denominator."""
    i = self.i
    out = {}
    for nu in seqs_of(self.beta):
        terms = [({}, 0, Fraction(1))]
        for a, c in enumerate(nu):
            if c != i:
                continue
            new = []
            # (t - x_a)^2 = t^2 - 2 t x_a + x_a^2
            for (dx, dt, cf) in ((0, 2, Fraction(1)), (1, 1, Fraction(-2)), (2, 0, Fraction(1))):
                for exps, jt, coeff in terms:
                    e = dict(exps)
                    if dx:
                        e[a] = e.get(a, 0) + dx
                    new.append((e, jt + dt, coeff * cf))
            terms = new
        for exps, jt, coeff in terms:
            ev = [0] * self.n
            for pos, val in exps.items():
                ev[pos] = val
            m = BasisMonomial((), tuple(ev), nu)
            slot = out.setdefault(jt, {})
            slot[m] = slot.get(m, 0) + coeff
    cleaned = {}
    for j, slot in out.items():
        red = self.sub.nf({m: c for m, c in slot.items() if c})
        if red:
            cleaned[j] = red
    return cleaned
