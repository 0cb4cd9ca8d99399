"""QSpec.strand_poly against the four Q-product expansions it replaced.

The references below are the expansions as they stood in
`cyclotomic._last_strand_relation` (with `_bump`), `Bimodules.qp_poly`,
`Bimodules.pq_poly` and `Bimodules._tpoly_f`, copied verbatim.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight, build_cartan, seqs_of
from quiverhecke.klr import BasisMonomial
from quiverhecke.qpolys import QSpec

A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
# Q_12(u, v) = u + v/2: the two orders of the colors differ
A2_HALF = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): Fraction(1, 2)}})

QSPECS = [QSpec.standard(A2), A2_HALF, QSpec.standard(B2)]
QSPEC_IDS = ["A2-standard", "A2-half", "B2-standard"]
BETAS = [(a, b) for a in range(3) for b in range(2)]
LEVELS = (0, 1, 2)


# ---- the old expansions, verbatim -------------------------------------


def _last_strand_relation(engine, weight, sub_seq, i):
    """a_i(x_last) * prod over other-colored strands of Q * e(sub_seq, i)."""
    n = engine.n
    last = n - 1
    seq = tuple(sub_seq) + (i,)
    poly = {tuple([0] * n): Fraction(1)}
    lvl = weight.level(i)
    if lvl:
        poly = {_bump(e, last, lvl): c for e, c in poly.items()}
    for a, col in enumerate(sub_seq):
        if col == i:
            continue
        nxt = {}
        for e, c in poly.items():
            for (p, q, t) in engine.qspec.terms(col, i):
                e2 = list(e)
                e2[a] += p
                e2[last] += q
                e2 = tuple(e2)
                nxt[e2] = nxt.get(e2, 0) + c * t
        poly = {e: c for e, c in nxt.items() if c}
    return {BasisMonomial((), e, seq): c for e, c in poly.items()}


def _bump(e, pos, amount):
    e2 = list(e)
    e2[pos] += amount
    return tuple(e2)


def qp_poly(self, nu) -> dict:
    """The polynomial x_0^level * prod over positions a with
    nu_a != i of Q_{i, nu_a}(x_0, x_{a+1}), cut to e(i, nu); right
    multiplication by it equals Q after P on that column."""
    i = self.i
    base = [0] * self.N
    base[0] = self.weight.level(i)
    terms = [(tuple(base), Fraction(1))]
    for a, c in enumerate(nu):
        if c == i:
            continue
        new = []
        for (p, q, t) in self.qspec.terms(i, c):
            for exps, coeff in terms:
                e = list(exps)
                e[0] += p
                e[a + 1] += q
                new.append((tuple(e), coeff * t))
        terms = new
    out = {}
    seq = (i,) + tuple(nu)
    for exps, coeff in terms:
        m = BasisMonomial((), exps, seq)
        out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def pq_poly(self) -> dict:
    """Sum over nu of x_n^level * prod over a with nu_a != i of
    Q_{nu_a, i}(x_a, x_n), cut to e(nu, i); right multiplication by
    it equals P after Q on K0."""
    i = self.i
    out = {}
    for nu in seqs_of(self.beta):
        base = [0] * self.N
        base[self.N - 1] = self.weight.level(i)
        terms = [(tuple(base), Fraction(1))]
        for a, c in enumerate(nu):
            if c == i:
                continue
            new = []
            for (p, q, t) in self.qspec.terms(c, i):
                for exps, coeff in terms:
                    e = list(exps)
                    e[a] += p
                    e[self.N - 1] += q
                    new.append((tuple(e), coeff * t))
            terms = new
        seq = tuple(nu) + (i,)
        for exps, coeff in terms:
            m = BasisMonomial((), exps, seq)
            out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def _tpoly_f(self):
    """F = gamma (-1)^p t^level prod Q_{i, nu_a}(t, x_a) summed over
    nu, as {t power: element of R^Lambda(beta)}; monic of degree
    <h_i, lambda> + 2p."""
    i = self.i
    p = self.beta[i]
    pref = Fraction(-1) ** p / self.gamma_inverse()
    out = {}
    for nu in seqs_of(self.beta):
        terms = [({}, 0, Fraction(1))]  # (x exponents, t power, coeff)
        for a, c in enumerate(nu):
            if c == i:
                continue
            new = []
            for (tp, xq, t) in self.qspec.terms(i, c):
                for exps, jt, coeff in terms:
                    e = dict(exps)
                    if xq:
                        e[a] = e.get(a, 0) + xq
                    new.append((e, jt + tp, coeff * t))
            terms = new
        for exps, jt, coeff in terms:
            j = jt + self.weight.level(i)
            ev = [0] * self.n
            for pos, val in exps.items():
                ev[pos] = val
            m = BasisMonomial((), tuple(ev), nu)
            slot = out.setdefault(j, {})
            slot[m] = slot.get(m, 0) + coeff * pref
    cleaned = {}
    for j, slot in out.items():
        red = self.sub.nf({m: c for m, c in slot.items() if c})
        if red:
            cleaned[j] = red
    return cleaned


# ---- strand_poly against them -----------------------------------------


def _as_exps(elt):
    """{exponents: coeff} of a dot-only element on one sequence."""
    return {m.exps: c for m, c in elt.items()}


def _moved_back(poly, pos, to_front):
    """Exponents written with strand pos moved to the front (or the end)
    put back in their places."""
    out = {}
    for e, c in poly.items():
        e = list(e)
        moved = e.pop(0) if to_front else e.pop()
        e.insert(pos, moved)
        out[tuple(e)] = c
    return out


@pytest.mark.parametrize("qspec", QSPECS, ids=QSPEC_IDS)
def test_strand_poly_matches_the_old_expansions_at_every_position(qspec):
    checked = 0
    for level in LEVELS:
        weight = Weight((level,) * qspec.datum.rank)
        for beta in BETAS:
            n = sum(beta)
            for seq in seqs_of(beta):
                for pos in range(n):
                    got = qspec.strand_poly(level, seq, pos)
                    i, rest = seq[pos], seq[:pos] + seq[pos + 1:]
                    engine = SimpleNamespace(n=n, qspec=qspec)
                    last = _as_exps(_last_strand_relation(engine, weight,
                                                          rest, i))
                    assert got == _moved_back(last, pos, to_front=False)
                    bim = SimpleNamespace(i=i, N=n, weight=weight,
                                          qspec=qspec)
                    first = _as_exps(qp_poly(bim, rest))
                    assert got == _moved_back(first, pos, to_front=True)
                    assert all(got.values())
                    checked += 1
    assert checked == len(LEVELS) * 17


@pytest.mark.parametrize("qspec", QSPECS, ids=QSPEC_IDS)
def test_bimodule_polynomials_match_the_old_expansions(qspec):
    # nf is the identity here, so _tpoly_f gives the raw expansion
    for level in LEVELS:
        weight = Weight((level,) * qspec.datum.rank)
        for beta in BETAS:
            n = sum(beta)
            for i in range(qspec.datum.rank):
                bim = SimpleNamespace(
                    i=i, beta=beta, n=n, N=n + 1, weight=weight, qspec=qspec,
                    gamma_inverse=lambda: Fraction(3),
                    sub=SimpleNamespace(nf=dict))
                assert Bimodules.pq_poly(bim) == pq_poly(bim)
                assert Bimodules._tpoly_f(bim) == _tpoly_f(bim)
                for nu in seqs_of(beta):
                    assert Bimodules.qp_poly(bim, nu) == qp_poly(bim, nu)


def test_strand_poly_coefficients_are_exact():
    assert QSpec.standard(A2).strand_poly(1, (0, 1, 0), 2) == {
        (0, 1, 1): 1, (0, 0, 2): 1,
    }
    half = A2_HALF.strand_poly(0, (0, 1), 1)
    assert half == {(1, 0): 1, (0, 1): Fraction(1, 2)}
    assert all(type(c) is int
               for c in QSpec.standard(B2).strand_poly(2, (1, 0, 0), 0).values())


@pytest.mark.parametrize("datum,table,want", [
    # Q_12(u, v) = u + 2v on A2, Q_sl(u, v) = u^2 + 3v on B2
    (A2, {(1, 0): 1, (0, 1): 2}, ((0, 1, 2), (1, 0, 1))),
    (B2, {(2, 0): 1, (0, 1): 3}, ((0, 1, 3), (2, 0, 1))),
], ids=["A2", "B2"])
def test_terms_and_unit_coeff_read_both_orientations(datum, table, want):
    # a table not symmetric in u and v: Q_21(u, v) = Q_12(v, u) lists the
    # sorted terms of Q_12 with the exponents swapped, in the same order
    qs = QSpec(datum, {(0, 1): table})
    assert qs.terms(0, 1) == want
    assert qs.terms(1, 0) == tuple((q, p, c) for p, q, c in want)
    assert qs.terms(0, 0) == qs.terms(1, 1) == ()
    # the coefficient of u^{-a_ij} in Q_ij, once from each side
    assert qs.unit_coeff(0, 1) == table[(-datum.a(0, 1), 0)]
    assert qs.unit_coeff(1, 0) == table[(0, -datum.a(1, 0))]
    assert (qs.unit_coeff(0, 1), qs.unit_coeff(1, 0)) != (1, 1)
    with pytest.raises(ValueError, match="Q_ii is zero"):
        qs.unit_coeff(1, 1)
