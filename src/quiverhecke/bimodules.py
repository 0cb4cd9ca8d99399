"""Induction and restriction bimodules over a cyclotomic quotient.

The three left modules built here live inside the strand algebra on one
extra strand: column spaces R(beta+alpha_i)e(...) modulo a one-sided
denominator span.  K0 uses the columns ending in the added color i and
the denominator generated through the first-strands embedding; K1 uses
the columns starting with i and the shifted embedding; F is K0 modulo
the full cyclotomic ideal, hence finite.

Each is a `tensors.TruncationModule` over an IdealSpace: the
denominators of K0 and K1 are restricted chain families, and that such a
family spans the intended one-sided ideal follows from the coset
decomposition of the embedded subalgebra, which the test suite checks
bilinearly on small cases.  On one strand both families are empty, and
K0 and K1 are free column spaces.  Each dead idempotent e(nu) of
R^Lambda(beta) is recorded on their spaces as (nu, i) and (i, nu): every
block of K0 on e(nu, i), and of K1 on e(i, nu), lies in its denominator
and is never eliminated (proof in `Bimodules`).  F is the corner
R^Lambda(beta+alpha_i) e(beta, i), a `CycAlgebra.module` built in its
nonzero degrees only.

On top of the modules sit the comparison maps P, pi, Q and the phi
endomorphism coefficients computed two independent ways (a linear solve
against the direct-sum decomposition of e(beta, i)K0, and a monic
polynomial division).
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import CartanDatum, Weight, seqs_of
from .cyclotomic import CycAlgebra, IdealSpace, free_space, unit_in_ideal
from .klr import BasisMonomial, left_seq, min_tau_degree
from .linalg import coords_in_span
from .qpolys import QSpec, poly_product
from .tensors import TruncationModule

__all__ = [
    "Bimodules",
    "emb_first",
    "emb_last",
    "first_strand_chains",
    "shifted_strand_chains",
]


def emb_last(m: BasisMonomial, color: int) -> BasisMonomial:
    """Embed a monomial by adding an untouched strand of `color` on the
    right; crossings and exponents keep their positions."""
    return BasisMonomial(m.word, m.exps + (0,), m.seq + (color,))


def emb_first(m: BasisMonomial, color: int) -> BasisMonomial:
    """Embed by adding an untouched strand of `color` on the left; all
    positions shift up by one."""
    return BasisMonomial(
        tuple(k + 1 for k in m.word), (0,) + m.exps, (color,) + m.seq
    )


def emb_elt_last(E: dict, color: int) -> dict:
    return {emb_last(m, color): c for m, c in E.items()}


def emb_elt_first(E: dict, color: int) -> dict:
    return {emb_first(m, color): c for m, c in E.items()}


def first_strand_chains(N: int):
    """Denominator family for K0: x at position 0, chain words
    tau_0...tau_{a-1} for a < N - 1 (the longest chain is omitted)."""
    return tuple((0, tuple(range(a))) for a in range(N - 1))


def shifted_strand_chains(N: int):
    """Denominator family for K1: x at position 1, chain words
    tau_1...tau_a for a < N - 1."""
    return tuple((1, tuple(range(1, a + 1))) for a in range(N - 1))


class Bimodules:
    """The modules K0, K1, F for one (weight, beta, i) and their maps.

    Raw map methods return ambient strand algebra elements; callers
    normalize with the target module's nf.

    The dead idempotents of R^Lambda(beta) are carried into K0 and K1.
    `first_strand_chains(n + 1)` is `full_ideal_chains(n)` pushed through
    the right strand embedding iota, which adds the strand i on the
    right, so K0's denominator is the left ideal L = R(beta + alpha_i)
    iota(I_beta), I_beta being the cyclotomic ideal of R(beta).  When
    `unit_in_ideal` puts e(nu) in I_beta, e(nu, i) = iota(e(nu)) lies in
    L, and as L is a left ideal so does every block with right sequence
    (nu, i): its echelon form is the identity, its basis is empty and its
    normal forms are zero, which is what building it gives.  So
    construction records (nu, i) as certified on K0's space, which then
    builds no rows for those blocks.  K1 is the same through the left
    embedding, which adds i on the left: `shifted_strand_chains(n + 1)`
    is `full_ideal_chains(n)` shifted up one strand, and (i, nu) is
    recorded on K1's space.

    The dot bounds of R^Lambda(beta) are carried over the same way.
    When every bound N_k = sub.table[k][nu_k] is at least 1, x_k^N_k e(nu)
    lies in I_beta (`nilpotency_table`), so x_k^N_k e(nu, i) =
    iota(x_k^N_k e(nu)) lies in L, and K0's space prunes the columns on
    (nu, i) with a_k >= N_k at positions k = 0..n-1 (`IdealSpace.block`);
    the added strand n has no bound.  Through the left embedding
    x_{k+1}^N_k e(i, nu) lies in K1's denominator, and K1's space prunes
    on (i, nu) at positions 1..n.  A zero bound hands over nothing.
    """

    def __init__(self, datum: CartanDatum, weight: Weight, beta, i: int,
                 qspec: QSpec = None):
        self.datum = datum
        self.weight = weight
        self.beta = tuple(beta)
        self.i = i
        bh = list(self.beta)
        bh[i] += 1
        self.beta_hat = tuple(bh)
        self.n = sum(self.beta)
        self.N = self.n + 1
        hat = CycAlgebra(datum, weight, self.beta_hat, qspec)
        self.sub = CycAlgebra(datum, weight, self.beta, qspec)
        self.qspec = hat.qspec
        self.engine = hat.engine
        self.sub_engine = self.sub.engine
        # up to the quotient bound plus one extra polynomial step
        pad = 2 * max(datum.form(j, j) for j in range(datum.rank))
        self.window = (min_tau_degree(datum, self.beta_hat),
                       hat.dmax_bound + pad)
        seqs = seqs_of(self.beta)
        rows = seqs_of(self.beta_hat)
        cols0 = [s + (i,) for s in seqs]
        cols1 = [(i,) + s for s in seqs]
        self.K0 = TruncationModule(IdealSpace(
            self.engine, weight, self.beta_hat, first_strand_chains(self.N)),
            rows, cols0)
        self.K1 = TruncationModule(IdealSpace(
            self.engine, weight, self.beta_hat, shifted_strand_chains(self.N)),
            rows, cols1)
        self.F = hat.module(rows, cols0)
        # e(nu) in the ideal of R(beta) puts the K0 columns on (nu, i) and
        # the K1 columns on (i, nu) in their denominators, and so does a
        # dot at its bound (class docstring)
        table = self.sub.table
        for nu in seqs:
            if unit_in_ideal(datum, weight, nu, qspec):
                self.K0.space.certified.add(nu + (i,))
                self.K1.space.certified.add((i,) + nu)
            row = [r[c] for r, c in zip(table, nu)]
            if all(row):
                self.K0.space.bounds[nu + (i,)] = tuple(enumerate(row))
                self.K1.space.bounds[(i,) + nu] = tuple(
                    enumerate(row, start=1))
        # the free R(beta) e(nu), nu ending in i, for phi_by_chase
        self.ends_in_i = TruncationModule(
            free_space(datum, self.beta, self.qspec), seqs,
            [nu for nu in seqs if nu[-1:] == (i,)])
        self._g_cache = {}
        self._tpolys = None

    # ---- degree shifts ----------------------------------------------

    @property
    def shift_P(self) -> int:
        """(alpha_i | 2 Lambda - beta)."""
        unit = tuple(1 if j == self.i else 0 for j in range(self.datum.rank))
        return 2 * self.weight.pair_beta(self.datum, unit) - self.datum.form_beta(
            unit, self.beta
        )

    @property
    def level_pairing(self) -> int:
        """<h_i, Lambda - beta>."""
        return self.weight.level_minus(self.datum, self.i, self.beta)

    # ---- raw maps ---------------------------------------------------

    def apply_P(self, E: dict) -> dict:
        """Right multiplication by x_0^level tau_0 ... tau_{n-1}; sends
        K1 columns to K0 columns."""
        eng = self.engine
        E = eng.right_mult_x(E, 0, self.weight.level(self.i))
        return eng.right_mult_word(E, tuple(range(self.n)))

    def apply_Q(self, E: dict) -> dict:
        """Right multiplication by g_{n-1} ... g_0; sends K0 columns to
        K1 columns."""
        eng = self.engine
        for a in range(self.n - 1, -1, -1):
            g = self._g_cache.get(a)
            if g is None:
                g = eng.intertwiner_g_all(a, seqs_of(self.beta_hat))
                self._g_cache[a] = g
            E = eng.multiply(E, g)
        return E

    # ---- composite multipliers --------------------------------------

    def qp_poly(self, nu) -> dict:
        """The polynomial x_0^level * prod over positions a with
        nu_a != i of Q_{i, nu_a}(x_0, x_{a+1}), cut to e(i, nu); right
        multiplication by it equals Q after P on that column."""
        seq = (self.i,) + tuple(nu)
        poly = self.qspec.strand_poly(self.weight.level(self.i), seq, 0)
        return {BasisMonomial((), e, seq): c for e, c in poly.items()}

    def pq_poly(self) -> dict:
        """Sum over nu of x_n^level * prod over a with nu_a != i of
        Q_{nu_a, i}(x_a, x_n), cut to e(nu, i); right multiplication by
        it equals P after Q on K0."""
        out = {}
        for nu in seqs_of(self.beta):
            seq = tuple(nu) + (self.i,)
            poly = self.qspec.strand_poly(self.weight.level(self.i), seq,
                                          self.n)
            out.update((BasisMonomial((), e, seq), c) for e, c in poly.items())
        return out

    # ---- phi machinery ----------------------------------------------

    def gamma_inverse(self) -> Fraction:
        """The unit gamma^-1 = (-1)^p * product over other colors of the
        extreme Q coefficient, p the multiplicity of i in beta."""
        p = self.beta[self.i]
        val = Fraction(-1) ** p
        for j, k in enumerate(self.beta):
            if j == self.i or not k:
                continue
            val *= self.qspec.unit_coeff(self.i, j) ** k
        return val

    def u_element(self, k: int) -> dict:
        """tau_{n-1}...tau_0 x_0^k e(i, beta) pushed through P: the
        element whose decomposition coefficients define phi_k."""
        eng = self.engine
        total = {}
        word = tuple(range(self.n - 1, -1, -1))
        for nu in seqs_of(self.beta):
            E = eng.eval_word(word, (self.i,) + nu)
            E = eng.right_mult_x(E, 0, k)
            for m, c in self.apply_P(E).items():
                total[m] = total.get(m, 0) + c
        return {m: c for m, c in total.items() if c}

    def phi_by_chase(self, k: int):
        """Decompose u_k against the direct sum image(tensor part) +
        polynomial part inside e(beta, i)K0.

        Returns (phi, psi, e_psi): phi is {(j, monomial): coeff} over
        t-power j and quotient basis monomials of R^Lambda(beta); psi is
        a list of (a, b, coeff) with a free and b a quotient monomial;
        e_psi is the element sum coeff * nf(a b) of R^Lambda(beta).
        """
        eng = self.engine
        i = self.i
        u = self.K0.nf(self.u_element(k))
        if not u:
            # an empty element decomposes with all coefficients zero
            return {}, [], {}
        degs = {eng.monomial_degree(m) for m in u}
        if len(degs) > 1:
            raise AssertionError("inhomogeneous decomposition target")
        D = degs.pop()
        d_ii = self.datum.form(i, i)
        qbasis = self.sub.basis()
        gens = []
        tags = []
        # polynomial family: emb(q) x_last^j
        for (q, dq) in qbasis:
            rem = D - dq
            if rem < 0 or rem % d_ii:
                continue
            j = rem // d_ii
            m = emb_last(q, i)
            exps = list(m.exps)
            exps[self.N - 1] += j
            gens.append(self.K0.nf(
                {BasisMonomial(m.word, tuple(exps), m.seq): 1}))
            tags.append(("t", j, q))
        # tensor family: emb(a) tau_{n-1} emb(b), crossing on two i strands
        for (b, db) in qbasis:
            left = left_seq(b)
            if not left or left[-1] != i:
                continue
            da = D - db + d_ii
            for a in self.ends_in_i.basis(da):
                E = eng.right_mult_tau({emb_last(a, i): 1}, self.n - 1)
                E = eng.multiply(E, {emb_last(b, i): 1})
                gens.append(self.K0.nf(E))
                tags.append(("F", a, b))
        coords, = coords_in_span(gens, [u], keyfunc=BasisMonomial.sort_key)
        if coords is None:
            raise AssertionError("decomposition families failed to span u_k")
        phi = {}
        psi = []
        for idx, c in coords.items():
            tag = tags[idx]
            if tag[0] == "t":
                phi[(tag[1], tag[2])] = phi.get((tag[1], tag[2]), 0) + c
            else:
                psi.append((tag[1], tag[2], c))
        phi = {key: c for key, c in phi.items() if c}
        e_psi = {}
        for (a, b, c) in psi:
            prod = self.sub_engine.multiply({a: 1}, {b: 1})
            for m, cc in self.sub.nf(prod).items():
                e_psi[m] = e_psi.get(m, 0) + c * cc
        e_psi = {m: c for m, c in e_psi.items() if c}
        return phi, psi, e_psi

    # -- the division route -------------------------------------------

    def _tpoly_f(self):
        """F = gamma (-1)^p t^level prod Q_{i, nu_a}(t, x_a) summed over
        nu, as {t power: element of R^Lambda(beta)}; monic of degree
        <h_i, lambda> + 2p."""
        i = self.i
        pref = Fraction(-1) ** self.beta[i] / self.gamma_inverse()
        # t is the added first strand: its exponent is the t power
        return _t_slots(self.sub, (
            (nu, self.qspec.strand_poly(self.weight.level(i), (i,) + nu, 0))
            for nu in seqs_of(self.beta)), pref)

    def _tpoly_s(self):
        """S = sum over nu of prod over a with nu_a = i of (t - x_a)^2
        e(nu): the monic central annihilator denominator."""
        # t first, then x_a at a + 1: (t - x_a)^2 = t^2 - 2 t x_a + x_a^2
        return _t_slots(self.sub, (
            (nu, poly_product([0] * (self.n + 1), (
                [({0: 2}, 1), ({0: 1, a + 1: 1}, -2), ({a + 1: 2}, 1)]
                for a, c in enumerate(nu) if c == self.i)))
            for nu in seqs_of(self.beta)), Fraction(1))

    def phi_by_division(self, k: int):
        """phi_k as gamma^-1 times the quotient of t^k F by the monic S,
        flattened to {(t power, monomial): coeff}.

        F and S do not depend on k, so they are computed on the first
        call and kept; the division copies each slot of F it changes and
        only reads S."""
        if self._tpolys is None:
            self._tpolys = (self._tpoly_f(), self._tpoly_s())
        F, S = self._tpolys
        sdeg = 2 * self.beta[self.i]
        num = {j + k: dict(slot) for j, slot in F.items()}
        quo = {}
        while num:
            top = max(num)
            if top < sdeg:
                break
            lead = num.pop(top)
            jq = top - sdeg
            slot = quo.setdefault(jq, {})
            for m, c in lead.items():
                slot[m] = slot.get(m, 0) + c
            for js, selt in S.items():
                if js == sdeg:
                    # S is monic: the top coefficient is the identity
                    continue
                prod = {}
                for ms, cs in selt.items():
                    for m, c in self.sub.nf(
                        self.sub_engine.multiply({ms: cs}, lead)
                    ).items():
                        prod[m] = prod.get(m, 0) + c
                if not prod:
                    continue
                tgt = num.setdefault(jq + js, {})
                for m, c in prod.items():
                    v = tgt.get(m, 0) - c
                    if v:
                        tgt[m] = v
                    else:
                        tgt.pop(m, None)
                if not tgt:
                    num.pop(jq + js, None)
            num = {j: s for j, s in num.items() if s}
        ginv = self.gamma_inverse()
        flat = {}
        for j, slot in quo.items():
            for m, c in slot.items():
                val = c * ginv
                if val:
                    flat[(j, m)] = val
        return flat


def _t_slots(sub: CycAlgebra, polys, scale=1) -> dict:
    """Polynomials in t over R^Lambda(beta), given as (nu, {(t power, dot
    exponents...): coeff}) pairs, as {t power: element of sub} with each
    slot scaled by `scale` and reduced, and zero slots dropped."""
    out = {}
    for nu, poly in polys:
        for e, c in poly.items():
            m = BasisMonomial((), e[1:], nu)
            slot = out.setdefault(e[0], {})
            slot[m] = slot.get(m, 0) + c * scale
    cleaned = {}
    for j, slot in out.items():
        red = sub.nf({m: c for m, c in slot.items() if c})
        if red:
            cleaned[j] = red
    return cleaned
