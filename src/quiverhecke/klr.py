"""The quiver Hecke algebra R(n) on n strands and its basis arithmetic.

Elements are finite sums of basis monomials tau_w x^a e(nu): a strand
permutation w (stored as its lexicographically minimal reduced word),
a tuple of polynomial exponents, and a color sequence nu of label
indices.  Products are rewritten into this basis by a recursive engine
whose only real work is multiplying a basis monomial by one crossing
on the right; everything else (general products, intertwiners) reduces
to that.

The rewriting recursion terminates because every correction term that
the quadratic or braid relation produces involves at least two fewer
crossings than the product it came from.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .cartan import CartanDatum
from .perms import (
    apply_word,
    canonical_word,
    move_path,
    word_to_perm,
)
from .qpolys import QSpec

__all__ = [
    "BasisMonomial",
    "KLR",
    "crossing_degree",
    "get_engine",
    "left_seq",
    "min_tau_degree",
]


class BasisMonomial(NamedTuple):
    """tau_w x^exps e(seq); `word` is the canonical reduced word of w."""

    word: tuple
    exps: tuple
    seq: tuple

    def sort_key(self):
        return (self.seq, len(self.word), self.word, self.exps)


def crossing_degree(datum, w, seq) -> int:
    """Degree of tau_w e(seq): minus (alpha_{seq_a} | alpha_{seq_b}) summed
    over the inversions a < b, w(a) > w(b), of the one-line permutation w."""
    form = datum.form
    n = len(w)
    deg = 0
    for a in range(n - 1):
        wa = w[a]
        ca = seq[a]
        for b in range(a + 1, n):
            if wa > w[b]:
                deg -= form(ca, seq[b])
    return deg


def min_tau_degree(datum, beta) -> int:
    """Least crossing degree over all monomials of R(beta); a lower
    bound for every column space of R(beta).

    It is -sum_i C(beta_i, 2) (alpha_i|alpha_i).  Each pair of strands
    adds -(alpha_a|alpha_b) when it crosses, and that is negative only
    for equal colours, since off-diagonal forms are <= 0.  The sequence
    grouped by colour, with each group reversed, crosses exactly the
    equal-colour pairs and so attains the bound."""
    return -sum(k * (k - 1) // 2 * datum.form(i, i)
                for i, k in enumerate(beta))


_left_seqs = {}


def left_seq(m) -> tuple:
    """Left color sequence w . seq of the basis monomial tau_w x^a e(seq).

    It is `apply_word(word, seq)`, a function of (word, seq) alone, so it
    is memoized under that pair for the life of the process: the pairs
    are bounded by (words of S_n) x (sequences) over the strand counts
    used, and the same few recur on every product and normal form."""
    word = m[0]
    if not word:
        return m[2]
    key = (word, m[2])
    hit = _left_seqs.get(key)
    if hit is None:
        hit = _left_seqs[key] = apply_word(word, m[2])
    return hit


def _swap(t, k):
    return t[:k] + (t[k + 1], t[k]) + t[k + 2 :]


def _add(acc, m, c):
    v = acc.get(m)
    v = c if v is None else v + c
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


class KLR:
    """Engine for R(n) over a fixed Cartan datum and Q coefficient table."""

    def __init__(self, datum: CartanDatum, n: int, qspec: QSpec = None):
        if qspec is None:
            qspec = QSpec.standard(datum)
        if qspec.datum != datum:
            raise ValueError("QSpec built over a different Cartan datum")
        self.datum = datum
        self.n = n
        self.qspec = qspec
        self._zero_exps = (0,) * n
        self._ttmemo = {}
        # crossing degrees of tau_word e(seq) by (word, seq); see `tau_degree`
        self._tau_degrees = {}
        # sorted block columns by (lam, mu, d), filled and read only by
        # `cyclotomic.IdealSpace.block_columns`, and the (canonical word,
        # crossing degree) pairs of a transporter by (src, dst), filled and
        # read only by `cyclotomic.IdealSpace.crossings`
        self.column_memo = {}
        self.crossing_memo = {}

    # ---- generators -------------------------------------------------

    def idempotent(self, seq) -> dict:
        seq = tuple(seq)
        return {BasisMonomial((), self._zero_exps, seq): 1}

    def gen_x(self, m: int, seq) -> dict:
        exps = list(self._zero_exps)
        exps[m] = 1
        return {BasisMonomial((), tuple(exps), tuple(seq)): 1}

    def gen_tau(self, k: int, seq) -> dict:
        return {BasisMonomial((k,), self._zero_exps, tuple(seq)): 1}

    # ---- core rewriting ---------------------------------------------

    def right_mult_tau(self, E: dict, k: int) -> dict:
        """E * tau_k in basis form.

        Each monomial is made by `tuple.__new__(BasisMonomial, ...)`,
        which skips the namedtuple's Python-level constructor and gives a
        value equal to, and hashing like, `BasisMonomial(...)`.  Terms are
        accumulated in the order of the plain loop over E and over each
        `tau_tau_e` product, with `_add`'s rule inlined (a sum of zero
        drops its key), so the dict has the same items in the same
        order."""
        out = {}
        get = out.get
        pop = out.pop
        tte = self.tau_tau_e
        new = tuple.__new__
        k1 = k + 1
        k2 = k + 2
        for m, c in E.items():
            word, exps, seq = m
            sk_seq = seq[:k] + (seq[k1], seq[k]) + seq[k2:]
            sk_exps = exps[:k] + (exps[k1], exps[k]) + exps[k2:]
            for m2, c2 in tte(word, k, sk_seq).items():
                key = new(BasisMonomial,
                          (m2[0], tuple(map(add, m2[1], sk_exps)), m2[2]))
                v = get(key)
                v = c * c2 if v is None else v + c * c2
                if v:
                    out[key] = v
                else:
                    pop(key, None)
            if seq[k] == seq[k1]:
                # x^a tau_k = tau_k x^{s_k a} + d_k(x^a) on equal colors,
                # with d_k f = (s_k f - f)/(x_k - x_{k+1}).
                p, q = exps[k], exps[k1]
                lo, hi, sc = (q, p, -c) if p > q else (p, q, c)
                head = exps[:k]
                tail = exps[k2:]
                for t in range(hi - lo):
                    key = new(BasisMonomial,
                              (word, head + (lo + t, hi - 1 - t) + tail, seq))
                    v = get(key)
                    v = sc if v is None else v + sc
                    if v:
                        out[key] = v
                    else:
                        pop(key, None)
        return out

    def tau_tau_e(self, wword: tuple, k: int, mu: tuple) -> dict:
        """tau_w tau_k e(mu) in basis form; wword is canonical for w.

        A step's correction is the element of its word before minus that
        after, so the corrections along a `move_path` from u to target sum
        to tau_u - tau_target, the same for every path."""
        key = (wword, k, mu)
        hit = self._ttmemo.get(key)
        if hit is not None:
            return hit
        n = self.n
        w = word_to_perm(n, wword)
        if w[k] < w[k + 1]:
            # Ascent: w s_k is longer; rewrite the reduced word wword+(k,)
            # into canonical form, collecting braid-move corrections.
            u = wword + (k,)
            target = canonical_word(w[:k] + (w[k + 1], w[k]) + w[k + 2 :])
            result = {BasisMonomial(target, self._zero_exps, mu): 1}
            if u != target:
                for step in move_path(n, u, target):
                    corr = self._braid_correction(step, mu, tail=())
                    for m2, c2 in corr.items():
                        _add(result, m2, c2)
        else:
            # Descent: tau_w tau_k e(mu) = [tau_w e(s_k mu)] tau_k; rewrite
            # tau_w to end in tau_k, whose square is the Q polynomial.
            v = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
            cv = canonical_word(v)
            sk_mu = _swap(mu, k)
            result = {}
            for (p, q, t) in self.qspec.terms(mu[k], mu[k + 1]):
                e = [0] * n
                e[k] = p
                e[k + 1] = q
                _add(result, BasisMonomial(cv, tuple(e), mu), t)
            for step in move_path(n, wword, cv + (k,)):
                corr = self._braid_correction(step, sk_mu, tail=(k,))
                for m2, c2 in corr.items():
                    _add(result, m2, c2)
        self._ttmemo[key] = result
        return result

    def _braid_correction(self, step, right_seq, tail) -> dict:
        """Correction from one rewrite step against right idempotent e(right_seq).

        Commutation moves are exact.  A braid move replacing tau_{k+1} tau_k
        tau_{k+1} by tau_k tau_{k+1} tau_k (or back) inside L + block + R
        contributes sign * tau_L * Qbar * e(rho) * tau_R with rho the color
        sequence at the block, Qbar the divided Q difference on strands
        k, k+2.  `tail` is appended to R (used to carry a trailing crossing).
        """
        before, pos, kind = step
        if kind != "braid":
            return {}
        a, b = before[pos], before[pos + 1]
        k = min(a, b)
        sign = 1 if a > b else -1
        L = before[:pos]
        R = before[pos + 3 :] + tail
        rho = apply_word(before[pos + 3 :], right_seq)
        if rho[k] != rho[k + 2]:
            return {}
        poly = []
        for (p, q, t) in self.qspec.terms(rho[k], rho[k + 1]):
            for s in range(p):
                e = [0] * self.n
                e[k] = s
                e[k + 1] = q
                e[k + 2] = p - 1 - s
                poly.append((tuple(e), t if sign > 0 else -t))
        out = self.times_poly(self.eval_word(L, rho), poly)
        for letter in R:
            out = self.right_mult_tau(out, letter)
        return out

    def eval_word(self, word, mu) -> dict:
        """tau_word e(mu) in basis form, for an arbitrary reduced word."""
        E = {BasisMonomial((), self._zero_exps, apply_word(word, mu)): 1}
        for k in word:
            E = self.right_mult_tau(E, k)
        return E

    # ---- derived operations -----------------------------------------

    def times_poly(self, E: dict, poly) -> dict:
        """E * (sum of c * x^exps) for poly a list of (exps, coeff)."""
        out = {}
        for m, c in E.items():
            for exps, t in poly:
                bumped = tuple(a + b for a, b in zip(m.exps, exps))
                _add(out, BasisMonomial(m.word, bumped, m.seq), c * t)
        return out

    def right_mult_x(self, E: dict, m_pos: int, power: int) -> dict:
        out = {}
        for m, c in E.items():
            b = list(m.exps)
            b[m_pos] += power
            _add(out, BasisMonomial(m.word, tuple(b), m.seq), c)
        return out

    def right_mult_word(self, E: dict, word) -> dict:
        for k in word:
            E = self.right_mult_tau(E, k)
        return E

    def multiply(self, A: dict, B: dict) -> dict:
        """A * B in basis form: for each term tau_w x^a e(mu) of B, the
        terms of A on its left sequence w . mu, times tau_w letter by
        letter, times x^a.

        As in `right_mult_tau`, monomials come from `tuple.__new__` and
        accumulate in the plain loop's order.  A term of B with no dots
        leaves each product monomial as it is, x^0 being the identity,
        so its bump is skipped: the right factor of every product an
        ideal block forms is such a term, a bare crossing tau_w e(mu)."""
        out = {}
        get = out.get
        pop = out.pop
        rmt = self.right_mult_tau
        new = tuple.__new__
        for m2, c2 in B.items():
            lam = left_seq(m2)
            E = {m1: c1 for m1, c1 in A.items() if m1[2] == lam}
            if not E:
                continue
            for k in m2[0]:
                E = rmt(E, k)
            exps2 = m2[1]
            dotted = any(exps2)
            for m, c in E.items():
                key = (new(BasisMonomial,
                           (m[0], tuple(map(add, m[1], exps2)), m[2]))
                       if dotted else m)
                v = get(key)
                v = c * c2 if v is None else v + c * c2
                if v:
                    out[key] = v
                else:
                    pop(key, None)
        return out

    # ---- degrees ----------------------------------------------------

    def tau_degree(self, word, seq) -> int:
        """Degree of tau_word e(seq), memoized under (word, seq).

        It is `crossing_degree(datum, word_to_perm(n, word), seq)`, which
        depends on the engine's datum and strand count and on (word, seq)
        alone, so a stored value is the one a recomputation gives."""
        key = (word, seq)
        hit = self._tau_degrees.get(key)
        if hit is None:
            hit = self._tau_degrees[key] = crossing_degree(
                self.datum, word_to_perm(self.n, word), seq)
        return hit

    def monomial_degree(self, m: BasisMonomial) -> int:
        d = self.datum
        deg = 0
        for pos, a in enumerate(m.exps):
            if a:
                deg += a * d.form(m.seq[pos], m.seq[pos])
        if m.word:
            deg += self.tau_degree(m.word, m.seq)
        return deg

    def element_degree(self, E: dict):
        """Common degree of a homogeneous element; None for 0, error if mixed."""
        degs = {self.monomial_degree(m) for m in E}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element with degrees {sorted(degs)}")
        return degs.pop()

    # ---- distinguished elements -------------------------------------

    def intertwiner_g(self, a: int, seq) -> dict:
        """The intertwiner g_a e(nu) used to compare crossings with
        polynomial data; quadratic in x on equal colors, a bare crossing
        otherwise."""
        seq = tuple(seq)
        n = self.n
        zero = self._zero_exps

        def mono(word, pairs):
            e = [0] * n
            for pos, v in pairs:
                e[pos] += v
            return BasisMonomial(word, tuple(e), seq)

        if seq[a] == seq[a + 1]:
            out = {}
            _add(out, mono((), [(a + 1, 1)]), 1)
            _add(out, mono((), [(a, 1)]), -1)
            _add(out, mono((a,), [(a, 2)]), -1)
            _add(out, mono((a,), [(a, 1), (a + 1, 1)]), 2)
            _add(out, mono((a,), [(a + 1, 2)]), -1)
            return out
        return {BasisMonomial((a,), zero, seq): 1}

    def intertwiner_g_all(self, a: int, seqs) -> dict:
        out = {}
        for seq in seqs:
            for m, c in self.intertwiner_g(a, seq).items():
                _add(out, m, c)
        return out


_engines = {}


def get_engine(datum: CartanDatum, n: int, qspec: QSpec = None) -> KLR:
    """Shared engines so rewrite memo tables are reused per (datum, n, Q).

    This is where `qspec=None` means the standard table: callers above
    the engine pass their table through, absent or not, and read the
    resolved one off `engine.qspec`."""
    if qspec is None:
        qspec = QSpec.standard(datum)
    key = (datum, n, qspec)
    eng = _engines.get(key)
    if eng is None:
        eng = KLR(datum, n, qspec)
        _engines[key] = eng
    return eng
