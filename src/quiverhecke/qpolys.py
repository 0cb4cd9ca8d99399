"""Coefficient polynomials Q_ij(u, v) governing the quadratic and braid
relations between crossings of differently colored strands.

Each unordered pair {i, j} of distinct labels carries a two-variable
polynomial Q_ij with Q_ij(u, v) = Q_ji(v, u) and Q_ii = 0.  Terms are
constrained in degree: assigning u degree (alpha_i | alpha_i) and v
degree (alpha_j | alpha_j), every term of Q_ij is homogeneous of degree
-2 (alpha_i | alpha_j), and the two extreme coefficients (of u^{-a_ij}
and of v^{-a_ji}) must be nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cartan import CartanDatum

__all__ = ["QSpec", "poly_product"]


def poly_product(base, factors) -> dict:
    """x^base times the product of `factors`, as {exponent tuple: coeff}.
    Each factor is a list of (shift, coeff) terms, a shift {position:
    exponent} standing for a monomial; zero coefficients are dropped."""
    poly = {tuple(base): 1}
    for factor in factors:
        nxt = {}
        for e, c in poly.items():
            for shift, t in factor:
                e2 = list(e)
                for pos, k in shift.items():
                    e2[pos] += k
                e2 = tuple(e2)
                nxt[e2] = nxt.get(e2, 0) + c * t
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class QSpec:
    """Immutable table of Q_ij coefficients over a fixed Cartan datum."""

    __slots__ = ("datum", "_table", "_key", "_terms")

    def __init__(self, datum: CartanDatum, table):
        """`table` maps ordered pairs (i, j) with i < j to a dict
        {(p, q): Fraction} of coefficients of u^p v^q in Q_ij.  An
        integral coefficient is stored as an int, so that with an
        integral table every coefficient the rewriting engine makes is
        an int; the others stay Fractions.  `terms` of every ordered pair
        is built here, so that the engine reads either orientation with
        one lookup."""
        self.datum = datum
        clean = {}
        self._terms = {}
        n = datum.rank
        for i in range(n):
            for j in range(i + 1, n):
                raw = table.get((i, j), {})
                terms = {
                    (int(p), int(q)): _exact(c)
                    for (p, q), c in raw.items()
                    if c
                }
                self._validate_pair(i, j, terms)
                clean[(i, j)] = terms
                ordered = sorted(terms.items())
                self._terms[(i, j)] = tuple((p, q, c) for (p, q), c in ordered)
                self._terms[(j, i)] = tuple((q, p, c) for (p, q), c in ordered)
        self._table = clean
        self._key = tuple(
            (i, j, tuple(sorted(terms.items())))
            for (i, j), terms in sorted(clean.items())
        )

    def _validate_pair(self, i, j, terms):
        d = self.datum
        pmax = -d.a(i, j)
        qmax = -d.a(j, i)
        if not terms.get((pmax, 0)):
            raise ValueError(
                f"Q[{d.labels[i]},{d.labels[j]}] needs a nonzero u^{pmax} term"
            )
        if not terms.get((0, qmax)):
            raise ValueError(
                f"Q[{d.labels[i]},{d.labels[j]}] needs a nonzero v^{qmax} term"
            )
        want = -2 * d.form(i, j)
        for (p, q) in terms:
            if p < 0 or q < 0:
                raise ValueError("negative exponent in Q coefficient table")
            if d.form(i, i) * p + d.form(j, j) * q != want:
                raise ValueError(
                    f"inhomogeneous term u^{p} v^{q} in "
                    f"Q[{d.labels[i]},{d.labels[j]}]"
                )

    @classmethod
    @cache
    def standard(cls, datum: CartanDatum) -> "QSpec":
        """Q_ij(u, v) = u^{-a_ij} + v^{-a_ji} for all i != j, built once
        per datum.  `klr.get_engine` turns an absent table into this one;
        everything above the engine reads the table off its engine."""
        table = {}
        for i in range(datum.rank):
            for j in range(i + 1, datum.rank):
                terms = {}
                terms[(-datum.a(i, j), 0)] = 1
                q = (0, -datum.a(j, i))
                terms[q] = terms.get(q, 0) + 1
                table[(i, j)] = terms
        return cls(datum, table)

    def terms(self, i: int, j: int):
        """Q_ij(u, v) as a tuple of (p, q, coeff); empty when i == j.
        For i > j these are the sorted terms of Q_ji with u and v
        swapped, in that order."""
        return self._terms.get((i, j), ())

    def strand_poly(self, level: int, seq, pos: int) -> dict:
        """x_pos^level * prod over b with seq_b != seq_pos of
        Q_{seq_pos, seq_b}(x_pos, x_b), as {exponent tuple: coeff}: the
        last-strand relation of the quotient, and what the bimodule maps
        P and Q compose to on an added strand."""
        i = seq[pos]
        base = [0] * len(seq)
        base[pos] = level
        return poly_product(base, (
            [({pos: p, b: q}, t) for (p, q, t) in self.terms(i, j)]
            for b, j in enumerate(seq) if j != i))

    def unit_coeff(self, i: int, j: int):
        """The coefficient of u^{-a_ij} in Q_ij (a unit by construction)."""
        if i == j:
            raise ValueError("Q_ii is zero")
        top = -self.datum.a(i, j)
        return next(c for p, q, c in self._terms[(i, j)] if (p, q) == (top, 0))

    def __eq__(self, other):
        if not isinstance(other, QSpec):
            return NotImplemented
        return self.datum == other.datum and self._key == other._key

    def __hash__(self):
        return hash((self.datum, self._key))

    def describe(self) -> dict:
        """Label-keyed JSON-friendly dump, used by cache keys and reports."""
        out = {}
        labels = self.datum.labels
        for (i, j), terms in sorted(self._table.items()):
            out[f"{labels[i]},{labels[j]}"] = [
                [p, q, c.numerator, c.denominator]
                for (p, q), c in sorted(terms.items())
            ]
        return out
