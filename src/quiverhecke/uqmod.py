"""The integrable highest weight module V(Lambda) over the quantized
enveloping algebra, computed through monomials f_{nu_1} ... f_{nu_n} v
in the Chevalley lowering operators applied to the highest weight vector.

Everything here is independent of the strand algebras: raising operators
act by the weight-string formula, the contravariant form is evaluated
recursively, and weight space dimensions come from exact ranks of Gram
matrices over Q(q).  This gives dimension predictions that the quotient
construction elsewhere in the package is tested against.  The module
imports none of the strand code (`klr`, `perms`, `tensors`,
`cyclotomic`): the color sequences of a root come from `cartan`, so the
oracle is an independent check, and a warm `compare` loads no engine.

Convention note: in a monomial f_{nu_1} ... f_{nu_n} v the first entry
of nu is the outermost lowering operator.  Matching a length-n sequence
against strand idempotents e(nu) reads the sequence in the opposite
order, so the dimension prediction reverses its sequence arguments.
"""

from __future__ import annotations

from .cartan import CartanDatum, Weight, seqs_of
from .laurent import LaurentPoly, qint

__all__ = ["UqModule"]


class UqModule:
    """V(Lambda) for a fixed Cartan datum and dominant integral weight."""

    def __init__(self, datum: CartanDatum, weight: Weight):
        if len(weight.levels) != datum.rank:
            raise ValueError("weight levels do not match Cartan rank")
        if any(l < 0 for l in weight.levels):
            raise ValueError("weight must be dominant (nonnegative levels)")
        self.datum = datum
        self.weight = weight
        self._gram_memo = {}

    def e_action(self, i: int, seq):
        """e_i applied to f_{seq} v, as {shorter sequence: LaurentPoly}.

        e_i f_{nu_1} ... f_{nu_n} v =
            sum over positions j with nu_j = i of
            [<h_i, Lambda - sum_{k>j} alpha_{nu_k}>]_i  f_{nu minus j} v.
        """
        d = self.datum
        out = {}
        # <h_i, Lambda - (tail after position j)>, accumulated right to left.
        tail = 0
        coeffs = [0] * len(seq)
        for j in range(len(seq) - 1, -1, -1):
            coeffs[j] = self.weight.level(i) - tail
            tail += d.a(i, seq[j])
        for j, letter in enumerate(seq):
            if letter != i:
                continue
            c = qint(coeffs[j], d.sym[i])
            if not c:
                continue
            shorter = seq[:j] + seq[j + 1 :]
            prev = out.get(shorter)
            out[shorter] = c if prev is None else prev + c
        return {s: c for s, c in out.items() if c}

    def gram(self, mu, nu) -> LaurentPoly:
        """Contravariant form (f_mu v, f_nu v) with (v, v) = 1."""
        mu = tuple(mu)
        nu = tuple(nu)
        if len(mu) != len(nu):
            return LaurentPoly.zero()
        if sorted(mu) != sorted(nu):
            return LaurentPoly.zero()
        if not mu:
            return LaurentPoly.one()
        key = (mu, nu)
        hit = self._gram_memo.get(key)
        if hit is not None:
            return hit
        total = LaurentPoly.zero()
        rest = mu[1:]
        for shorter, c in self.e_action(mu[0], nu).items():
            total = total + c * self.gram(rest, shorter)
        self._gram_memo[key] = total
        return total

    def gram_matrix(self, beta):
        """Gram matrix of all f_nu v with content beta, in sorted seq order."""
        seqs = seqs_of(beta)
        return seqs, [[self.gram(m, n) for n in seqs] for m in seqs]

    def weight_dim(self, beta) -> int:
        """dim of the weight space V(Lambda)_{Lambda - beta}."""
        # imported here, so that a warm `compare` loads no linalg
        from .linalg import laurent_rank

        _, mat = self.gram_matrix(beta)
        return laurent_rank(mat)

    def predicted_dim(self, beta, mu, nu) -> LaurentPoly:
        """Predicted graded dimension of the (mu, nu) corner of the
        cyclotomic quotient at beta: q^c (f_{rev mu} v, f_{rev nu} v)
        with c = (Lambda | beta) - (beta | beta)/2."""
        c = self.weight.coeff_c(self.datum, beta)
        g = self.gram(tuple(reversed(mu)), tuple(reversed(nu)))
        return g.shift(c)

    def predicted_total_dim(self, beta) -> LaurentPoly:
        """Predicted graded dimension of the whole cyclotomic quotient."""
        total = LaurentPoly.zero()
        for mu in seqs_of(beta):
            for nu in seqs_of(beta):
                total = total + self.predicted_dim(beta, mu, nu)
        return total
