"""`KLR.right_mult_tau` and `KLR.multiply` as they were before they built
monomials with `tuple.__new__` and accumulated terms inline, kept
verbatim as the reference for the differential test.  `OldKLR` runs
them on an engine of its own, so every rewrite it memoizes, braid
corrections included, goes through the old kernels."""

from quiverhecke.klr import KLR, BasisMonomial, left_seq


def _swap(t, k):
    return t[:k] + (t[k + 1], t[k]) + t[k + 2 :]


def _add(acc, m, c):
    v = acc.get(m)
    v = c if v is None else v + c
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


class OldKLR(KLR):
    def right_mult_tau(self, E: dict, k: int) -> dict:
        """E * tau_k in basis form."""
        out = {}
        for m, c in E.items():
            sk_seq = _swap(m.seq, k)
            sk_exps = _swap(m.exps, k)
            for m2, c2 in self.tau_tau_e(m.word, k, sk_seq).items():
                bumped = tuple(a + b for a, b in zip(m2.exps, sk_exps))
                _add(out, BasisMonomial(m2.word, bumped, m2.seq), c * c2)
            if m.seq[k] == m.seq[k + 1]:
                # x^a tau_k = tau_k x^{s_k a} + d_k(x^a) on equal colors,
                # with d_k f = (s_k f - f)/(x_k - x_{k+1}).
                p, q = m.exps[k], m.exps[k + 1]
                lo, hi, sc = (q, p, -c) if p > q else (p, q, c)
                for t in range(hi - lo):
                    b = list(m.exps)
                    b[k] = lo + t
                    b[k + 1] = hi - 1 - t
                    _add(out, BasisMonomial(m.word, tuple(b), m.seq), sc)
        return out

    def multiply(self, A: dict, B: dict) -> dict:
        out = {}
        for m2, c2 in B.items():
            lam = left_seq(m2)
            E = {m1: c1 for m1, c1 in A.items() if m1.seq == lam}
            if not E:
                continue
            for k in m2.word:
                E = self.right_mult_tau(E, k)
            for m, c in E.items():
                bumped = tuple(a + b for a, b in zip(m.exps, m2.exps))
                _add(out, BasisMonomial(m.word, bumped, m.seq), c * c2)
        return out
