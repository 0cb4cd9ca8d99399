"""Integer Laurent polynomials in one variable q, plus quantum integers.

A Laurent polynomial is stored as a dict {exponent: coefficient} with all
coefficients nonzero (canonical form).  Coefficients are plain ints: every
quantity we track with these (graded dimensions, Shapovalov entries) is
integral.
"""

from __future__ import annotations

__all__ = [
    "LaurentPoly",
    "qint",
]


class LaurentPoly:
    """Element of Z[q, q^-1] in canonical sparse form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    d[int(e)] = int(c)
        self.coeffs = d

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = d.get(e, 0) + c
            if v:
                d[e] = v
            else:
                d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            out = LaurentPoly.__new__(LaurentPoly)
            out.coeffs = {e: c * other for e, c in self.coeffs.items()} if other else {}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = d.get(e, 0) + c1 * c2
                if v:
                    d[e] = v
                else:
                    d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by q^e."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {k + e: c for k, c in self.coeffs.items()}
        return out

    def degree(self) -> int:
        """Largest exponent; error on zero."""
        if not self.coeffs:
            raise ValueError("degree of zero Laurent polynomial")
        return max(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("valuation of zero Laurent polynomial")
        return min(self.coeffs)

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.coeffs.values())

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the division has a remainder."""
        if not other:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self:
            return LaurentPoly.zero()
        # Work from the top exponent down; the quotient of Laurent
        # polynomials is Laurent, so no shifting dance is needed.
        rem = dict(self.coeffs)
        dl = other.degree()
        lc = other.coeffs[dl]
        # An exact quotient has valuation val(self) - val(other); anything
        # below that means the division leaves a remainder.
        vmin = self.valuation() - other.valuation()
        quot = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = e - dl
            if c % lc or qe < vmin:
                raise ValueError("inexact Laurent division")
            qc = c // lc
            quot[qe] = qc
            for e2, c2 in other.coeffs.items():
                k = e2 + qe
                v = rem.get(k, 0) - qc * c2
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return LaurentPoly(quot)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}q")
            else:
                parts.append(f"{c}q^{e}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        """Exponent -> coefficient map with string keys, for JSON reports."""
        return {str(e): self.coeffs[e] for e in sorted(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data.items()})


def qint(n: int, d: int = 1) -> LaurentPoly:
    """Quantum integer [n] in the variable q_i = q^d.

    [n] = (q_i^n - q_i^-n) / (q_i - q_i^-1); [0] = 0, [-n] = -[n].
    """
    if n == 0:
        return LaurentPoly.zero()
    if n < 0:
        return -qint(-n, d)
    return LaurentPoly({d * (n - 1 - 2 * t): 1 for t in range(n)})
