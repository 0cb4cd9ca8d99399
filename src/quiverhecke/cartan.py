"""Symmetrizable Cartan data: generalized Cartan matrices, symmetrizers,
the bilinear form on roots, integral weights given by their levels, and
the combinatorics of a root beta: its color sequences and the weighted
compositions of a degree.

Indices `i` throughout are 0-based positions into `labels`; user-facing
label strings only appear at the CLI boundary.

`CartanDatum` and `Weight` are immutable value types built on
`collections.namedtuple`: they construct, print, hash and pickle by
their fields.  Being tuples, they also compare equal to the plain tuple
of their fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

__all__ = ["CartanDatum", "Weight", "build_cartan", "seqs_of",
           "weighted_comps"]


class CartanDatum(namedtuple("CartanDatum", "labels matrix sym")):
    """A generalized Cartan matrix with a chosen minimal symmetrizer.

    `matrix` is the GCM as a tuple of tuples, `sym` the positive integers
    d_i with d_i * a_ij = d_j * a_ji.  The symmetric form on simple roots
    is (alpha_i | alpha_j) = d_i * a_ij.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.labels)

    def a(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    def form(self, i: int, j: int) -> int:
        """(alpha_i | alpha_j)."""
        return self.sym[i] * self.matrix[i][j]

    def form_beta(self, beta_i, beta_j) -> int:
        """(beta | beta') for multiplicity vectors over the labels."""
        total = 0
        for i, ki in enumerate(beta_i):
            if not ki:
                continue
            for j, kj in enumerate(beta_j):
                if kj:
                    total += ki * kj * self.form(i, j)
        return total

    def index_of(self, label) -> int:
        return self.labels.index(label)


class Weight(namedtuple("Weight", "levels")):
    """Integral weight recorded by its levels <h_i, Lambda>."""

    __slots__ = ()

    def level(self, i: int) -> int:
        return self.levels[i]

    def level_minus(self, datum: CartanDatum, i: int, beta) -> int:
        """<h_i, Lambda - beta> = <h_i, Lambda> - sum_j k_j * a_ij."""
        return self.levels[i] - sum(
            k * datum.a(i, j) for j, k in enumerate(beta) if k
        )

    def pair_beta(self, datum: CartanDatum, beta) -> int:
        """(Lambda | beta) = sum_i k_i * d_i * <h_i, Lambda>."""
        return sum(
            k * datum.sym[i] * self.levels[i] for i, k in enumerate(beta) if k
        )

    def coeff_c(self, datum: CartanDatum, beta) -> int:
        """(Lambda | beta) - (beta | beta)/2; the (beta|beta) pairing is even."""
        bb = datum.form_beta(beta, beta)
        if bb % 2:
            raise ValueError("odd (beta|beta), symmetrizer inconsistent")
        return self.pair_beta(datum, beta) - bb // 2


_seqs_memo = {}


def seqs_of(beta):
    """All color sequences with multiplicity vector beta, sorted.

    beta is a tuple of multiplicities per label index; sequences are
    tuples of label indices of length sum(beta).  The answer is a
    tuple, memoized per tuple(beta) and shared by every caller.
    """
    key = tuple(beta)
    hit = _seqs_memo.get(key)
    if hit is not None:
        return hit
    pool = []
    for i, k in enumerate(key):
        pool.extend([i] * k)
    out = set()

    def rec(prefix, remaining):
        if not remaining:
            out.add(tuple(prefix))
            return
        for i in sorted(set(remaining)):
            rest = list(remaining)
            rest.remove(i)
            rec(prefix + [i], rest)

    rec([], pool)
    hit = _seqs_memo[key] = tuple(sorted(out))
    return hit


_comps_memo = {}


def weighted_comps(weights, total):
    """Nonnegative integer tuples e with sum e_k * weights[k] == total, in
    lexicographic order.  The answer is a tuple, memoized per
    (tuple(weights), total) and shared by every caller."""
    key = (tuple(weights), total)
    hit = _comps_memo.get(key)
    if hit is not None:
        return hit
    out = []
    k = len(weights)

    def rec(pos, rem, acc):
        if pos == k:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[pos]
        top = rem // w
        for e in range(top + 1):
            acc.append(e)
            rec(pos + 1, rem - e * w, acc)
            acc.pop()

    if total >= 0:
        rec(0, total, [])
    hit = _comps_memo[key] = tuple(out)
    return hit


def build_cartan(labels, matrix) -> CartanDatum:
    """Validate a GCM and compute its minimal positive integer symmetrizer.

    Raises ValueError when the matrix is not a GCM or not symmetrizable.
    The symmetrizer is found here, in one walk per connected component
    from its least index, and normalized so the d_i in each component
    are coprime positive integers.
    """
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate labels")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("Cartan matrix shape does not match labels")
    mat = tuple(tuple(int(x) for x in row) for row in matrix)
    for i in range(n):
        if mat[i][i] != 2:
            raise ValueError(f"diagonal entry a[{i}][{i}] must be 2")
        for j in range(n):
            if i == j:
                continue
            if mat[i][j] > 0:
                raise ValueError(f"off-diagonal entry a[{i}][{j}] must be <= 0")
            if (mat[i][j] == 0) != (mat[j][i] == 0):
                raise ValueError(f"zero pattern asymmetric at ({i},{j})")

    # Walk each component once from its least index, setting
    # d_j = d_i * a_ij / a_ji on first reach.  Every edge is seen from
    # both ends, so an edge that disagrees with a value already set is
    # where a cyclically non-symmetrizable matrix fails.
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        comp = [root]
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j == i or mat[i][j] == 0:
                    continue
                dj = d[i] * Fraction(mat[i][j], mat[j][i])
                if d[j] is None:
                    d[j] = dj
                    comp.append(j)
                    queue.append(j)
                elif d[j] != dj:
                    raise ValueError("Cartan matrix is not symmetrizable")
        # Scale the component to coprime positive integers.
        scale = lcm(*(d[j].denominator for j in comp))
        ints = [int(d[j] * scale) for j in comp]
        g = gcd(*ints)
        for j, v in zip(comp, ints):
            d[j] = v // g

    datum = CartanDatum(labels=labels, matrix=mat, sym=tuple(d))
    # Final symmetry check of the form itself.
    for i in range(n):
        for j in range(n):
            if datum.form(i, j) != datum.form(j, i):
                raise ValueError("Cartan matrix is not symmetrizable")
    return datum
