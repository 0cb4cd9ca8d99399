"""Exact linear algebra over the rationals and over Laurent series fields.

`SubspaceBasis` keeps an incrementally built reduced row echelon basis
of a span of sparse Fraction vectors.  Vectors are dicts keyed by any
hashable column labels; a key function fixes the column order, and with
it the echelon form (hence normal forms of vectors modulo the span) is
canonical, independent of insertion order.

`RankModP` keeps a row echelon form modulo the prime P = 2^61 - 1 of
sparse integer vectors over a fixed, ordered list of columns.  It only
ever certifies: `span_basis` uses it to prove that integer rows span
their whole space (rank mod P equal to the column count bounds the rank
over Q from below), and hands every other span to `SubspaceBasis`.

`laurent_rank` computes the rank of a matrix of integer Laurent
polynomials over the fraction field, by fraction-free elimination with
exact polynomial division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

__all__ = ["P", "RankModP", "SubspaceBasis", "laurent_rank", "span_basis"]

P = 2**61 - 1


class SubspaceBasis:
    """Row space in reduced echelon form, with optional tracking of each
    row as a combination of the inserted generators."""

    def __init__(self, keyfunc=None, track=False):
        self.keyfunc = keyfunc if keyfunc is not None else (lambda c: c)
        self.track = track
        self.rows = []
        self.row_pivots = []
        self.pivots = {}
        self.exprs = []
        self.ngens = 0

    @classmethod
    def identity(cls, cols, keyfunc=None) -> "SubspaceBasis":
        """The basis of the whole space on `cols`: one unit row per
        column, which is the reduced echelon form of any full-rank span."""
        sb = cls(keyfunc)
        sb.rows = [{c: Fraction(1)} for c in cols]
        sb.row_pivots = list(cols)
        sb.pivots = {c: r for r, c in enumerate(cols)}
        return sb

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """vec minus its projection; returns (residual, usage) where usage
        maps row index -> coefficient with vec = sum usage*rows + residual."""
        res = {c: Fraction(v) for c, v in vec.items() if v}
        usage = {}
        # One pass suffices: each basis row contains no pivot column of
        # any other row, so eliminating a pivot never reintroduces one.
        for col in list(res):
            r = self.pivots.get(col)
            if r is None:
                continue
            coef = res.get(col)
            if not coef:
                continue
            usage[r] = usage.get(r, 0) + coef
            for c2, v2 in self.rows[r].items():
                v = res.get(c2, 0) - coef * v2
                if v:
                    res[c2] = v
                else:
                    res.pop(c2, None)
        return res, usage

    def add(self, vec) -> bool:
        """Insert a generator; returns True when the rank grew."""
        gen_idx = self.ngens
        self.ngens += 1
        res, usage = self._reduce(vec)
        if self.track:
            expr = {gen_idx: Fraction(1)}
            for r, coef in usage.items():
                for g, a in self.exprs[r].items():
                    v = expr.get(g, 0) - coef * a
                    if v:
                        expr[g] = v
                    else:
                        expr.pop(g, None)
            # Now res = sum expr[g] * gen_g.
        if not res:
            return False
        pivot = min(res, key=self.keyfunc)
        inv = Fraction(1) / res[pivot]
        row = {c: v * inv for c, v in res.items()}
        if self.track:
            expr = {g: a * inv for g, a in expr.items()}
        # Back-substitute the new pivot out of existing rows.
        for r, other in enumerate(self.rows):
            coef = other.get(pivot)
            if not coef:
                continue
            for c2, v2 in row.items():
                v = other.get(c2, 0) - coef * v2
                if v:
                    other[c2] = v
                else:
                    other.pop(c2, None)
            if self.track:
                oe = self.exprs[r]
                for g, a in expr.items():
                    v = oe.get(g, 0) - coef * a
                    if v:
                        oe[g] = v
                    else:
                        oe.pop(g, None)
        self.rows.append(row)
        self.row_pivots.append(pivot)
        self.pivots[pivot] = len(self.rows) - 1
        if self.track:
            self.exprs.append(expr)
        return True

    def contains(self, vec) -> bool:
        res, _ = self._reduce(vec)
        return not res

    def normal_form(self, vec):
        """Canonical representative of vec modulo the span (supported on
        non-pivot columns)."""
        res, _ = self._reduce(vec)
        return res

    def coords_in_gens(self, vec):
        """Some expression of vec as a combination of inserted generators,
        or None when vec is outside the span.  Requires track=True."""
        if not self.track:
            raise ValueError("basis built without generator tracking")
        res, usage = self._reduce(vec)
        if res:
            return None
        out = {}
        for r, coef in usage.items():
            for g, a in self.exprs[r].items():
                v = out.get(g, 0) + coef * a
                if v:
                    out[g] = v
                else:
                    out.pop(g, None)
        return out

    def pivot_columns(self):
        return set(self.pivots)


class RankModP:
    """Row echelon form modulo P of sparse integer vectors over `cols`.

    Columns are ranked by their position in `cols`, and each stored row
    has its least column as its pivot, with pivot entry 1 left implicit.
    Rows are not back-substituted: the rank is all this form is for."""

    def __init__(self, cols):
        self.index = {c: k for k, c in enumerate(cols)}
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert an integer vector; returns True when the rank grew."""
        index = self.index
        rows = self.rows
        res = {}
        for c, v in vec.items():
            v %= P
            if v:
                res[index[c]] = v
        while res:
            k = min(res)
            v = res.pop(k)
            row = rows.get(k)
            if row is None:
                inv = pow(v, -1, P)
                rows[k] = {c: x * inv % P for c, x in res.items()}
                return True
            # Each stored row has only columns above its pivot k, so the
            # least column of res keeps growing.
            for c, x in row.items():
                y = (res.get(c, 0) - v * x) % P
                if y:
                    res[c] = y
                else:
                    res.pop(c, None)
        return False


def span_basis(rows, cols, keyfunc=None) -> SubspaceBasis:
    """Reduced echelon basis of the span of `rows` inside the space on
    `cols`, pulling rows from the iterable only while they can matter.

    Integer rows go to a `RankModP` first.  Once their rank mod P reaches
    len(cols), no further row is pulled and the identity basis is
    returned: a nonzero minor mod P is a nonzero integer, so the rank
    over Q is full too.  Otherwise (the rows run out short of full rank
    mod P, or a row has a non-int entry) the rows already pulled, then
    the rest, go through `SubspaceBasis`, which stops once the exact
    rank is full; nothing but full rank is ever read off P.
    """
    full = len(cols)
    if not full:
        return SubspaceBasis(keyfunc)
    rows = iter(rows)
    built = []
    screen = RankModP(cols)
    for row in rows:
        built.append(row)
        if any(type(v) is not int for v in row.values()):
            break
        screen.add(row)
        if screen.rank == full:
            return SubspaceBasis.identity(cols, keyfunc)
    sb = SubspaceBasis(keyfunc)
    for row in chain(built, rows):
        sb.add(row)
        if sb.rank == full:
            break
    return sb


def laurent_rank(rows) -> int:
    """Rank over Q(q) of a matrix of LaurentPoly entries, by fraction-free
    Bareiss elimination (divisions are exact at every step)."""
    mat = [list(r) for r in rows]
    nr = len(mat)
    if nr == 0:
        return 0
    nc = len(mat[0])
    rank = 0
    prev = None
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                num = p * mat[r][c] - mat[r][col] * mat[rank][c]
                mat[r][c] = num.divexact(prev) if prev is not None else num
            mat[r][col] = type(p)()
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank
