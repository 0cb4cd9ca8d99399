"""Exact linear algebra over the rationals and over Laurent series fields.

`SubspaceBasis` keeps an incrementally built reduced row echelon basis
of a span of sparse rational vectors, whose entries are ints where they
are integral and Fractions elsewhere.  Vectors are dicts keyed by any
hashable column labels; a key function fixes the column order, and with
it the echelon form (hence normal forms of vectors modulo the span) is
canonical, independent of insertion order.  `coords_in_span` solves
for coordinates over a list of generators with the same echelon form,
by giving each generator a tag column of its own.

`span_basis` eliminates a lazily built family of rows in one
`SubspaceBasis`, and pulls no row once the family spans its whole space.

`laurent_rank` computes the rank of a matrix of integer Laurent
polynomials over the fraction field, by fraction-free elimination with
exact polynomial division.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SubspaceBasis", "coords_in_span", "laurent_rank", "span_basis"]


class SubspaceBasis:
    """Row space in reduced echelon form.  Row r has pivot column c when
    pivots[c] == r, and pivots lists the rows in order.

    Every stored entry and every normal-form value is an int exactly when
    it is integral, and a Fraction otherwise; a Fraction is made only
    where a pivot other than 1 or -1 divides a row.  The answers are
    those of an all-Fraction elimination:
    - The reduced echelon form of a span under a fixed column order is
      unique, whatever the entries' types.
    - An int and a Fraction of equal value compare and hash equal, and
      `+`, `-` and `*` on any mix of them are exact.
    - The one operation that could leave Q is `/` on two ints, and the
      one division here has the Fraction operand `Fraction(1)`.
    So every row, pivot, rank and normal form is the same rational vector
    as with Fraction entries throughout; only the Python type of an
    integral entry differs."""

    def __init__(self, keyfunc=None):
        self.keyfunc = keyfunc if keyfunc is not None else (lambda c: c)
        self.rows = []
        self.pivots = {}

    @classmethod
    def identity(cls, cols, keyfunc=None) -> "SubspaceBasis":
        """The basis of the whole space on `cols`: one unit row per
        column, which is the reduced echelon form of any full-rank span."""
        return cls(keyfunc).add_units(cols)

    def add_units(self, cols) -> "SubspaceBasis":
        """Append the unit row of each column in cols, none of which any
        row may hold, and return self.  The rows stay a reduced echelon
        form: each unit row has its one column as pivot, and that column
        is in no other row."""
        pivots = self.pivots
        rows = self.rows
        for c in cols:
            pivots[c] = len(rows)
            rows.append({c: 1})
        return self

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """vec minus its projection onto the span, with each integral
        entry an int."""
        res = {c: v for c, v in vec.items() if v}
        # One pass suffices: each basis row contains no pivot column of
        # any other row, so eliminating a pivot never reintroduces one.
        for col in list(res):
            r = self.pivots.get(col)
            if r is None:
                continue
            coef = res.get(col)
            if not coef:
                continue
            for c2, v2 in self.rows[r].items():
                v = res.get(c2, 0) - coef * v2
                if v:
                    res[c2] = v
                else:
                    res.pop(c2, None)
        return _integral(res)

    def add(self, vec) -> bool:
        """Insert a generator; returns True when the rank grew."""
        res = self._reduce(vec)
        if not res:
            return False
        pivot = min(res, key=self.keyfunc)
        p = res[pivot]
        if p == 1:
            row = res
        elif p == -1:
            row = {c: -v for c, v in res.items()}
        else:
            inv = Fraction(1) / p
            row = _integral({c: v * inv for c, v in res.items()})
        # Back-substitute the new pivot out of existing rows.
        for other in self.rows:
            coef = other.get(pivot)
            if not coef:
                continue
            for c2, v2 in row.items():
                v = other.get(c2, 0) - coef * v2
                if not v:
                    other.pop(c2, None)
                elif type(v) is int or v.denominator != 1:
                    other[c2] = v
                else:
                    other[c2] = v.numerator
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def normal_form(self, vec):
        """Canonical representative of vec modulo the span (supported on
        non-pivot columns)."""
        return self._reduce(vec)

    def pivot_columns(self):
        return set(self.pivots)


def _integral(vec):
    """vec, in place, with each Fraction entry of denominator 1 replaced
    by its int numerator."""
    for c, v in vec.items():
        if type(v) is not int and v.denominator == 1:
            vec[c] = v.numerator
    return vec


def coords_in_span(gens, targets, keyfunc=None):
    """For each target, {k: c} with target = sum c * gens[k], or None
    when the target is outside the span of gens.

    The coordinates are not unique when gens are dependent; these are
    read off one `SubspaceBasis` of the vectors (gens[k], e_k), with a
    tag column e_k per generator.  The vectors' columns come first, in
    `keyfunc` order, and the tags after them, later generators first.
    - Every vector of that span is (sum t_k gens[k], sum t_k e_k), so the
      tags of each echelon row write its vector part as a combination of
      generators.
    - A generator that adds no rank to the vector columns reduces to a
      row whose least column is its own tag, since the rows it was
      reduced by carry only the tags of earlier generators.  No other row
      ever holds that tag, so no reduction uses this row, and the rows
      with vector pivots are those of the vector columns alone.
    - Reducing (target, 0) by those rows leaves its residual on the
      vector columns and minus its coordinates on the tags.
    So the coordinates are, one for one, those that keeping each echelon
    row's expression in the generators gives, and a generator that adds
    no rank gets none.
    """
    key = keyfunc if keyfunc is not None else (lambda c: c)
    sb = SubspaceBasis(
        lambda col: (0, key(col[1])) if col[0] == 0 else (1, -col[1]))
    for k, gen in enumerate(gens):
        row = {(0, c): v for c, v in gen.items()}
        row[(1, k)] = 1
        sb.add(row)
    out = []
    for target in targets:
        res = sb.normal_form({(0, c): v for c, v in target.items()})
        if any(col[0] == 0 for col in res):
            out.append(None)
        else:
            out.append({col[1]: -v for col, v in sorted(res.items())})
    return out


def span_basis(rows, cols, keyfunc=None) -> SubspaceBasis:
    """Reduced echelon basis of the span of `rows` inside the space on
    `cols`, pulling rows from the iterable only while they can matter.

    The rows go one by one to a `SubspaceBasis`, and none is pulled once
    its rank is len(cols).  The answer is that of eliminating every row:
    the reduced echelon form of a span under a fixed column order is
    unique.  A full-rank span is the whole space, whose form has the unit
    row of each column as the row of its pivot, as `SubspaceBasis.
    identity` has; only the list order of the rows follows the order the
    pivots were found in.  So a full-rank certificate, such as a rank
    modulo a prime, could only ever return that same identity.
    """
    sb = SubspaceBasis(keyfunc)
    full = len(cols)
    if not full:
        return sb
    for row in rows:
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
