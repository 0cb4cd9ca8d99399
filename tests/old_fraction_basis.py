"""The all-Fraction reduced echelon basis that the integer-native
`linalg.SubspaceBasis` replaced, and `coords_in_span` on top of it, kept
verbatim as the reference for the differential tests: every entry it
stores or returns is a Fraction."""

from fractions import Fraction


class SubspaceBasis:
    """Row space in reduced echelon form.  Row r has pivot column c when
    pivots[c] == r, and pivots lists the rows in order."""

    def __init__(self, keyfunc=None):
        self.keyfunc = keyfunc if keyfunc is not None else (lambda c: c)
        self.rows = []
        self.pivots = {}

    @classmethod
    def identity(cls, cols, keyfunc=None) -> "SubspaceBasis":
        """The basis of the whole space on `cols`: one unit row per
        column, which is the reduced echelon form of any full-rank span."""
        sb = cls(keyfunc)
        sb.rows = [{c: Fraction(1)} for c in cols]
        sb.pivots = {c: r for r, c in enumerate(cols)}
        return sb

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """vec minus its projection onto the span."""
        res = {c: Fraction(v) for c, v in vec.items() if v}
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
        return res

    def add(self, vec) -> bool:
        """Insert a generator; returns True when the rank grew."""
        res = self._reduce(vec)
        if not res:
            return False
        pivot = min(res, key=self.keyfunc)
        inv = Fraction(1) / res[pivot]
        row = {c: v * inv for c, v in res.items()}
        # Back-substitute the new pivot out of existing rows.
        for other in self.rows:
            coef = other.get(pivot)
            if not coef:
                continue
            for c2, v2 in row.items():
                v = other.get(c2, 0) - coef * v2
                if v:
                    other[c2] = v
                else:
                    other.pop(c2, None)
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
