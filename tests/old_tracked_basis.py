"""The generator-tracking echelon basis that `linalg.coords_in_span`
replaced, kept verbatim as the reference for the differential tests,
and `tracked_coords`, the way its callers solved for coordinates with
it: every generator added in order, then `coords_in_gens` per target."""

from fractions import Fraction


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



def tracked_coords(gens, targets, keyfunc=None):
    sb = SubspaceBasis(keyfunc, track=True)
    for gen in gens:
        sb.add(gen)
    return [sb.coords_in_gens(target) for target in targets]
