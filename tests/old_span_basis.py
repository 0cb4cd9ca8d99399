"""`linalg.RankModP` and `linalg.span_basis` as they were while a
screen modulo the prime P = 2^61 - 1 certified full blocks, kept
verbatim as the reference for the differential tests of the one exact
pass: integer rows went to `RankModP` first, and a block whose rank mod
P reached its column count was returned as the identity basis."""

from itertools import chain

from quiverhecke.linalg import SubspaceBasis

P = 2**61 - 1


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
        get = res.get
        pop = res.pop
        while res:
            k = min(res)
            v = pop(k)
            row = rows.get(k)
            if row is None:
                inv = pow(v, -1, P)
                rows[k] = {c: x * inv % P for c, x in res.items()}
                return True
            # Each stored row has only columns above its pivot k, so the
            # least column of res keeps growing.
            for c, x in row.items():
                y = (get(c, 0) - v * x) % P
                if y:
                    res[c] = y
                else:
                    pop(c, None)
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
