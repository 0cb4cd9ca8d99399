"""`IdealSpace.block` and `IdealSpace.reduce` as they were before blocks
pruned the columns past the certified dot bounds, kept verbatim as the
methods of `UnprunedSpace`, the reference for the differential tests:
every column of a block is eliminated, and no monomial is dropped by its
dots."""

from quiverhecke.cyclotomic import IdealSpace
from quiverhecke.klr import BasisMonomial, left_seq
from quiverhecke.linalg import SubspaceBasis, span_basis


class UnprunedSpace(IdealSpace):
    """An IdealSpace whose blocks and normal forms ignore `dot_bounds`."""

    def block(self, lam, mu, d):
        """(columns, echelon basis of the ideal piece) for one block.

        A `certified_block` lies in the span, so its echelon form is the
        identity on its columns, which is what building its rows would
        give; it builds no row.

        The rows are built lazily and go to `linalg.span_basis`, which
        eliminates them exactly over Q and stops building them as soon as
        their rank reaches the number of columns, leaving both the chain
        and the column loop.  A block of full rank has the identity as
        its reduced echelon form whatever rows produced it, so the rank,
        the pivot columns and every normal form (zero) are those all the
        rows would have left.  Every row that is built is still checked
        to stay inside its block.
        """
        key = (lam, mu, d)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        cols = self.block_columns(lam, mu, d)
        if self.certified_block(lam, mu):
            sb = SubspaceBasis.identity(cols, BasisMonomial.sort_key)
        else:
            sb = span_basis(self._ideal_rows(lam, mu, d, set(cols)), cols,
                            BasisMonomial.sort_key)
        self._blocks[key] = (cols, sb)
        return cols, sb

    def reduce(self, E: dict) -> dict:
        """Canonical representative of E modulo the ideal.

        A monomial of a `certified_block` is dropped with no block built.
        Its block lies in the span, so the block's echelon form is the
        identity and its normal form is zero, which is what building the
        block would give."""
        if not self.chains:
            return {m: c for m, c in E.items() if c}
        eng = self.engine
        certified_block = self.certified_block
        groups = {}
        for m, c in E.items():
            lam = left_seq(m)
            if certified_block(lam, m.seq):
                continue
            d = eng.monomial_degree(m)
            groups.setdefault((lam, m.seq, d), {})[m] = c
        out = {}
        for (lam, mu, d), vec in groups.items():
            _, sb = self.block(lam, mu, d)
            for m, c in sb.normal_form(vec).items():
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}


def unpruned_copy(space: IdealSpace) -> UnprunedSpace:
    """An UnprunedSpace on the engine, weight, beta and family of `space`,
    holding the same certified sequences and no block."""
    old = UnprunedSpace(space.engine, space.weight, space.beta, space.chains)
    old.certified |= space.certified
    return old
