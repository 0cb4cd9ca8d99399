"""Cyclotomic quotients R^Lambda(beta) computed degree by degree.

The quotient is the strand algebra modulo the two-sided ideal generated
by x_1^{<h_{nu_1}, Lambda>} e(nu).  Five devices keep the computation
exact and small:

* The two-sided ideal I = R X R, X = x_1^L e(nu) summed over nu, is
  spanned, in each degree, by right multiples of the finitely many
  mirrored chains tau_{a-1} ... tau_0 X.  The coset decomposition of the
  strand algebra over its last-(n-1)-strands subalgebra gives
  I = sum_a R X tau_0 ... tau_{a-1}.  The anti-involution psi of
  Khovanov-Lauda ("A diagrammatic approach to categorification of
  quantum groups I", 2009, 2.1) fixes e(nu), x_k and tau_k and reverses
  products; it respects the relations for any Q table and fixes
  x_1^L e(nu), so psi(I) = I, and applying it gives
  I = sum_a psi(tau_0 ... tau_{a-1}) X R = sum_a tau_{a-1} ... tau_0 X R.
  In the PBW form tau_w x^c e(mu) the dots sit on the right, so the row
  of a basis monomial b = tau_w x^c e(mu) is P_w x^c with
  P_w = tau_{a-1} ... tau_0 X tau_w e(mu): one rewrite per (chain, word)
  w, whose exponents each column then raises by its own c, and none for
  a column the nilpotency table prunes (see the bullet on pruned
  columns).  The row count is linear in the number of basis monomials.
  The one-sided families of `bimodules` span left ideals only, so they
  keep the left rows (b x_p^L) * tau_word, one product per row.

* Every product row has a single left color sequence and a single right
  color sequence, so each graded piece splits into independent small
  blocks indexed by (left seq, right seq), and the echelon bases of the
  blocks are computed separately.

* A degree window is fixed before anything big is computed: its bottom
  is the least crossing degree and its top a bound from per-strand
  nilpotency degrees, so the quotient vanishes outside it (see
  `CycAlgebra`).  Each alive block is scanned once in the window, up to
  a run of zero degrees above its crossing degrees as long as its
  largest dot degree, past which it is certified to vanish (see
  `scan_until_vanishing`).  Every dimension is read from these scans.

* Zeros are proved once.  A sequence with a zero nilpotency bound is
  dead, and construction checks that each dead idempotent lies in the
  ideal.  That check, and the one deciding whether the whole quotient
  vanishes, go through `unit_in_ideal`: e(nu) is in the ideal when
  e(nu[:-1]) is in the ideal of the smaller algebra, by the right strand
  embedding, and otherwise exactly when tau_{w_Y} e(nu) is, where w_Y
  reverses each run of adjacent equal colours (the nilHecke algebra of
  a run is a matrix algebra over its symmetric polynomials).  That
  element is reduced in its own block of (nu, nu), in degree
  -sum over runs of m(m - 1)/2 (alpha_i|alpha_i); on a single colour
  this is the lowest block, of one column.
  Each sequence so certified is recorded on its space, and
  `IdealSpace.reduce` drops a monomial with a certified left or right
  sequence without building its block, which would be full: the ideal
  is two-sided.  For the same reason `CycAlgebra.block_dims` answers a
  block with a certified side by {} and scans nothing.  A sequence
  proved outside the ideal is recorded too, so no idempotent is reduced
  twice.  The same certificates reach the one-sided denominators of
  `bimodules`, which are left ideals: there only a certified right
  sequence puts a block in the span (`IdealSpace.certified_block`).

* A block holds no column the nilpotency table puts in the span.  With
  every bound N_k = nilpotency_table[k][mu_k] at least 1, a monomial
  tau_w x^a e(mu) with some a_k >= N_k is tau_w x^(a - N_k e_k) times
  x_k^N_k e(mu), which lies in the ideal (proof in `nilpotency_table`).
  Such "pruned" columns are unit pivots of every block: `IdealSpace.block`
  eliminates the rows on the kept columns only and appends one unit row
  per pruned column, and `IdealSpace.reduce` drops pruned monomials
  before grouping.  The one-sided spaces of `bimodules` take the same
  bounds through the embeddings of R(beta) (`IdealSpace.dot_bounds`).

* Per-key data is computed once.  Checks build the same quotient many
  times, so what depends only on a key is memoized where the key lives.
  The engine keeps each crossing degree under (word, seq), a function of
  its datum, strand count and that pair (`KLR.tau_degree`), and
  `klr.left_seq` keeps w . seq under (word, seq).  The shared space of
  `get_ideal_space` keeps the nilpotency table, a function of (datum,
  weight, beta, qspec), each sequence's window bounds, and each block's
  basis, a function of its block, which the space already memoizes.
  Each `CycAlgebra` keeps only its block scans, and its construction
  reruns the checks on its sequences, which are memo lookups once the
  space has answered them.

The paper's tower bound (`certified_cap`) is not part of the window.  It
checks that the monic last-strand relation lies in the ideal and bounds
the top degree by recursion down the tower; the `categorification`
suite checks it against every nonzero quotient it builds.  Modules
over an IdealSpace, free, cyclotomic or one-sided, are
`tensors.TruncationModule`s.  `CycAlgebra`, the one way into a
quotient, keeps its own basis as one; its `module` cuts one to alive
sequences, and its `corner` sums the block scans.
"""

from __future__ import annotations

from operator import add

from .cartan import Weight, seqs_of, weighted_comps
from .klr import (
    BasisMonomial,
    KLR,
    crossing_degree,
    get_engine,
    left_seq,
)
from .laurent import LaurentPoly
from .linalg import SubspaceBasis, span_basis
from .perms import act_on_seq, all_perms, canonical_word
from .tensors import TruncationModule

__all__ = [
    "CertificationError",
    "min_power_in_ideal",
    "nilpotency_table",
    "alive_seqs",
    "certified_cap",
    "top_chain_degree",
    "full_ideal_chains",
    "scan_until_vanishing",
    "IdealSpace",
    "free_space",
    "get_ideal_space",
    "unit_in_ideal",
    "run_reversal",
    "CycAlgebra",
]


class CertificationError(RuntimeError):
    """The monic last-strand relation failed its ideal membership check."""


def min_power_in_ideal(N: int, Np: int, qterms, wu: int, wv: int) -> int:
    """Least s with v^s in the ideal (u^N, v^Np * Q(u, v)) of k[u, v].

    `qterms` lists (p, q, coeff) for Q = sum coeff u^p v^q; wu and wv are
    the (positive, even) degrees of u and v, making Q homogeneous.  The
    search is graded: only multiples of the generator in the single
    weighted degree of v^s can contribute, which keeps each membership
    test tiny, and the resultant of the two generators bounds s.
    """
    if N == 0:
        return 0
    if not qterms:
        raise ValueError("empty Q polynomial in nilpotency recursion")
    maxq = max(q for (_, q, _) in qterms)
    p0, q0, _ = qterms[0]
    wgt_g = wv * Np + wu * p0 + wv * q0
    for s in range(N * (Np + maxq) + 1):
        rem = wv * s - wgt_g
        if rem < 0:
            continue
        sb = SubspaceBasis()
        for a in range(N):
            r2 = rem - wu * a
            if r2 < 0:
                break
            if r2 % wv:
                continue
            b = r2 // wv
            vec = {}
            for (p, q, t) in qterms:
                if a + p < N:
                    key = (a + p, b + Np + q)
                    vec[key] = vec.get(key, 0) + t
            if vec:
                sb.add(vec)
        if sb.rank and sb.contains({(0, s): 1}):
            return s
    raise AssertionError("no v power found within the resultant bound")


def nilpotency_table(datum, weight, beta, qspec):
    """Per-position nilpotency degrees: rows[pos][i] bounds the order of
    x_{pos} on any color sequence with label i at that position.

    Position 0 is the defining relation; later positions combine the
    previous position's bounds across every label that can sit there.

    The claim is that x_k^N e(mu) lies in the cyclotomic ideal I for
    every sequence mu of beta, with N = rows[k][mu_k].  At k = 0 it is
    the generator x_0^L e(mu) itself.  For k + 1, let mu_k = i and
    mu_{k+1} = j, and let N and Np be the bounds of position k for i and
    for j.  The polynomials in x_k, x_{k+1} times e(mu) form a commutative
    subalgebra of e(mu) R e(mu), so the ideal of the polynomial ring in
    u, v generated by polynomials whose images lie in I maps into I.

    * i != j: x_k^N e(mu) lies in I, and so does x_k^Np e(s_k mu), as
      (s_k mu)_k = j.  A dot slides through a crossing of two different
      colours, so tau_k x_k^Np e(s_k mu) tau_k = x_{k+1}^Np tau_k^2 e(mu)
      = x_{k+1}^Np Q_ij(x_k, x_{k+1}) e(mu), which lies in I as I is
      two-sided.  So the image of the ideal (u^N, v^Np Q_ij(u, v)) lies
      in I, and `min_power_in_ideal` finds the least v^s in that ideal.
    * i == j: on e(mu) the strands k and k + 1 satisfy the nilHecke
      relations: tau_k^2 e(mu) = 0 and tau_k f - (s_k f) tau_k =
      d(f) e(mu), with d the Demazure operator (f - s_k f)/(x_{k+1} -
      x_k) up to the sign convention, so that e(mu) = +-(x_{k+1} tau_k -
      tau_k x_k) e(mu).  Put h = d(x_k^N), a symmetric polynomial in
      x_k, x_{k+1}, which commutes with tau_k e(mu).  Then
      tau_k x_k^N tau_k e(mu) = (x_{k+1}^N tau_k + h) tau_k e(mu) =
      h tau_k e(mu) lies in I, hence so does
      h e(mu) = +-(x_{k+1} h tau_k - h tau_k x_k) e(mu), and
      x_{k+1}^N e(mu) = x_k^N e(mu) -+ (x_{k+1} - x_k) h e(mu) does too.
      So N carries over from position k.

    Taking the largest bound over the labels i that can sit at k keeps
    the claim, as a larger power of a dot in I is in I.  A bound of 0
    claims e(mu) itself is in I; `CycAlgebra` checks that claim by a
    reduction (`unit_in_ideal`), and it is never used to prune a block
    (`IdealSpace.dot_bounds`).
    """
    n = sum(beta)
    supp = [i for i, k in enumerate(beta) if k]
    rows = []
    if n == 0:
        return rows
    rows.append({i: weight.level(i) for i in supp})
    for _pos in range(1, n):
        prev = rows[-1]
        cur = {}
        for j in supp:
            best = 0
            for i in supp:
                if i == j:
                    if beta[j] >= 2:
                        cand = prev[j]
                    else:
                        continue
                else:
                    cand = min_power_in_ideal(
                        prev[i],
                        prev[j],
                        qspec.terms(i, j),
                        datum.form(i, i),
                        datum.form(j, j),
                    )
                best = max(best, cand)
            cur[j] = best
        rows.append(cur)
    return rows


def alive_seqs(beta, table):
    """Sequences whose idempotent is not killed outright by a zero bound."""
    out = []
    for seq in seqs_of(beta):
        if all(table[pos][i] > 0 for pos, i in enumerate(seq)):
            out.append(seq)
    return tuple(out)


def full_ideal_chains(n):
    """Generator family (x position, chain word) spanning the two-sided
    ideal R X R as the left-module sum over a of R * X * tau_0...tau_{a-1},
    via the coset decomposition over the last-(n-1)-strands subalgebra,
    and, mirrored by psi, as the right-module sum of
    tau_{a-1}...tau_0 * X * R (`IdealSpace.block`)."""
    return tuple((0, tuple(range(a))) for a in range(n))


class IdealSpace:
    """Graded pieces of a left-module span inside R(beta), organized as
    echelon bases per (left seq, right seq, degree) block.

    The span is sum over the family `chains` of R * X_p * tau_word, where
    X_p places x_p^{level} against the left idempotent.  The default
    family is the full cyclotomic ideal; restricted families give the
    one-sided denominators of the induction and restriction bimodules,
    and the empty family leaves R(beta) itself (see `free_space`), whose
    bases are block columns with no block built.

    `certified` holds the sequences nu with e(nu) certified to lie in the
    span, and `outside` those with e(nu) proved to lie outside it.  The
    shared full-family spaces of `get_ideal_space` hold both, filled by
    `unit_in_ideal`; the one-sided spaces of K0 and K1 hold certified
    sequences only, filled by `bimodules.Bimodules`; the free space has
    no ideal and holds none.  The span is a left ideal, so e(nu) in it
    puts every monomial with right sequence nu in it too, and the block
    (lam, nu, d) is full.  On the full family the span is the two-sided
    ideal, and a certified left sequence puts its block in the span as
    well; a one-sided family never reads the left side.  Whether a block
    lies in the span by a certificate is `certified_block`, and a
    certified block is never eliminated: `reduce` drops its monomials,
    `block_basis` is [] and `block` is the identity.

    `bounds` holds, per right sequence mu, the dot bounds
    ((k, N_k), ...) with x_k^N_k e(mu) in the span (`dot_bounds`): a
    full-family space reads them off its own `nilpotency`, the spaces of
    K0 and K1 are handed theirs by `bimodules.Bimodules`, and a sequence
    with none, as on the free space, prunes nothing.

    A space also memoizes what its quotient needs per key, each a
    function of its key alone, so a stored value is the one a
    recomputation gives: the nilpotency table (`nilpotency`), a function
    of (datum, weight, beta, qspec); each sequence's window bounds
    (`seq_window`), of the table, the datum and the sequence; and each
    block's non-pivot columns (`block_basis`), of the block, which
    `_blocks` already memoizes.  Every `CycAlgebra` over the space reads
    them.
    """

    def __init__(self, engine: KLR, weight: Weight, beta, chains=None):
        self.engine = engine
        self.weight = weight
        self.beta = tuple(beta)
        self.n = sum(beta)
        self.seqs = seqs_of(beta)
        full = full_ideal_chains(self.n)
        self.chains = full if chains is None else tuple(chains)
        self._two_sided = self.chains == full
        self._blocks = {}
        self._bases = {}
        self._table = None
        self._seq_windows = {}
        self.certified = set()
        self.outside = set()
        self.bounds = {}

    def nilpotency(self):
        """`nilpotency_table` of this space's datum, weight, beta and
        table, computed on the first call."""
        if self._table is None:
            eng = self.engine
            self._table = nilpotency_table(eng.datum, self.weight, self.beta,
                                           eng.qspec)
        return self._table

    def seq_window(self, nu):
        """(least, largest) degree a monomial on the right sequence nu can
        have below the nilpotency bounds: the least crossing degree of any
        w on nu, and the largest plus the largest polynomial part,
        sum over positions of (N_pos(nu_pos) - 1)(alpha|alpha).
        Memoized per nu."""
        hit = self._seq_windows.get(nu)
        if hit is None:
            datum = self.engine.datum
            table = self.nilpotency()
            taus = [crossing_degree(datum, w, nu) for w in all_perms(self.n)]
            poly = sum((table[pos][i] - 1) * datum.form(i, i)
                       for pos, i in enumerate(nu))
            hit = self._seq_windows[nu] = (min(taus), max(taus) + poly)
        return hit

    def transporter(self, src, dst):
        """All w in S_n with w . src == dst."""
        return tuple(w for w in all_perms(self.n) if act_on_seq(w, src) == dst)

    def crossings(self, src, dst):
        """(canonical word, crossing degree on src) of each w in
        `transporter(src, dst)`, in its order.

        The tuple depends only on the engine's datum and strand count and
        on (src, dst), so it is memoized on the engine under (src, dst),
        and every space over that engine, whatever its weight or family,
        reads the same tuple."""
        memo = self.engine.crossing_memo
        key = (src, dst)
        hit = memo.get(key)
        if hit is None:
            datum = self.engine.datum
            hit = memo[key] = tuple(
                (canonical_word(w), crossing_degree(datum, w, src))
                for w in self.transporter(src, dst))
        return hit

    def block_columns(self, lam, mu, d):
        """Degree-d basis monomials of e(lam) R(beta) e(mu), sorted.

        The list depends only on the engine's datum and strand count, so
        it is memoized on the engine under (lam, mu, d), and every space
        over that engine, free, cyclotomic or one-sided, reads the same
        list.  Callers must treat it as read-only: the free space's
        `block_basis` hands it out as it is, and `TruncationModule.basis`
        copies it."""
        memo = self.engine.column_memo
        key = (lam, mu, d)
        cols = memo.get(key)
        if cols is None:
            datum = self.engine.datum
            weights = [datum.form(i, i) for i in mu]
            cols = []
            for word, tdeg in self.crossings(mu, lam):
                for exps in weighted_comps(weights, d - tdeg):
                    cols.append(BasisMonomial(word, exps, mu))
            cols.sort(key=BasisMonomial.sort_key)
            memo[key] = cols
        return cols

    def dot_bounds(self, mu):
        """The pairs (k, N) with x_k^N e(mu) in the span, as set in
        `bounds` or, on the full family, read off `nilpotency` and
        memoized: (k, rows[k][mu_k]) for every position k when each of
        those bounds is at least 1, and () otherwise.

        A bound of 0 claims e(mu) itself is in the span.  That claim is
        what `CycAlgebra` checks by reducing in the blocks of e(mu)
        (`unit_in_ideal`), so a sequence with a zero bound prunes nothing
        and the check stays a real reduction."""
        hit = self.bounds.get(mu)
        if hit is None:
            hit = ()
            if self._two_sided and self.n:
                row = tuple(r[c] for r, c in zip(self.nilpotency(), mu))
                if all(row):
                    hit = tuple(enumerate(row))
            self.bounds[mu] = hit
        return hit

    def pruned(self, m) -> bool:
        """Whether the monomial m lies in the span by its dot bounds: some
        exponent a_k reaches its bound N in `dot_bounds(m.seq)`, so that
        m = tau_w x^(a - N e_k) * x_k^N e(mu) with the right factor in
        the span, which is a left ideal."""
        bounds = self.bounds.get(m.seq)
        if bounds is None:
            bounds = self.dot_bounds(m.seq)
        exps = m.exps
        for k, N in bounds:
            if exps[k] >= N:
                return True
        return False

    def certified_block(self, lam, mu) -> bool:
        """Whether every block (lam, mu, d) lies in the span by a
        certificate: mu is certified, or the span is the two-sided ideal
        and lam is certified."""
        cert = self.certified
        return mu in cert or (self._two_sided and lam in cert)

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
        rows would have left.  Every row that is built is checked to stay
        inside its block, by a raise that `python -O` keeps.

        Only the kept columns are eliminated.  The unit vectors of the
        `pruned` columns span a subspace U of the row span S, so S is
        U + pi(S), pi the projection onto the kept columns, and pi(S) is
        S intersected with the kept coordinates.  The rows go to
        `span_basis` projected by pi, which stops once their rank reaches
        the number of kept columns, and one unit row per pruned column is
        appended with no product and no elimination.  The result is the
        reduced echelon form of S on all the columns: each row has its
        least column as pivot, with entry 1, and no other row has an entry
        there (a unit row holds no kept column, and a row of pi(S) no
        pruned one), and that form is unique.  So the columns, the rank,
        the pivot columns and every normal form are those of eliminating
        every row on every column.

        On the two-sided family the rows come from `_mirrored_rows`, the
        right multiples of psi(x_0^L e(rho) tau_0..tau_{a-1}) =
        tau_{a-1}..tau_0 x_0^L e(rho), and on a one-sided family from
        `_ideal_rows`, the left multiples of the chains themselves.  The
        output is the same either way.  psi fixes e(nu), x_k and tau_k
        and reverses products; it respects the relations for any Q table
        and fixes x_0^L e(nu), so it maps I = R X R onto itself.  So
        I = sum_a R X tau_0..tau_{a-1} gives I = sum_a psi(tau_0..
        tau_{a-1}) X R, and psi(tau_0..tau_{a-1}) = tau_{a-1}..tau_0 is
        the basis monomial of the word (a-1, ..., 0), the only reduced
        word of its permutation.  Cut by e(lam) on the left and e(mu) on
        the right in degree d, both families span the piece of I in the
        block.  The mirrored rows skip the pruned columns b, whose rows
        lie in U (`_mirrored_rows`), so with the unit rows they span the
        same S.  Its reduced echelon form is unique, so every block,
        basis, normal form and summary is identical.
        """
        key = (lam, mu, d)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        cols = self.block_columns(lam, mu, d)
        if self.certified_block(lam, mu):
            sb = SubspaceBasis.identity(cols, BasisMonomial.sort_key)
        else:
            rows = (self._mirrored_rows if self._two_sided
                    else self._ideal_rows)(lam, mu, d, set(cols))
            kept, pruned = cols, []
            if self.dot_bounds(mu):
                pruned = [m for m in cols if self.pruned(m)]
            if pruned:
                cut = set(pruned)
                kept = [m for m in cols if m not in cut]
                rows = _project(rows, cut)
            sb = span_basis(rows, kept, BasisMonomial.sort_key)
            sb.add_units(pruned)
        self._blocks[key] = (cols, sb)
        return cols, sb

    def chain_factor(self, idx: int, mu):
        """The idx-th family member (p, word) on the right idempotent mu,
        as (left, L, chain, degree).  The generator is x_p^L e(left)
        tau_word with left = word . mu and L the level of left[p]; chain
        is the bare crossing tau_word e(mu) as a basis monomial, and
        degree is that of the generator,
        L (alpha_c|alpha_c) + crossing degree of word on mu, c = left[p].
        A chain word (0..a-1) or (1..a) is the only reduced word of its
        permutation, so the monomial is canonical."""
        xpos, word = self.chains[idx]
        eng = self.engine
        chain = BasisMonomial(word, (0,) * self.n, mu)
        left = left_seq(chain)
        c = left[xpos]
        L = self.weight.level(c)
        deg = L * eng.datum.form(c, c) + eng.tau_degree(word, mu)
        return left, L, chain, deg

    def _mirrored_rows(self, lam, mu, d, colset):
        """Nonzero spanning rows psi(x_0^L e(rho) tau_0..tau_{a-1}) * b of
        the two-sided block (lam, mu, d), over the family and then the
        columns b of e(rho) R e(mu) in the complementary degree that are
        not `pruned`, each checked to lie on the block's columns `colset`.

        The family member a on the left idempotent lam is `chain_factor`
        (a, lam): x_0^L e(rho) tau_0..tau_{a-1} e(lam), with
        rho = (0..a-1) . lam.  Its mirror is the head
        tau_{a-1}..tau_0 x_0^L e(rho) of the same degree, a basis monomial
        as (a-1, ..., 0) is the only reduced word of its permutation
        (`block` says why the heads span the block as the chains do).
        For b = tau_w x^c e(mu) the row head * b is P_w x^c with
        P_w = head * tau_w e(mu), since in the PBW form tau_v x^e e(mu)
        the dots sit on the right.  So P_w is formed once per word w, by
        `KLR.multiply`, and each row adds c to every exponent of it.

        A pruned b has some c_k >= N_k, and every term of P_w x^c has
        exponents >= c, so the row lies in the span of the unit rows that
        `block` appends for the pruned columns; it is not built.  The
        products P_w live for one call, so none outlives its block."""
        eng = self.engine
        zero = (0,) * self.n
        pruned = self.pruned
        new = tuple.__new__
        for idx, (xpos, word) in enumerate(self.chains):
            rho, L, _, gdeg = self.chain_factor(idx, lam)
            head = {BasisMonomial(word[::-1],
                                  zero[:xpos] + (L,) + zero[xpos + 1:],
                                  rho): 1}
            products = {}
            for b in self.block_columns(rho, mu, d - gdeg):
                if pruned(b):
                    continue
                P = products.get(b.word)
                if P is None:
                    P = products[b.word] = eng.multiply(
                        head, {BasisMonomial(b.word, zero, mu): 1})
                if P:
                    exps = b.exps
                    row = {new(BasisMonomial,
                               (m[0], tuple(map(add, m[1], exps)), m[2])): c
                           for m, c in P.items()}
                    if not row.keys() <= colset:
                        raise AssertionError("ideal row escaped its block")
                    yield row

    def _ideal_rows(self, lam, mu, d, colset):
        """Nonzero spanning rows b * (x_p^L e(left) tau_word) of block
        (lam, mu, d), over the family and then the columns b of
        e(lam) R e(left) in the complementary degree, each checked to lie
        on the block's columns `colset`.

        Each row is one product (b x_p^L) * tau_word.  By associativity
        b * (x_p^L e(left) tau_word) = (b x_p^L) tau_word, and for
        b = tau_w x^a e(left) the right factor x_p^L only raises a dot,
        so b x_p^L is the basis monomial b' = tau_w x^(a + L e_p) e(left).
        Both products are the same element written in the PBW basis, so
        each row equals the one the generator expanded into basis form
        gives, in the same order, while the rewrite chain of the word
        runs once per row instead of once per term of the generator.
        """
        eng = self.engine
        for idx, (xpos, _) in enumerate(self.chains):
            left, L, chain, gdeg = self.chain_factor(idx, mu)
            tail = {chain: 1}
            for b in self.block_columns(lam, left, d - gdeg):
                exps = b.exps
                raised = exps[:xpos] + (exps[xpos] + L,) + exps[xpos + 1:]
                row = eng.multiply(
                    {BasisMonomial(b.word, raised, left): 1}, tail)
                if row:
                    if not row.keys() <= colset:
                        raise AssertionError("ideal row escaped its block")
                    yield row

    def block_basis(self, lam, mu, d):
        """Non-pivot columns of block (lam, mu, d): a basis of the block
        modulo the span.

        The list is memoized under (lam, mu, d).  It is read off the
        block's columns and echelon form, which `block` memoizes under
        the same key, so a stored list is the one a recomputation gives.
        The free space hands out `block_columns` itself, and a
        `certified_block` has the empty basis with no block built.  Either
        way the list is shared by every caller, so callers must treat it
        as read-only; `TruncationModule.basis` copies it."""
        if not self.chains:
            return self.block_columns(lam, mu, d)
        if self.certified_block(lam, mu):
            return []
        key = (lam, mu, d)
        hit = self._bases.get(key)
        if hit is None:
            cols, sb = self.block(lam, mu, d)
            pivots = sb.pivot_columns()
            hit = self._bases[key] = [m for m in cols if m not in pivots]
        return hit

    def reduce(self, E: dict) -> dict:
        """Canonical representative of E modulo the ideal.

        A monomial of a `certified_block` is dropped with no block built.
        Its block lies in the span, so the block's echelon form is the
        identity and its normal form is zero, which is what building the
        block would give.  A `pruned` monomial is dropped too: its column
        is a unit pivot of its block (`block`), so its normal form is
        zero."""
        if not self.chains:
            return {m: c for m, c in E.items() if c}
        eng = self.engine
        certified_block = self.certified_block
        pruned = self.pruned
        groups = {}
        for m, c in E.items():
            lam = left_seq(m)
            if certified_block(lam, m.seq) or pruned(m):
                continue
            d = eng.monomial_degree(m)
            groups.setdefault((lam, m.seq, d), {})[m] = c
        out = {}
        for (lam, mu, d), vec in groups.items():
            _, sb = self.block(lam, mu, d)
            for m, c in sb.normal_form(vec).items():
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def contains(self, E: dict) -> bool:
        return not self.reduce(E)


def _project(rows, cut):
    """Each row without its entries on the columns of `cut`, skipping the
    rows left empty."""
    for row in rows:
        row = {m: c for m, c in row.items() if m not in cut}
        if row:
            yield row


def free_space(datum, beta, qspec=None) -> IdealSpace:
    """R(beta) as the IdealSpace of the empty chain family.  Free spaces
    build no block and stay out of the shared registry below."""
    return IdealSpace(get_engine(datum, sum(beta), qspec), None, beta, ())


_ideal_spaces = {}


def get_ideal_space(datum, weight, beta, qspec=None) -> IdealSpace:
    engine = get_engine(datum, sum(beta), qspec)
    key = (engine, weight, tuple(beta))
    sp = _ideal_spaces.get(key)
    if sp is None:
        sp = _ideal_spaces[key] = IdealSpace(engine, weight, beta)
    return sp


def unit_in_ideal(datum, weight, nu, qspec=None) -> bool:
    """Whether e(nu) lies in the cyclotomic ideal of R(beta), where beta
    is the content of nu; the answer is recorded on the shared space of
    `get_ideal_space`, a True one in its `certified` set and a False one
    in its `outside` set.

    With len(nu) >= 2, write nu = (nu', j).  The right strand embedding
    iota: R(beta - alpha_j) (x) R(alpha_j) -> R(beta), which adds the
    strand j on the right, is a non-unital algebra map with
    iota(e(nu') (x) e(j)) = e(nu).  It sends each generator x_1^L e(mu)
    of the smaller ideal to the generator x_1^L e(mu, j) of this one,
    since the first strand, which carries the dots, keeps its place.  So
    iota maps the smaller ideal R X R into this ideal R' X' R', and
    e(nu') in the smaller ideal gives e(nu) in this one.  Only the last
    strand may be dropped: the left embedding adds its strand first and
    moves the dots off the first strand, and indeed with A2 and
    Lambda = (1, 0), e(1) is in the ideal while e(0, 1) is not.

    When the prefix gives no certificate, tau_{w_Y} e(nu) is reduced in
    place of e(nu), w_Y being `run_reversal(nu)`: e(nu) lies in the ideal
    I exactly when tau_{w_Y} e(nu) does.  One way holds as I is
    two-sided.  For the other, take a maximal run of m adjacent strands
    of colour i.  On e(nu) its dots and crossings satisfy the nilHecke
    relations: tau_k^2 e(nu) = Q_ii e(nu) = 0, a dot slides past tau_k
    up to +-e(nu), and the braid relation holds with no correction term,
    which needs nu_k == nu_{k+2} != nu_{k+1}.  So the nilHecke algebra
    NH_m maps to e(nu) R(beta) e(nu) by a unital algebra map, and the
    maps of different runs commute, their strands and crossings being
    disjoint.  In NH_m, 1 = sum_a x^a tau_{w0} g_a, the g_a being the
    dual basis of the Artin monomials x^a under (f, g) -> d_{w0}(f g)
    (Khovanov-Lauda, Represent. Theory 13 (2009), 2.2).  The product
    over the runs puts e(nu) in R tau_{w_Y} e(nu) R, which lies in I
    when tau_{w_Y} e(nu) does.  The runs must be adjacent: over
    non-adjacent positions the crossings of a colour pass strands of
    other colours and the relations above fail, and reversing the colour
    class {0, 2} of nu = (1, 0, 1) wrongly puts e(nu) in the ideal for
    A2 and Lambda = (0, 2).

    tau_{w_Y} e(nu) is built by the engine.  Its canonical word has
    letters inside the runs only, so each rewrite of the product is a
    commutation or a braid move inside a run, whose correction is a
    multiple of Q_ii = 0, and the product is the one monomial
    tau_{w_Y} e(nu).  It lies in the block (nu, nu) of degree
    -sum over runs of m(m - 1)/2 (alpha_i|alpha_i), one column on a
    single colour, and that block is eliminated exactly like any other,
    so a False answer is certified too.
    """
    nu = tuple(nu)
    beta = tuple(nu.count(i) for i in range(datum.rank))
    space = get_ideal_space(datum, weight, beta, qspec)
    if nu in space.certified:
        return True
    if nu in space.outside:
        return False
    by_prefix = len(nu) >= 2 and unit_in_ideal(datum, weight, nu[:-1], qspec)
    if not by_prefix:
        eng = space.engine
        tau_wy = eng.right_mult_word(eng.idempotent(nu),
                                     canonical_word(run_reversal(nu)))
        if space.reduce(tau_wy):
            space.outside.add(nu)
            return False
    space.certified.add(nu)
    return True


def run_reversal(nu) -> tuple:
    """One-line form of w_Y, which reverses each maximal run of adjacent
    equal colours of nu: the longest element of the parabolic subgroup
    generated by the s_k with nu_k == nu_{k+1}."""
    w = []
    start = 0
    for k in range(1, len(nu) + 1):
        if k == len(nu) or nu[k] != nu[start]:
            w.extend(range(k - 1, start - 1, -1))
            start = k
    return tuple(w)


def top_chain_degree(datum, sub, i, m) -> int:
    """Largest degree of tau_a ... tau_{n-2} x_{n-1}^{m-1} e(nu, i) over
    the arrangements nu of `sub` and 0 <= a < n, where n = |sub| + 1: the
    step up the tower that `certified_cap` adds to the cap of `sub`.

    It is (m - 1)(alpha_i|alpha_i) - sum_{j != i} sub_j (alpha_j|alpha_i).
    The chain's only inversions are (b, n-1) for a <= b <= n-2, so its
    crossing degree is -sum_{b >= a} (alpha_{nu_b} | alpha_i).  A strand
    of another colour adds >= 0 to it, since off-diagonal forms are <= 0,
    and one of colour i adds -(alpha_i|alpha_i) < 0, so the largest puts
    every strand of another colour after position a and none of colour i
    there.  The arrangement with the other colours last attains it."""
    return (m - 1) * datum.form(i, i) - sum(
        k * datum.form(j, i) for j, k in enumerate(sub) if j != i)


_cert_memo = {}


def certified_cap(datum, weight, beta, qspec=None):
    """Largest degree the quotient can reach, certified by computation.

    Returns None when the quotient is certified to vanish.  For each
    color i ending a sequence, the monic relation on the last strand is
    checked to lie in the ideal; granting that, last-strand exponents
    stay below the monic degree and the bound recurses down the tower.
    Raises CertificationError if any membership check fails.  This is a
    statement of the paper that the `categorification` suite checks; the
    degree window of `CycAlgebra` does not depend on it.
    """
    space = get_ideal_space(datum, weight, beta, qspec)
    if space in _cert_memo:
        return _cert_memo[space]
    qspec = space.engine.qspec
    n = space.n
    best = None if n else 0
    for i, k in enumerate(space.beta):
        if not k:
            continue
        sub = list(space.beta)
        sub[i] -= 1
        sub = tuple(sub)
        # the monic degree of the last-strand relation in its last variable
        d_i = weight.level_minus(datum, i, sub) + 2 * sub[i]
        # Certify the monic relation for every sequence in this tower.
        for nu in seqs_of(sub):
            seq = nu + (i,)
            rel = {BasisMonomial((), e, seq): c for e, c in
                   qspec.strand_poly(weight.level(i), seq, n - 1).items()}
            if not space.contains(rel):
                raise CertificationError(
                    f"last-strand relation not in ideal: beta={space.beta}, "
                    f"tower={datum.labels[i]}, seq={nu}"
                )
        if d_i <= 0:
            continue
        subcap = certified_cap(datum, weight, sub, qspec)
        if subcap is None:
            continue
        cand = subcap + top_chain_degree(datum, sub, i, d_i)
        if best is None or cand > best:
            best = cand
    _cert_memo[space] = best
    return best


def scan_until_vanishing(dim_of, dmin, dmax, top, step):
    """Nonzero values of dim_of over degrees dmin..dmax, as {d: dim}.

    The scan goes upward from dmin and stops at dmax, or earlier at the
    first run of `step` consecutive zero degrees [D, D + step) that
    starts at some D > top (the zeros may continue a run that began at
    or below top).  Here dim_of(d) is the degree-d dimension of one
    block e(lam) R^Lambda(beta) e(nu); `top` is at least every crossing
    degree of the block and `step` at least the degree (alpha_i | alpha_i)
    of every dot on nu.

    Why nothing is lost past such a run, by induction on d >= D + step:
    take a basis monomial tau_w x^a e(nu) of degree d > top.  Its
    crossing part has degree at most top, so some a_k > 0, and it equals
    (tau_w x^(a - e_k) e(nu)) * x_k.  The left factor lies in the same
    block, in a degree in [d - step, d) and hence in [D, d), where the
    block vanishes: the left factor lies in the ideal, and since the
    ideal is two-sided so does the product.
    """
    out = {}
    zero_from = None
    for d in range(dmin, dmax + 1):
        dim = dim_of(d)
        if dim:
            out[d] = dim
            zero_from = None
        elif d > top:
            if zero_from is None:
                zero_from = d
            if d - zero_from + 1 >= step:
                break
    return out


class CycAlgebra:
    """The graded algebra R^Lambda(beta) over its degree window.

    The state of a quotient is split by what it depends on.  Its shared
    space (`get_ideal_space`) holds the nilpotency table, each
    sequence's window bounds, the blocks, their bases and the certified
    and outside sequences, all functions of the key (datum, weight,
    beta, qspec) and the block, so every instance on that key reads the
    same values.  Each instance keeps its alive sequences, its window,
    its block scans `_dims` and its basis module.  So each instance
    scans its blocks through the space's `block_basis` as it finds it, a
    wrapped or replaced one included, and never reads a scan that
    another instance made.

    Construction still calls `alive_seqs` and still checks that every
    dead idempotent lies in the ideal and whether the unit does.  After
    the first construction on a key these checks are memo lookups in
    `unit_in_ideal`, and because they run each time, an alive set
    changed later, by a patched or wrong bound, is still caught.
    """

    def __init__(self, datum, weight, beta, qspec=None):
        self.datum = datum
        self.weight = weight
        self.beta = tuple(beta)
        self.n = sum(beta)
        self.space = space = get_ideal_space(datum, weight, self.beta, qspec)
        self.engine = space.engine
        self.qspec = qspec = self.engine.qspec
        self.table = space.nilpotency()
        self.alive = alive_seqs(self.beta, self.table)
        # The window: the least crossing degree of an alive sequence up to
        # the largest plus the largest polynomial part the nilpotency
        # bounds allow; (0, -1) when every sequence is dead.
        bounds = [space.seq_window(nu) for nu in self.alive]
        self.dmin = min((lo for lo, _ in bounds), default=0)
        self.dmax = max((hi for _, hi in bounds), default=-1)
        self.dmax_bound = self.dmax
        # Each dead idempotent must lie in the ideal; as the ideal is
        # two-sided, nf then drops every monomial on a dead sequence.
        for nu in self.space.seqs:
            if nu not in self.alive and not unit_in_ideal(datum, weight, nu,
                                                          qspec):
                raise AssertionError(
                    "dead sequence monomial not in ideal; bounds are wrong"
                )
        # The quotient vanishes exactly when the unit lies in the ideal,
        # which `unit_in_ideal` decides in the block of each tau_{w_Y}
        # e(nu); a vanishing quotient skips every degree.
        self._zero = not self.alive or all(
            unit_in_ideal(datum, weight, nu, qspec) for nu in self.alive
        )
        if self._zero:
            self.dmin, self.dmax = 0, -1
        self._dims = {}
        self._whole = None

    # -- dimensions and bases ------------------------------------------

    def block_dims(self, lam, mu) -> dict:
        """{d: dim} of the alive block e(lam) R^Lambda(beta) e(mu), scanned
        once by `scan_until_vanishing` over the window from its least
        crossing degree, below which it has no columns, with its largest
        crossing degree as `top` and largest dot degree on mu as `step`.

        The answer is {}, with no block built, when e(lam) or e(mu) lies
        in the ideal by `unit_in_ideal`.  A two-sided ideal holding e(lam)
        holds e(lam) x e(mu) for every x, which is the whole block, so the
        block is zero in every degree, as the scan would find; likewise
        for e(mu)."""
        dims = self._dims.get((lam, mu))
        if dims is None:
            if any(unit_in_ideal(self.datum, self.weight, nu, self.qspec)
                   for nu in (lam, mu)):
                dims = {}
            else:
                taus = [tdeg for _, tdeg in self.space.crossings(mu, lam)]
                step = max((self.datum.form(i, i) for i in mu), default=1)
                dims = scan_until_vanishing(
                    lambda d: len(self.space.block_basis(lam, mu, d)),
                    max(min(taus), self.dmin), self.dmax, max(taus), step)
            self._dims[(lam, mu)] = dims
        return dims

    def quotient_basis(self, d: int):
        """Monomials spanning degree d of the quotient: non-pivot columns
        of every alive block, in canonical order."""
        if self._whole is None:
            self._whole = self.module(self.alive, self.alive)
        return self._whole.basis(d)

    def dim_at(self, d: int) -> int:
        return len(self.quotient_basis(d))

    def graded_dims(self) -> dict:
        return self.graded_dim_poly().coeffs

    def basis(self):
        """The quotient's basis as (monomial, degree) pairs, degree by
        degree over the nonzero degrees in ascending order."""
        return [(m, d) for d in sorted(self.graded_dims())
                for m in self.quotient_basis(d)]

    def graded_dim_poly(self) -> LaurentPoly:
        return self.corner(self.alive, self.alive)

    def _cut(self, seqs):
        """The alive sequences among seqs, in the order of `alive`."""
        seqs = set(map(tuple, seqs))
        return [nu for nu in self.alive if nu in seqs]

    def corner(self, rows, cols) -> LaurentPoly:
        """Graded dimension of the sum of the blocks e(lam) R^Lambda(beta)
        e(mu) over alive lam in rows and mu in cols."""
        total = LaurentPoly.zero()
        for lam in self._cut(rows):
            for mu in self._cut(cols):
                total += LaurentPoly(self.block_dims(lam, mu))
        return total

    def module(self, rows, cols, side=None, emb=None) -> TruncationModule:
        """The blocks of `corner` as a module, each built only in the
        degrees where its own scan found it nonzero."""
        rows, cols = self._cut(rows), self._cut(cols)
        return TruncationModule(self.space, rows, cols, side, emb, {
            (lam, mu): self.block_dims(lam, mu)
            for lam in rows for mu in cols})

    def nf(self, E: dict) -> dict:
        """Normal form modulo the ideal."""
        return self.space.reduce(E)

    def is_zero(self) -> bool:
        return self._zero

    def summary(self) -> dict:
        """JSON-ready description of the computed algebra.  Its fields,
        in this order and with these types, are `cli.SUMMARY_TYPES`, which
        a cached summary must match to be served."""
        dims = self.graded_dims()

        def name(seq):
            return ",".join(str(self.datum.labels[i]) for i in seq)

        truncs = {}
        for mu in self.alive:
            for nu in self.alive:
                t = self.block_dims(mu, nu)
                if t:
                    truncs[name(mu) + "|" + name(nu)] = LaurentPoly(t).to_json()
        return {
            "labels": list(map(str, self.datum.labels)),
            "levels": list(self.weight.levels),
            "beta": list(self.beta),
            "window": [self.dmin, self.dmax],
            "window_bound": self.dmax_bound,
            "nilpotency": [
                {str(self.datum.labels[i]): v for i, v in row.items()}
                for row in self.table
            ],
            "alive": [name(nu) for nu in self.alive],
            "zero": self.is_zero(),
            "graded_dim": {str(d): v for d, v in sorted(dims.items())},
            "total_dim": sum(dims.values()),
            "truncations": truncs,
        }
