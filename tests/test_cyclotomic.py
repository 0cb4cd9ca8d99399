"""Cyclotomic quotients: nilpotency bounds, degree windows, graded
dimensions against the highest weight module, ideal span identities."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from quiverhecke import checks, cyclotomic
from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight, build_cartan, seqs_of, weighted_comps
from quiverhecke.cyclotomic import (
    CycAlgebra,
    IdealSpace,
    alive_seqs,
    certified_cap,
    free_space,
    get_ideal_space,
    min_power_in_ideal,
    nilpotency_table,
    scan_until_vanishing,
    top_chain_degree,
    unit_in_ideal,
)
from quiverhecke.klr import (
    KLR,
    BasisMonomial,
    crossing_degree,
    get_engine,
    left_seq,
    min_tau_degree,
)
from quiverhecke.laurent import LaurentPoly
from quiverhecke.linalg import SubspaceBasis
from quiverhecke.perms import (
    act_on_seq,
    all_perms,
    apply_word,
    canonical_word,
    word_to_perm,
)
from quiverhecke.qpolys import QSpec
from quiverhecke.tensors import TruncationModule
from quiverhecke.uqmod import UqModule

from old_quotient_paths import alive_window, degree_cap
from old_quotient_paths import generator as old_generator
from old_quotient_paths import ideal_rows as old_ideal_rows

A1 = build_cartan(("i",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])


def std(datum):
    return QSpec.standard(datum)


# ---- nilpotency bounds ----------------------------------------------


def test_min_power_examples():
    # ideal (u, v(u + v)) contains v^2 but not v
    terms = std(A2).terms(0, 1)
    assert min_power_in_ideal(1, 1, terms, 2, 2) == 2
    # with Np = 0 the ideal (u, u + v) contains v itself
    assert min_power_in_ideal(1, 0, terms, 2, 2) == 1
    assert min_power_in_ideal(0, 5, terms, 2, 2) == 0
    # B2 short-long: (u, u^2 + v) contains v
    bterms = std(B2).terms(0, 1)
    assert min_power_in_ideal(1, 0, bterms, 2, 4) == 1


def test_nilpotency_level_m_rank_one():
    for m in (1, 2, 3):
        rows = nilpotency_table(A1, Weight((m,)), (1,), std(A1))
        assert rows == [{0: m}]


def test_nilpotency_equal_color_carry():
    rows = nilpotency_table(A1, Weight((2,)), (2,), std(A1))
    assert rows == [{0: 2}, {0: 2}]


def test_nilpotency_a2_fundamental():
    rows = nilpotency_table(A2, Weight((1, 0)), (1, 1), std(A2))
    assert rows[0] == {0: 1, 1: 0}
    assert rows[1] == {0: 0, 1: 1}
    assert alive_seqs((1, 1), rows) == ((0, 1),)


# ---- degree windows -------------------------------------------------


def test_degree_cap_rank_one():
    # the old window function, and the window of CycAlgebra that
    # replaced it
    for wt, beta, window in [(Weight((2,)), (1,), (0, 2)),
                             (Weight((1,)), (2,), (-2, 0)),
                             # all-dead weight gives the empty window
                             (Weight((0,)), (2,), (0, -1))]:
        assert degree_cap(A1, wt, beta) == window
        A = CycAlgebra(A1, wt, beta)
        assert A.dmax_bound == window[1]
        if not A.is_zero():
            assert (A.dmin, A.dmax) == window


def test_boundary_vanishing():
    for datum, wt, beta in [
        (A1, Weight((2,)), (2,)),
        (A2, Weight((1, 1)), (1, 1)),
    ]:
        A = CycAlgebra(datum, wt, beta)
        for d in (A.dmax + 1, A.dmax + 2, A.dmin - 1, A.dmin - 2):
            assert A.dim_at(d) == 0, d


# ---- ideal pieces ---------------------------------------------------


def test_ideal_piece_degree_bookkeeping():
    # level 2, one strand: the generator x^2 has degree 4, so the
    # degree-2 piece of the ideal is zero and the degree-4 piece is not
    space = get_ideal_space(A1, Weight((2,)), (1,))
    seq = (0,)
    _, sb2 = space.block(seq, seq, 2)
    assert sb2.rank == 0
    _, sb4 = space.block(seq, seq, 4)
    assert sb4.rank == 1


def _min_block_degree(space: IdealSpace, lam, mu):
    """Least possible degree of a basis monomial in block (lam, mu)."""
    datum = space.engine.datum
    degs = [crossing_degree(datum, w, mu) for w in space.transporter(mu, lam)]
    return min(degs) if degs else None


def ideal_rows_two_sided(space: IdealSpace, lam, mu, d):
    """Spanning rows of the block from the bilinear description
    b1 * (x_0^level e(nu)) * b2; quadratically many, kept for cross-checks
    against the one-sided spanning set used everywhere else."""
    eng = space.engine
    out = []
    for nu in space.seqs:
        lvl = space.weight.level(nu[0])
        exps = [0] * space.n
        exps[0] = lvl
        gen = BasisMonomial((), tuple(exps), nu)
        gdeg = eng.monomial_degree(gen)
        lo = _min_block_degree(space, lam, nu)
        hi = _min_block_degree(space, nu, mu)
        if lo is None or hi is None:
            continue
        for d1 in range(lo, d - gdeg - hi + 1):
            lefts = space.block_columns(lam, nu, d1)
            rights = space.block_columns(nu, mu, d - gdeg - d1)
            for b1 in lefts:
                half = eng.multiply({b1: Fraction(1)}, {gen: Fraction(1)})
                for b2 in rights:
                    row = eng.multiply(half, {b2: Fraction(1)})
                    if row:
                        out.append(row)
    return out


def test_one_sided_equals_two_sided_span():
    cases = [
        (A2, Weight((1, 1)), (1, 1), range(-1, 6)),
        (A1, Weight((2,)), (2,), range(-3, 6)),
    ]
    for datum, wt, beta, degrees in cases:
        space = get_ideal_space(datum, wt, beta)
        for lam in seqs_of(beta):
            for mu in seqs_of(beta):
                for d in degrees:
                    cols, sb = space.block(lam, mu, d)
                    two = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
                    for row in ideal_rows_two_sided(space, lam, mu, d):
                        two.add(row)
                    assert two.rank == sb.rank
                    for vec in two.rows:
                        assert sb.contains(vec)


def test_last_strand_coset_decomposition():
    # every monomial of R(2 a_1 + a_2) lies in the span of
    # tau_{s..n-2} * (first-strands monomial) * x_{n-1}^c rows
    beta = (2, 1)
    n = 3
    eng = get_engine(A2, n)
    rng = random.Random(11)
    seqs = seqs_of(beta)
    sub_perms = []
    for w in all_perms(n - 1):
        wfull = tuple(w) + (n - 1,)
        sub_perms.append((wfull, canonical_word(wfull)))
    for _ in range(20):
        seq = rng.choice(seqs)
        w = rng.choice(all_perms(n))
        exps = tuple(rng.randrange(3) for _ in range(n))
        m = BasisMonomial(canonical_word(w), exps, seq)
        d = eng.monomial_degree(m)
        sb = SubspaceBasis()
        weights = [A2.form(i, i) for i in seq]
        for s in range(n):
            chain = tuple(range(s, n - 1))
            for wfull, word in sub_perms:
                mid = act_on_seq(wfull, seq)
                head = {BasisMonomial(chain, (0,) * n, mid): 1}
                tdeg = eng.element_degree(
                    {BasisMonomial(word, (0,) * n, seq): 1}
                ) + eng.element_degree(head)
                for e in weighted_comps(weights, d - tdeg):
                    row = eng.multiply(head, {BasisMonomial(word, e, seq): 1})
                    if row:
                        sb.add(row)
        assert sb.contains({m: 1})


# ---- quotient algebras: frozen dimensions ---------------------------


def test_rank_one_level_one():
    A = CycAlgebra(A1, Weight((1,)), (1,))
    assert A.graded_dims() == {0: 1}
    Z = CycAlgebra(A1, Weight((1,)), (2,))
    assert Z.is_zero()
    assert Z.graded_dims() == {}


def test_rank_one_level_two():
    assert CycAlgebra(A1, Weight((2,)), (1,)).graded_dims() == {0: 1, 2: 1}
    assert CycAlgebra(A1, Weight((2,)), (2,)).graded_dims() == {-2: 1, 0: 2, 2: 1}
    assert CycAlgebra(A1, Weight((2,)), (3,)).is_zero()


def test_rank_one_level_three():
    assert CycAlgebra(A1, Weight((3,)), (1,)).graded_dims() == {0: 1, 2: 1, 4: 1}
    assert CycAlgebra(A1, Weight((3,)), (2,)).graded_dims() == {
        -2: 1,
        0: 3,
        2: 4,
        4: 3,
        6: 1,
    }
    big = CycAlgebra(A1, Weight((3,)), (3,))
    assert big.graded_dims() == {
        -6: 1,
        -4: 4,
        -2: 8,
        0: 10,
        2: 8,
        4: 4,
        6: 1,
    }
    assert sum(big.graded_dims().values()) == 36
    assert CycAlgebra(A1, Weight((3,)), (4,)).is_zero()


def test_a2_fundamental_weight():
    wt = Weight((1, 0))
    assert CycAlgebra(A2, wt, (1, 0)).graded_dims() == {0: 1}
    assert CycAlgebra(A2, wt, (0, 1)).is_zero()
    A = CycAlgebra(A2, wt, (1, 1))
    assert A.graded_dims() == {0: 1}
    # the single survivor is the e((0,1)) corner
    assert A.corner([(0, 1)], [(0, 1)]) == LaurentPoly.one()
    assert A.corner([(1, 0)], [(1, 0)]) == LaurentPoly.zero()
    assert CycAlgebra(A2, wt, (2, 0)).is_zero()
    assert CycAlgebra(A2, wt, (2, 1)).is_zero()


def test_a2_adjoint_weight():
    rho = Weight((1, 1))
    A = CycAlgebra(A2, rho, (1, 1))
    assert A.graded_dims() == {0: 2, 1: 2, 2: 2}
    assert (A.dmin, A.dmax) == (0, 3)
    assert CycAlgebra(A2, rho, (2, 0)).is_zero()
    B = CycAlgebra(A2, rho, (2, 1))
    assert sum(B.graded_dims().values()) == 9
    C = CycAlgebra(A2, rho, (1, 2))
    assert sum(C.graded_dims().values()) == 9


def test_affine_basic_weight():
    wt = Weight((1, 0))
    assert CycAlgebra(A1AFF, wt, (1, 0)).graded_dims() == {0: 1}
    assert CycAlgebra(A1AFF, wt, (0, 1)).is_zero()
    assert CycAlgebra(A1AFF, wt, (2, 0)).is_zero()
    assert sum(CycAlgebra(A1AFF, wt, (1, 1)).graded_dims().values()) == 2
    assert sum(CycAlgebra(A1AFF, wt, (2, 1)).graded_dims().values()) == 2
    assert sum(CycAlgebra(A1AFF, wt, (1, 2)).graded_dims().values()) == 4


def test_zero_weight_kills_everything():
    for datum, beta in [(A1, (1,)), (A2, (1, 1)), (A1AFF, (1, 0))]:
        zero = Weight((0,) * datum.rank)
        assert CycAlgebra(datum, zero, beta).is_zero()


# ---- quotient vs highest weight module oracle -----------------------

ORACLE_CASES = [
    (A1, Weight((1,)), [(1,), (2,)]),
    (A1, Weight((2,)), [(1,), (2,), (3,)]),
    (A1, Weight((3,)), [(2,), (3,)]),
    (A2, Weight((1, 0)), [(1, 0), (0, 1), (1, 1), (2, 1)]),
    (A2, Weight((1, 1)), [(1, 1), (2, 1)]),
    (A1AFF, Weight((1, 0)), [(1, 1), (2, 1), (1, 2)]),
]


@pytest.mark.parametrize("datum,wt,betas", ORACLE_CASES)
def test_graded_dims_match_module(datum, wt, betas):
    V = UqModule(datum, wt)
    for beta in betas:
        A = CycAlgebra(datum, wt, beta)
        assert A.graded_dim_poly() == V.predicted_total_dim(beta)


def test_truncations_match_module_cornerwise():
    # the adjoint weight at beta = a_1 + a_2 has asymmetric corners,
    # which pins down the sequence-reversal convention
    V = UqModule(A2, Weight((1, 1)))
    A = CycAlgebra(A2, Weight((1, 1)), (1, 1))
    for mu in seqs_of((1, 1)):
        for nu in seqs_of((1, 1)):
            assert A.corner([mu], [nu]) == V.predicted_dim((1, 1), mu, nu)


# ---- misc interface -------------------------------------------------


def test_nf_is_idempotent_and_multiplicative():
    A = CycAlgebra(A2, Weight((1, 1)), (1, 1))
    eng = A.engine
    rng = random.Random(5)
    seqs = seqs_of((1, 1))
    for _ in range(10):
        nu = rng.choice(seqs)
        E = eng.idempotent(nu)
        if rng.randrange(2):
            E = eng.right_mult_tau(E, 0)
        E = eng.right_mult_x(E, rng.randrange(2), rng.randrange(2))
        red = A.nf(E)
        assert A.nf(red) == red
        diff = dict(E)
        for m, c in red.items():
            diff[m] = diff.get(m, 0) - c
        diff = {m: c for m, c in diff.items() if c}
        assert A.space.contains(diff)


def test_summary_is_json_serializable():
    A = CycAlgebra(A2, Weight((1, 0)), (1, 1))
    s = A.summary()
    text = json.dumps(s, sort_keys=True)
    assert "graded_dim" in s and "truncations" in s
    assert json.loads(text) == s


def test_restricted_chain_family():
    # a family with only the empty chain spans R * X * e(mu) columns
    wt = Weight((2,))
    eng = get_engine(A1, 2)
    space = IdealSpace(eng, wt, (2,), chains=[(0, ())])
    seq = (0, 0)
    cols, sb = space.block(seq, seq, 4)
    # rows are b * x_0^2 e(00): compare against direct enumeration
    direct = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
    gen = {BasisMonomial((), (2, 0), seq): 1}
    for b in space.block_columns(seq, seq, 0):
        row = eng.multiply({b: 1}, gen)
        if row:
            direct.add(row)
    assert sb.rank == direct.rank
    for vec in direct.rows:
        assert sb.contains(vec)


# ---- early exits against the full computation -----------------------


def reference_block(space: IdealSpace, lam, mu, d):
    """IdealSpace.block without the early exit: every spanning row is
    built and inserted, even after the ideal fills the block."""
    eng = space.engine
    cols = space.block_columns(lam, mu, d)
    sb = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
    if cols:
        for idx, (_, word) in enumerate(space.chains):
            gen, gdeg = old_generator(space, idx, mu)
            if not gen:
                continue
            for b in space.block_columns(lam, apply_word(word, mu), d - gdeg):
                row = eng.multiply({b: Fraction(1)}, gen)
                if row:
                    sb.add(row)
    return cols, sb


def reference_dims(A: CycAlgebra, pairs):
    """Nonzero dimensions of the given (lam, mu) blocks summed, scanning
    every degree of the window with reference blocks."""
    space = IdealSpace(A.engine, A.weight, A.beta)
    out = {}
    for d in range(A.dmin, A.dmax + 1):
        dim = 0
        for lam, mu in pairs:
            cols, sb = reference_block(space, lam, mu, d)
            dim += len(cols) - sb.rank
        if dim:
            out[d] = dim
    return out


NONZERO_DESK_ALGEBRAS = [
    (A1, Weight((2,)), (2,)),
    (A1, Weight((3,)), (2,)),
    (A2, Weight((1, 1)), (1, 1)),
    (A2, Weight((1, 1)), (2, 1)),
    (B2, Weight((1, 1)), (2, 1)),
    (A1AFF, Weight((1, 0)), (1, 1)),
    (A1AFF, Weight((1, 0)), (2, 1)),
    (A1AFF, Weight((1, 0)), (1, 2)),
    (A1AFF, Weight((2, 0)), (2, 1)),
]
ZERO_DESK_ALGEBRA = (A1, Weight((2,)), (3,))  # unit membership decides it
DESK_ALGEBRAS = NONZERO_DESK_ALGEBRAS + [ZERO_DESK_ALGEBRA]

# Q_12(u, v) = u + v/2: a non-integral table, so ideal rows keep Fractions
A2_HALF = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): Fraction(1, 2)}})


def test_absent_table_resolves_to_one_standard_table():
    # the engine resolves an absent table; every algebra above reads it
    wt, beta = Weight((1, 1)), (1, 1)
    assert QSpec.standard(B2) is QSpec.standard(B2)
    A = CycAlgebra(B2, wt, beta)
    assert A.qspec is A.engine.qspec is QSpec.standard(B2)
    assert A.space is get_ideal_space(B2, wt, beta, QSpec.standard(B2))
    twisted = CycAlgebra(A2, wt, beta, A2_HALF)
    assert twisted.qspec is twisted.engine.qspec is A2_HALF
    assert twisted.space is not get_ideal_space(A2, wt, beta)
    bim = Bimodules(A2, Weight((1, 0)), (1, 0), 1, A2_HALF)
    assert bim.qspec is bim.engine.qspec is bim.sub_engine.qspec is A2_HALF


@pytest.mark.parametrize("datum,wt,beta", DESK_ALGEBRAS)
def test_early_exits_match_full_computation(datum, wt, beta):
    assert_early_exits_match(CycAlgebra(datum, wt, beta))


def test_early_exits_match_full_computation_non_integral_qspec():
    assert_early_exits_match(CycAlgebra(A2, Weight((1, 1)), (2, 1), A2_HALF))


def assert_early_exits_match(A: CycAlgebra):
    """Every block, window scan and basis of A against the reference
    blocks, which build every row and eliminate over Q."""
    old_space = IdealSpace(A.engine, A.weight, A.beta)
    seqs = seqs_of(A.beta)
    for lam in seqs:
        for mu in seqs:
            for d in range(A.dmin - 2, A.dmax + 3):
                cols, sb = A.space.block(lam, mu, d)
                ref_cols, ref = reference_block(old_space, lam, mu, d)
                assert cols == ref_cols
                assert sb.rank == ref.rank
                assert sb.pivot_columns() == ref.pivot_columns()
                for c in cols:
                    unit = {c: Fraction(1)}
                    assert sb.normal_form(unit) == ref.normal_form(unit)
    alive_pairs = [(lam, mu) for lam in A.alive for mu in A.alive]
    assert A.graded_dims() == reference_dims(A, alive_pairs)
    # the ungraded basis count_simples takes from the nonzero degrees
    full_basis = [
        m for d in range(A.dmin, A.dmax + 1) for m in A.quotient_basis(d)
    ]
    assert full_basis == [
        m for d in sorted(A.graded_dims()) for m in A.quotient_basis(d)
    ]
    for mu in A.alive:
        for nu in A.alive:
            assert A.corner([mu], [nu]).coeffs == reference_dims(A, [(mu, nu)])


# ---- ideal rows against the expanded generator -----------------------


def assert_rows_match_expanded_generator(space, degrees, integral):
    """Every block of `space` over the given degrees: `_ideal_rows` yields
    the rows b * generator that the expanded generator gave, row for
    row, in order, with equal coefficient dicts (all int with an
    integral table), and each chain degree is the generator's degree.
    Returns the number of rows compared."""
    eng = space.engine
    for idx, (_, word) in enumerate(space.chains):
        assert canonical_word(word_to_perm(space.n, word)) == word
        for mu in space.seqs:
            gen, _ = old_generator(space, idx, mu)
            assert gen
            assert space.chain_factor(idx, mu)[3] == eng.element_degree(gen)
    count = 0
    for lam in space.seqs:
        for mu in space.seqs:
            for d in degrees:
                colset = set(space.block_columns(lam, mu, d))
                new = list(space._ideal_rows(lam, mu, d, colset))
                old = list(old_ideal_rows(space, lam, mu, d, colset))
                assert new == old
                if integral:
                    assert all(type(c) is int for rows in (new, old)
                               for row in rows for c in row.values())
                count += len(new)
    return count


def _quotient_degrees(A):
    """Every degree a block of A can be scanned or reduced in, with
    margins: from the least crossing degree to the nilpotency bound."""
    return range(min_tau_degree(A.datum, A.beta) - 2, A.dmax_bound + 3)


@pytest.mark.parametrize("datum,wt,beta", DESK_ALGEBRAS)
def test_ideal_rows_match_the_expanded_generator(datum, wt, beta):
    A = CycAlgebra(datum, wt, beta)
    assert assert_rows_match_expanded_generator(
        IdealSpace(A.engine, wt, beta), _quotient_degrees(A), True)


def test_ideal_rows_match_the_expanded_generator_non_integral_qspec():
    A = CycAlgebra(A2, Weight((1, 1)), (2, 1), A2_HALF)
    assert assert_rows_match_expanded_generator(
        IdealSpace(A.engine, A.weight, A.beta), _quotient_degrees(A), False)


def test_two_sided_blocks_form_one_product_per_chain_and_word(monkeypatch):
    # affine A1 at (1, 0) on (3, 2): a block forms P_w = head * tau_w
    # e(mu) once per family member and source word w; the left family,
    # one product per row, formed 11,309
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    multiply, block = KLR.multiply, IdealSpace.block
    open_blocks = []
    counts = []

    def counted_multiply(eng, A, B):
        if open_blocks:
            open_blocks[-1] += 1
        return multiply(eng, A, B)

    def counted_block(space, lam, mu, d):
        if (lam, mu, d) in space._blocks:
            return block(space, lam, mu, d)
        open_blocks.append(0)
        try:
            out = block(space, lam, mu, d)
        finally:
            made = open_blocks.pop()
        pairs = 0
        for idx in range(len(space.chains)):
            rho, _, _, gdeg = space.chain_factor(idx, lam)
            pairs += len({b.word for b in
                          space.block_columns(rho, mu, d - gdeg)})
        counts.append((made, pairs))
        return out

    monkeypatch.setattr(KLR, "multiply", counted_multiply)
    monkeypatch.setattr(IdealSpace, "block", counted_block)
    A = CycAlgebra(A1AFF, Weight((1, 0)), (3, 2))
    assert A.space._two_sided
    assert A.summary()["total_dim"] == 88
    assert all(made <= pairs for made, pairs in counts)
    made = sum(made for made, _ in counts)
    assert 0 < made < 11309


@pytest.mark.parametrize("thunk", checks.CHECKS["exact"](),
                         ids=lambda t: repr(t.args[1:]))
def test_one_sided_ideal_rows_match_the_expanded_generator(thunk):
    # the first_strand_chains and shifted_strand_chains families of K0
    # and K1, over the window of the exact check and its shift
    bim = Bimodules(*thunk.args)
    lo, hi = bim.window
    shift = bim.shift_P
    degrees = range(min(lo, lo - shift) - 2, max(hi, hi - shift) + 3)
    for space in (bim.K0.space, bim.K1.space):
        count = assert_rows_match_expanded_generator(
            IdealSpace(space.engine, space.weight, space.beta, space.chains),
            degrees, True)
        # with beta = 0 the families are empty
        assert bool(count) == bool(space.chains)


@pytest.mark.parametrize("datum,wt,beta", NONZERO_DESK_ALGEBRAS)
def test_tower_cap_between_top_degree_and_nilpotency_bound(datum, wt, beta):
    # the window top is the nilpotency bound; the tower certificate is a
    # statement about the quotient, not part of the window
    A = CycAlgebra(datum, wt, beta)
    assert A.dmax == A.dmax_bound
    cap = certified_cap(datum, wt, beta)
    assert max(A.graded_dims()) <= cap <= A.dmax_bound


def _chain_best_by_scan(eng, sub, i, d_i):
    """The scan over arrangements and chain starts that `certified_cap`
    made before `top_chain_degree`, kept verbatim."""
    n = eng.n
    chain_best = None
    for nu in seqs_of(sub):
        sigma = nu + (i,)
        for a in range(n):
            word = tuple(range(a, n - 1))
            exps = [0] * n
            exps[n - 1] = d_i - 1
            deg = eng.monomial_degree(
                BasisMonomial(word, tuple(exps), sigma)
            )
            if chain_best is None or deg > chain_best:
                chain_best = deg
    return chain_best


def test_top_chain_degree_matches_the_scan():
    # every (Lambda, beta, i) with levels <= 2 and up to 5 strands, 4 at
    # rank 3, where the tower steps up: the monic degree is positive
    data = [A1, A2, B2, A1AFF,
            build_cartan("ab", [[2, -3], [-1, 2]]),  # G2
            build_cartan("ab", [[2, -4], [-1, 2]]),  # A_2^(2)
            build_cartan("abc", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
            build_cartan("abc", [[2, -1, 0], [-1, 2, -2], [0, -1, 2]])]
    cases = 0
    for datum in data:
        rank = datum.rank
        top = 5 if rank < 3 else 4
        betas = [b for b in itertools.product(range(top + 1), repeat=rank)
                 if 0 < sum(b) <= top]
        for levels in itertools.product(range(3), repeat=rank):
            wt = Weight(levels)
            for beta in betas:
                for i in range(rank):
                    if not beta[i]:
                        continue
                    sub = list(beta)
                    sub[i] -= 1
                    m = wt.level_minus(datum, i, sub) + 2 * sub[i]
                    if m <= 0:
                        continue
                    eng = get_engine(datum, sum(beta))
                    assert (top_chain_degree(datum, sub, i, m)
                            == _chain_best_by_scan(eng, sub, i, m))
                    cases += 1
    assert cases == 4018


def test_zero_desk_algebra_is_zero(monkeypatch):
    A = CycAlgebra(*ZERO_DESK_ALGEBRA)
    assert A.alive
    assert A.is_zero()
    # its one alive block has crossing degrees down to -6, but the empty
    # window leaves the block scan nothing to build
    scanned = []
    monkeypatch.setattr(A.space, "block_basis",
                        lambda lam, mu, d: scanned.append(d) or [])
    assert A.graded_dims() == {}
    assert A.corner(A.alive, A.alive) == LaurentPoly.zero()
    assert A.module(A.alive, A.alive).basis(0) == []
    assert A.summary()["truncations"] == {}
    assert scanned == []


@pytest.mark.parametrize("datum,wt,beta", NONZERO_DESK_ALGEBRAS)
def test_truncation_module_basis_matches_the_window_rule(datum, wt, beta):
    # a cyclotomic module builds quotient blocks only in the nonzero
    # degrees and cuts its sequences to alive ones; the reference builds
    # alive blocks at every degree of the window
    A = CycAlgebra(datum, wt, beta)
    seqs = A.alive[::2]
    every = seqs_of(A.beta)
    for side, seq_of in (("right", lambda m: m.seq), ("left", left_seq)):
        rows, cols = (every, seqs) if side == "right" else (seqs, every)
        M = A.module(rows, cols, side, None)
        for d in range(A.dmin - 1, A.dmax + 2):
            window = A.quotient_basis(d) if A.dmin <= d <= A.dmax else []
            want = [m for m in window if seq_of(m) in seqs]
            assert M.basis(d) == want, (side, d)


@pytest.mark.parametrize("datum,wt,beta", NONZERO_DESK_ALGEBRAS)
def test_a_live_sequence_declared_dead_fails_at_construction(monkeypatch,
                                                            datum, wt, beta):
    # the bounds declare a sequence dead whose idempotent survives in the
    # quotient; normal forms would silently drop its monomials, so the
    # construction itself must refuse
    A = CycAlgebra(datum, wt, beta)
    live = next(nu for nu in A.alive if A.corner([nu], [nu]))
    alive_seqs = cyclotomic.alive_seqs
    monkeypatch.setattr(cyclotomic, "alive_seqs", lambda beta, table: tuple(
        nu for nu in alive_seqs(beta, table) if nu != live))
    with pytest.raises(AssertionError, match="bounds are wrong"):
        CycAlgebra(datum, wt, beta)


def block_rows(space, d):
    """Every ideal row of every block of degree d."""
    out = []
    for lam in space.seqs:
        for mu in space.seqs:
            colset = set(space.block_columns(lam, mu, d))
            out.extend(space._ideal_rows(lam, mu, d, colset))
    return out


@pytest.mark.parametrize("qspec,integral",
                         [(std(A2), True), (A2_HALF, False)],
                         ids=["standard", "half"])
def test_ideal_rows_are_integral_exactly_for_an_integral_qspec(qspec,
                                                                integral):
    space = IdealSpace(get_engine(A2, 3, qspec), Weight((1, 1)), (2, 1))
    types = {type(c) for d in range(-2, 5) for row in block_rows(space, d)
             for c in row.values()}
    assert int in types
    assert (Fraction not in types) == integral


def test_normal_forms_are_int_exactly_where_integral():
    A = CycAlgebra(A2, Weight((1, 1)), (2, 1))
    assert all(type(c) is int for _, _, c in A.qspec.terms(0, 1))
    eng = A.engine
    basis = [m for d in sorted(A.graded_dims()) for m in A.quotient_basis(d)]
    nonzero = 0
    for a in basis:
        for b in basis:
            nf = A.nf(eng.multiply({a: 1}, {b: 1}))
            # exact values only, never a float, and an int iff integral
            assert all(type(c) in (int, Fraction) for c in nf.values())
            assert all((type(c) is int) == (c.denominator == 1)
                       for c in nf.values())
            nonzero += bool(nf)
    assert nonzero


def test_vanishing_run_stops_before_the_window_top(monkeypatch):
    # window [-2, 10], but nothing survives above degree 2
    A = CycAlgebra(A1AFF, Weight((1, 0)), (2, 1))
    assert (A.dmin, A.dmax) == (-2, 10)
    scanned = []
    block_basis = A.space.block_basis
    monkeypatch.setattr(A.space, "block_basis", lambda lam, mu, d: (
        scanned.append(d) or block_basis(lam, mu, d)))
    dims = A.graded_dims()
    assert max(dims) == 2
    # the block scans stop short of the window top
    assert max(scanned) < A.dmax
    assert A.summary()["window"] == [-2, 10]


def test_block_scan_runs_past_zeros_up_to_its_largest_crossing_degree(
        monkeypatch):
    # The one block of A1 at beta = 2 has crossing degrees -2 and 0 and
    # dots of degree 2.  Faked dimensions that vanish in degrees -1 and 0,
    # a run of two above the least crossing degree but not above the
    # largest, and come back in degree 2 must still be seen there: such
    # zeros certify nothing.
    A = CycAlgebra(A1, Weight((2,)), (2,))
    (seq,) = A.alive
    assert sorted(crossing_degree(A1, w, seq)
                  for w in A.space.transporter(seq, seq)) == [-2, 0]
    assert A.dmax >= 3
    fake = {-2: 1, 2: 1}
    monkeypatch.setattr(A.space, "block_basis",
                        lambda lam, mu, d: ["m"] * fake.get(d, 0))
    assert A.corner([seq], [seq]).coeffs == fake
    assert A.graded_dims() == fake
    assert A.summary()["truncations"] == {"i,i|i,i": {"-2": 1, "2": 1}}


def test_scan_until_vanishing_needs_a_run_above_top():
    dims = {0: 1, 4: 1}

    def scan(top, step):
        seen = []
        out = scan_until_vanishing(
            lambda d: seen.append(d) or dims.get(d, 0), 0, 10, top, step
        )
        return out, max(seen)

    # zeros at or below top do not count towards the run
    assert scan(top=1, step=2) == ({0: 1}, 3)
    assert scan(top=3, step=2) == ({0: 1, 4: 1}, 6)
    assert scan(top=3, step=4) == ({0: 1, 4: 1}, 8)
    # the window top still bounds the scan
    assert scan(top=8, step=2) == ({0: 1, 4: 1}, 10)


# ---- idempotents certified through the right strand embedding --------


def _sl2_enlarged_algebras():
    """The algebras at beta + alpha_i that the sl2 suite reaches from
    each of its betas: every beta one strand past the row's nmax."""
    _, _, rows = checks.DESK["sl2"]
    return [(datum, wt, beta) for datum, weights, nmax, _ in rows
            for wt in weights
            for beta in weighted_comps((1,) * datum.rank, nmax + 1)]


def _certified_algebras():
    """The desk algebras, the sl2 enlargements and the non-integral
    table, each once, as pytest params named by labels, levels, beta
    and table."""
    algebras = ([(*a, None) for a in DESK_ALGEBRAS]
                + [(*a, None) for a in _sl2_enlarged_algebras()]
                + [(A2, Weight((1, 1)), (2, 1), A2_HALF)])
    out = {}
    for datum, wt, beta, qspec in algebras:
        name = "{}-L{}-b{}-{}".format(
            "".join(datum.labels), "".join(map(str, wt.levels)),
            "".join(map(str, beta)), "std" if qspec is None else "half")
        out.setdefault(name, pytest.param(datum, wt, beta, qspec, id=name))
    return list(out.values())


CERTIFIED_ALGEBRAS = _certified_algebras()


def fresh_space(datum, wt, beta, qspec):
    """A full-family space out of the shared registry: it certifies
    nothing, so every normal form builds its block."""
    return IdealSpace(get_engine(datum, sum(beta), qspec), wt, beta)


@pytest.mark.parametrize("datum,wt,beta,qspec", CERTIFIED_ALGEBRAS)
def test_unit_in_ideal_matches_a_fresh_reduction(datum, wt, beta, qspec):
    fresh = fresh_space(datum, wt, beta, qspec)
    for nu in seqs_of(beta):
        want = not fresh.reduce(fresh.engine.idempotent(nu))
        assert unit_in_ideal(datum, wt, nu, qspec) == want, nu
    assert not fresh.certified
    # every sequence is now recorded on the shared space, on one side
    space = get_ideal_space(datum, wt, beta, qspec)
    assert space.certified == {nu for nu in seqs_of(beta)
                               if unit_in_ideal(datum, wt, nu, qspec)}
    assert space.outside == set(seqs_of(beta)) - space.certified


# ---- idempotents certified in the block of tau_{w_Y} e(nu) -------------

G2 = build_cartan(("a", "b"), [[2, -3], [-1, 2]])
A22 = build_cartan(("a", "b"), [[2, -4], [-1, 2]])  # A_2^(2)
# Q_12(u, v) = u + 2v: not the standard table, and not symmetric in u, v
A2_U2V = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})


def _run_reversal_cases():
    """(datum, Lambda, beta, qspec): A1 at levels up to 3 on up to 4
    strands, and each rank-2 datum, A2 with Q_12 = u + 2v among them, at
    levels summing to at most 2 on up to 3 strands."""
    cases = [(A1, Weight((L,)), (n,), None)
             for L in range(4) for n in range(1, 5)]
    levels = [lv for lv in itertools.product(range(3), repeat=2)
              if sum(lv) <= 2]
    for datum, qspec in [(A2, None), (A1AFF, None), (B2, None), (G2, None),
                         (A22, None), (A2, A2_U2V)]:
        cases += [(datum, Weight(lv), beta, qspec) for lv in levels
                  for n in range(1, 4) for beta in weighted_comps((1, 1), n)]
    return cases


def test_unit_in_ideal_matches_a_degree_zero_reduction(monkeypatch):
    # a registry of its own, so every answer is certified here, not read
    # from a memo another test left
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    by_block = 0
    for datum, wt, beta, qspec in _run_reversal_cases():
        fresh = fresh_space(datum, wt, beta, qspec)
        for nu in seqs_of(beta):
            want = not fresh.reduce(fresh.engine.idempotent(nu))
            got = unit_in_ideal(datum, wt, nu, qspec)
            assert got == want, (datum.labels, wt.levels, nu, qspec)
            by_block += want and not (
                len(nu) >= 2 and unit_in_ideal(datum, wt, nu[:-1], qspec))
    # some answers had no prefix certificate, the case under test
    assert by_block
    # the colour class {0, 2} of (1, 0, 1) is not a run
    assert not unit_in_ideal(A2, Weight((0, 2)), (1, 0, 1))


def _runs(nu):
    """(start, length) of each maximal run of adjacent equal colours."""
    out, start = [], 0
    for _, group in itertools.groupby(nu):
        m = len(list(group))
        out.append((start, m))
        start += m
    return out


def _dot_exponents(n, runs, bound):
    """Every exps on n strands with exps[start + k] <= bound(m, k) on
    each run (start, m) and no dots elsewhere."""
    ranges = [range(1)] * n
    for start, m in runs:
        for k in range(m):
            ranges[start + k] = range(bound(m, k) + 1)
    return itertools.product(*ranges)


@pytest.mark.parametrize("datum,nu", [
    (A1, (0, 0)),
    (A1, (0, 0, 0)),
    (A1, (0, 0, 0, 0)),
    (B2, (0, 0, 0)),
    (B2, (1, 1, 1)),
    (B2, (1, 0, 0, 1)),
], ids=["A1-2", "A1-3", "A1-4", "B2-sss", "B2-lll", "B2-lssl"])
def test_the_idempotent_lies_in_the_span_of_x_tau_w_y_x(datum, nu):
    n = len(nu)
    runs = _runs(nu)
    w = [0] * n
    for start, m in runs:
        for k in range(m):
            w[start + k] = start + m - 1 - k
    assert cyclotomic.run_reversal(nu) == tuple(w)
    word = canonical_word(tuple(w))
    eng = get_engine(datum, n)
    tau_wy = eng.right_mult_word(eng.idempotent(nu), word)
    assert tau_wy == {BasisMonomial(word, (0,) * n, nu): 1}
    # x^a tau_{w_Y} x^b e(nu), a below the staircase (m-1, ..., 0) and b
    # below the reversed staircase on every run
    span = SubspaceBasis(BasisMonomial.sort_key)
    for a in _dot_exponents(n, runs, lambda m, k: m - 1 - k):
        left = eng.multiply({BasisMonomial((), a, nu): 1}, tau_wy)
        for b in _dot_exponents(n, runs, lambda m, k: k):
            span.add(eng.multiply(left, {BasisMonomial((), b, nu): 1}))
    assert span.contains(eng.idempotent(nu))


def test_a_zero_one_strand_past_the_top_builds_one_column(monkeypatch):
    # a registry of its own, so the blocks are the ones this build makes
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    A = CycAlgebra(A1, Weight((4,)), (5,))
    assert A.is_zero()
    nu = (0,) * 5
    ((key, (cols, sb)),) = A.space._blocks.items()
    assert key == (nu, nu, -20)
    assert cols == [BasisMonomial(canonical_word((4, 3, 2, 1, 0)), (0,) * 5,
                                  nu)]
    assert sb.rank == 1


# small algebras with an alive sequence whose idempotent lies in the
# ideal, so that `block_dims` answers some blocks with no scan
SKIPPING_ALGEBRAS = [
    (A2, Weight((1, 1)), (2, 1)),
    (B2, Weight((1, 0)), (2, 1)),
    (B2, Weight((1, 1)), (1, 2)),
    (A1AFF, Weight((1, 0)), (2, 1)),
    (A1AFF, Weight((1, 0)), (2, 2)),
    (A1AFF, Weight((1, 1)), (1, 2)),
]


@pytest.mark.parametrize("datum,wt,beta", SKIPPING_ALGEBRAS)
def test_block_dims_match_a_direct_scan(datum, wt, beta):
    A = CycAlgebra(datum, wt, beta)
    fresh = fresh_space(datum, wt, beta, A.qspec)
    skipped = 0
    for lam in A.alive:
        for mu in A.alive:
            taus = [tdeg for _, tdeg in fresh.crossings(mu, lam)]
            step = max(datum.form(i, i) for i in mu)
            want = scan_until_vanishing(
                lambda d: len(fresh.block_basis(lam, mu, d)),
                max(min(taus), A.dmin), A.dmax, max(taus), step)
            assert A.block_dims(lam, mu) == want, (lam, mu)
            skipped += lam in A.space.certified or mu in A.space.certified
    assert skipped
    assert not fresh.certified


@pytest.mark.parametrize("datum,wt,beta", NONZERO_DESK_ALGEBRAS)
def test_rebuilt_quotients_read_memos_equal_to_a_fresh_computation(
        monkeypatch, datum, wt, beta):
    # twice on the warm registry, the second build reading the space's
    # memos, and once on a registry of its own
    warm = [CycAlgebra(datum, wt, beta) for _ in range(2)]
    assert warm[0].space is warm[1].space
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    cold = CycAlgebra(datum, wt, beta)
    assert cold.space is not warm[0].space
    table = nilpotency_table(datum, wt, beta, std(datum))
    alive = alive_seqs(beta, table)
    window = alive_window(datum, sum(beta), table, alive)
    summary = cold.summary()
    for A in warm + [cold]:
        assert A.table == table
        assert A.alive == alive
        assert (A.dmin, A.dmax) == window
        assert A.summary() == summary
    # every memoized basis, on either space, against a fresh space's
    fresh = fresh_space(datum, wt, beta, std(datum))
    for space in (warm[0].space, cold.space):
        assert space._bases
        for key, basis in space._bases.items():
            assert basis == fresh.block_basis(*key), key
            assert basis is space.block_basis(*key)


def test_a_mutated_basis_leaves_later_answers_unchanged():
    # block bases are shared lists; a module copies them into its own
    A = CycAlgebra(A2, Weight((1, 1)), (2, 1))
    want = {d: list(A.quotient_basis(d)) for d in A.graded_dims()}
    blocks = {key: list(b) for key, b in A.space._bases.items()}
    for d in want:
        A.quotient_basis(d).clear()
        A.module(A.alive, A.alive).basis(d).append("junk")
    B = CycAlgebra(A2, Weight((1, 1)), (2, 1))
    assert B.space is A.space
    for d, basis in want.items():
        assert basis
        assert B.quotient_basis(d) == basis
        assert A.module(A.alive, A.alive).basis(d) == basis
    for key, basis in blocks.items():
        assert A.space.block_basis(*key) == basis
    # the free space hands out the engine's column lists themselves
    free = free_space(A2, (2, 1))
    seqs = seqs_of((2, 1))
    cols = {d: list(TruncationModule(free, seqs, seqs).basis(d))
            for d in range(-2, 5)}
    for d in cols:
        TruncationModule(free, seqs, seqs).basis(d).clear()
    for d, basis in cols.items():
        assert TruncationModule(free, seqs, seqs).basis(d) == basis
    assert any(cols.values())


def test_only_the_last_strand_may_be_dropped():
    # with Lambda = (1, 0), e(1) lies in the ideal (its level is 0) while
    # e(0, 1) does not: the left embedding does not map the ideal into
    # the ideal, since the cyclotomic generator sits on the first strand
    wt = Weight((1, 0))
    assert unit_in_ideal(A2, wt, (1,))
    assert not unit_in_ideal(A2, wt, (0, 1))
    fresh = fresh_space(A2, wt, (1, 1), std(A2))
    assert fresh.reduce(fresh.engine.idempotent((0, 1)))
    # the right embedding: e(1) in the ideal gives e(1, 0) in it
    assert unit_in_ideal(A2, wt, (1, 0))
    assert not fresh.reduce(fresh.engine.idempotent((1, 0)))


def _random_element(space, rng, degrees):
    """An element with a few monomials in one random degree of every
    block of `space`, dead sequences included."""
    E = {}
    for lam in space.seqs:
        for mu in space.seqs:
            for d in rng.sample(degrees, 2):
                cols = space.block_columns(lam, mu, d)
                for m in rng.sample(cols, min(3, len(cols))):
                    E[m] = rng.choice([-2, -1, 1, 3, Fraction(1, 2)])
    return E


@pytest.mark.parametrize("datum,wt,beta,qspec",
                         [a for a in CERTIFIED_ALGEBRAS
                          if sum(a.values[2]) <= 3])
def test_reduce_with_certified_sequences_matches_a_fresh_space(datum, wt,
                                                              beta, qspec):
    A = CycAlgebra(datum, wt, beta, qspec)
    fresh = fresh_space(datum, wt, beta, qspec)
    # every dead sequence is certified by construction
    assert set(seqs_of(beta)) - set(A.alive) <= A.space.certified
    degrees = list(_quotient_degrees(A))
    rng = random.Random(repr((beta, wt.levels)))
    for _ in range(4):
        E = _random_element(A.space, rng, degrees)
        assert A.nf(E) == fresh.reduce(E)
    assert not fresh.certified


@pytest.mark.parametrize("datum,wt,beta", [
    (A1, Weight((1,)), (3,)),
    (A1, Weight((1,)), (4,)),
    (A2, Weight((1, 0)), (4, 0)),
], ids=["A1-L1-b3", "A1-L1-b4", "A2-L10-b40"])
def test_zero_quotient_through_a_zero_prefix_builds_no_block(monkeypatch,
                                                             datum, wt,
                                                             beta):
    # a registry of its own, so no other test has built these blocks
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    A = CycAlgebra(datum, wt, beta)
    space = A.space
    assert A.alive and A.is_zero()
    assert A.graded_dims() == {}
    for nu in space.seqs:
        for d in range(-12, 13, 2):
            cols = space.block_columns(nu, nu, d)
            assert A.nf({m: 1 for m in cols}) == {}
        assert A.nf(A.engine.idempotent(nu)) == {}
    # the zero was proved once, on two strands: no space above built a
    # block, this one included
    (nu,) = space.seqs
    for k in range(2, len(nu) + 1):
        sub = tuple(nu[:k].count(i) for i in range(datum.rank))
        assert bool(get_ideal_space(datum, wt, sub)._blocks) == (k == 2)


def test_spaces_of_one_engine_share_each_crossing_tuple():
    # a crossing tuple depends on the engine and (src, dst) alone, so the
    # full space, a space of another weight and the one-sided spaces of
    # K0 and K1 all read the one tuple the engine keeps
    bm = Bimodules(A2, Weight((1, 0)), (1, 1), 0)
    full = get_ideal_space(A2, Weight((1, 0)), (2, 1))
    other = IdealSpace(full.engine, Weight((1, 1)), (2, 1))
    assert bm.engine is full.engine
    seqs = seqs_of((2, 1))
    for src in seqs:
        for dst in seqs:
            got = full.crossings(src, dst)
            assert got == tuple((canonical_word(w), crossing_degree(A2, w, src))
                                for w in full.transporter(src, dst))
            for space in (other, bm.K0.space, bm.K1.space):
                assert space.crossings(src, dst) is got


def test_only_the_two_sided_ideal_reads_a_certified_left_sequence(
        monkeypatch):
    eng = get_engine(A2, 3)
    wt = Weight((1, 0))
    lam, mu = (0, 1, 0), (1, 0, 0)
    full = IdealSpace(eng, wt, (2, 1))
    one_sided = IdealSpace(eng, wt, (2, 1), full.chains[:-1])
    for space in (full, one_sided):
        space.certified.add(lam)
        assert space.certified_block(mu, lam)
    assert full.certified_block(lam, mu)
    assert not one_sided.certified_block(lam, mu)
    # a certified block builds no row: its echelon form is the identity,
    # its basis is empty and its normal forms are zero
    monkeypatch.setattr(IdealSpace, "_ideal_rows", None)
    d = min(d for d in range(-6, 7) if one_sided.block_columns(mu, lam, d))
    cols, sb = one_sided.block(mu, lam, d)
    assert sb.rows == [{m: 1} for m in cols]
    assert one_sided.block_basis(mu, lam, d) == []
    assert one_sided.reduce({m: 1 for m in cols}) == {}
