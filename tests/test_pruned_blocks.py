"""Blocks pruned past the certified dot bounds against the unpruned ones:
the bounds themselves, every block's echelon data, quotient summaries,
the one-sided spaces of `bimodules`, and a lowered bound caught."""

import itertools
from fractions import Fraction

import pytest

from quiverhecke import bimodules, checks, cyclotomic
from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight, build_cartan, seqs_of, weighted_comps
from quiverhecke.cyclotomic import CycAlgebra, IdealSpace, nilpotency_table
from quiverhecke.klr import BasisMonomial, get_engine
from quiverhecke.qpolys import QSpec

from old_unpruned_blocks import UnprunedSpace, unpruned_copy

A1 = build_cartan(("i",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
B2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
A1AFF = build_cartan(("0", "1"), [[2, -2], [-2, 2]])
G2 = build_cartan(("a", "b"), [[2, -3], [-1, 2]])
A22 = build_cartan(("a", "b"), [[2, -4], [-1, 2]])  # A_2^(2)
# Q_12(u, v) = u + 2v: not the standard table, and not symmetric in u, v
A2_U2V = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): 2}})
# Q_12(u, v) = u + v/2: a non-integral table, on a quotient that the
# differential tests below build besides ALGEBRAS
A2_HALF = QSpec(A2, {(0, 1): {(1, 0): 1, (0, 1): Fraction(1, 2)}})
NON_INTEGRAL = (A2, Weight((1, 1)), (2, 1), A2_HALF)

# the desk quotients, B2 at (1, 1) on (2, 2), the four dense-simples
# algebras of the benchmark, and two affine A1 quotients on which most
# rows of the left family lie on pruned columns
ALGEBRAS = [
    (A1, Weight((2,)), (2,)),
    (A1, Weight((3,)), (2,)),
    (A2, Weight((1, 1)), (1, 1)),
    (A2, Weight((1, 1)), (2, 1)),
    (B2, Weight((1, 1)), (2, 1)),
    (A1AFF, Weight((1, 0)), (1, 1)),
    (A1AFF, Weight((1, 0)), (2, 1)),
    (A1AFF, Weight((1, 0)), (1, 2)),
    (A1AFF, Weight((2, 0)), (2, 1)),
    (A1, Weight((2,)), (3,)),
    (B2, Weight((1, 1)), (2, 2)),
    (A1, Weight((6,)), (2,)),
    (A1AFF, Weight((2, 0)), (2, 1)),
    (A1, Weight((3,)), (3,)),
    (A1AFF, Weight((1, 1)), (2, 2)),
    (A1AFF, Weight((1, 0)), (3, 2)),
]


def _bound_cases():
    """(datum, Lambda, beta, qspec): A1 at levels 1 to 3 on up to 4
    strands, and each rank-2 datum, A2 with Q_12 = u + 2v among them, at
    every weight of levels at most 2 on up to 3 strands."""
    cases = [(A1, Weight((L,)), (n,), None)
             for L in range(1, 4) for n in range(1, 5)]
    levels = list(itertools.product(range(3), repeat=2))
    for datum, qspec in [(A2, None), (A1AFF, None), (B2, None), (G2, None),
                         (A22, None), (A2, A2_U2V)]:
        cases += [(datum, Weight(lv), beta, qspec) for lv in levels
                  for n in range(1, 4) for beta in weighted_comps((1, 1), n)]
    return cases


def test_every_positive_dot_bound_reduces_to_zero_unpruned():
    # the claim pruning rests on: x_k^N e(mu) lies in the ideal for every
    # sequence and position with N = rows[k][mu_k] >= 1, reduced with
    # every column of its block eliminated
    count = 0
    for datum, wt, beta, qspec in _bound_cases():
        old = UnprunedSpace(get_engine(datum, sum(beta), qspec), wt, beta)
        table = nilpotency_table(datum, wt, beta, old.engine.qspec)
        zero = (0,) * sum(beta)
        for mu in seqs_of(beta):
            for k, c in enumerate(mu):
                N = table[k][c]
                if not N:
                    continue
                exps = zero[:k] + (N,) + zero[k + 1:]
                elt = {BasisMonomial((), exps, mu): 1}
                assert not old.reduce(elt), (datum.labels, wt.levels, mu, k)
                count += 1
    assert count == 1374


def assert_blocks_equal_unpruned(monkeypatch, datum, wt, beta, qspec=None):
    """Every block the quotient builds, on a registry of its own, rebuilt
    on spaces that certify nothing, so no certificate stands in for rows:
    the new space takes its rows from the mirrored family and prunes, the
    `UnprunedSpace` takes them from the left family and prunes nothing.
    Returns the new space."""
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    A = CycAlgebra(datum, wt, beta, qspec)
    A.summary()
    new = IdealSpace(A.engine, wt, beta)
    old = unpruned_copy(new)
    pruned = 0
    for key in A.space._blocks:
        cols, sb = new.block(*key)
        old_cols, old_sb = old.block(*key)
        assert cols == old_cols
        assert sb.rank == old_sb.rank
        assert sb.pivot_columns() == old_sb.pivot_columns()
        for m in cols:
            assert sb.normal_form({m: 1}) == old_sb.normal_form({m: 1})
            assert new.reduce({m: 1}) == old.reduce({m: 1})
        assert new.block_basis(*key) == old.block_basis(*key)
        pruned += sum(map(new.pruned, cols))
    # A1 at level 2 on (3,) is zero, certified in blocks of no dots
    assert pruned or A.is_zero()
    return new


@pytest.mark.parametrize("datum,wt,beta", ALGEBRAS)
def test_pruned_blocks_equal_unpruned_blocks(monkeypatch, datum, wt, beta):
    assert_blocks_equal_unpruned(monkeypatch, datum, wt, beta)


def test_pruned_blocks_equal_unpruned_blocks_non_integral_qspec(monkeypatch):
    new = assert_blocks_equal_unpruned(monkeypatch, *NON_INTEGRAL)
    # the mirrored rows hold Fractions, so the comparison above covers
    # blocks eliminated from non-integral rows
    assert any(type(c) is not int for key in new._blocks
               for row in new._mirrored_rows(*key, set(new._blocks[key][0]))
               for c in row.values())


def _unprune(monkeypatch):
    """Registries of their own, on which every space is unpruned."""
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    monkeypatch.setattr(cyclotomic, "_cert_memo", {})
    monkeypatch.setattr(cyclotomic, "IdealSpace", UnprunedSpace)
    monkeypatch.setattr(bimodules, "IdealSpace", UnprunedSpace)


def assert_summary_and_block_dims_equal_unpruned(monkeypatch, datum, wt, beta,
                                                qspec=None):
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    A = CycAlgebra(datum, wt, beta, qspec)
    want = A.summary()
    dims = {(lam, mu): A.block_dims(lam, mu)
            for lam in A.alive for mu in A.alive}
    _unprune(monkeypatch)
    B = CycAlgebra(datum, wt, beta, qspec)
    assert type(B.space) is UnprunedSpace
    assert B.summary() == want
    assert {(lam, mu): B.block_dims(lam, mu)
            for lam in B.alive for mu in B.alive} == dims


@pytest.mark.parametrize("datum,wt,beta", ALGEBRAS)
def test_summaries_and_block_dims_equal_unpruned(monkeypatch, datum, wt, beta):
    assert_summary_and_block_dims_equal_unpruned(monkeypatch, datum, wt, beta)


def test_summaries_and_block_dims_equal_unpruned_non_integral_qspec(
        monkeypatch):
    assert_summary_and_block_dims_equal_unpruned(monkeypatch, *NON_INTEGRAL)


def _bimodule_cases():
    """(datum, Lambda, beta, i) of every exact, phi and taug instance of
    the desk, each once."""
    cases = {}
    for suite in ("exact", "phi", "taug"):
        for thunk in checks.CHECKS[suite]():
            datum, weight, beta, i = thunk.args
            cases[(tuple(datum.labels), weight.levels, beta, i)] = thunk.args
    return list(cases.values())


def _basis(space, module, d):
    return sorted((m for pair in module.pairs
                   for m in space.block_basis(*pair, d)),
                  key=BasisMonomial.sort_key)


@pytest.mark.parametrize("datum,wt,beta,i", _bimodule_cases())
def test_bimodule_bases_and_p_images_equal_unpruned(datum, wt, beta, i):
    bim = Bimodules(datum, wt, beta, i)
    old = {name: unpruned_copy(getattr(bim, name).space)
           for name in ("K0", "K1")}
    lo, hi = bim.window
    for d in range(lo, hi + 1):
        for name, space in old.items():
            module = getattr(bim, name)
            assert module.basis(d) == _basis(space, module, d), (name, d)
        for m in bim.K1.basis(d):
            E = bim.apply_P({m: 1})
            assert bim.K0.nf(E) == old["K0"].reduce(E), (d, m)


def test_bimodule_cases_are_the_39_of_the_desk_and_prune():
    cases = _bimodule_cases()
    assert len(cases) == 39
    # the comparison above meets pruned columns on both sides
    pruned = {"K0": 0, "K1": 0}
    for args in cases:
        bim = Bimodules(*args)
        lo, hi = bim.window
        for name in pruned:
            K = getattr(bim, name)
            pruned[name] += sum(
                K.space.pruned(m) for pair in K.pairs
                for d in range(lo, hi + 1)
                for m in K.space.block_columns(*pair, d))
    assert pruned["K0"] and pruned["K1"]


@pytest.mark.parametrize("pos", [0, 1])
def test_a_zero_bound_at_a_live_position_is_still_refused(monkeypatch, pos):
    # a zero bound prunes nothing, so the dead check reduces for real
    monkeypatch.setattr(cyclotomic, "_ideal_spaces", {})
    table = nilpotency_table

    def zeroed(datum, weight, beta, qspec):
        rows = table(datum, weight, beta, qspec)
        if len(rows) > pos:
            rows[pos] = {i: 0 for i in rows[pos]}
        return rows

    monkeypatch.setattr(cyclotomic, "nilpotency_table", zeroed)
    with pytest.raises(AssertionError, match="bounds are wrong"):
        CycAlgebra(A1, Weight((3,)), (2,))


def _lowered(datum, weight, beta, qspec):
    """The nilpotency table with its position-1 bound of the least label
    lowered by one, where that leaves it positive."""
    rows = nilpotency_table(datum, weight, beta, qspec)
    if len(rows) > 1:
        row = dict(rows[1])
        i = min(row)
        if row[i] > 1:
            row[i] -= 1
        rows[1] = row
    return rows


CAUGHT = [
    (checks.check_categorification, (checks.A1, Weight((2,)), 3)),
    (checks.check_exact, (checks.A1, Weight((2,)), (1,), 0)),
    (checks.check_sl2, (checks.A1, Weight((3,)), (2,), 0)),
    (checks.check_sl2, (checks.A2, Weight((1, 1)), (1, 1), 0)),
]


@pytest.mark.parametrize("check,args", CAUGHT,
                         ids=[f"{c.__name__}-{i}" for i, (c, _) in
                              enumerate(CAUGHT)])
def test_a_lowered_dot_bound_is_caught(monkeypatch, check, args):
    # pruning leans on the bounds inside the window, so a bound one too
    # low changes answers that the suites check, where the unpruned
    # blocks leave them as they were
    def run(lowered, prune):
        with monkeypatch.context() as m:
            if prune:
                m.setattr(cyclotomic, "_ideal_spaces", {})
                m.setattr(cyclotomic, "_cert_memo", {})
            else:
                _unprune(m)
            if lowered:
                m.setattr(cyclotomic, "nilpotency_table", _lowered)
            return check(*args).status

    assert run(lowered=False, prune=True) == "pass"
    assert run(lowered=True, prune=False) == "pass"
    assert run(lowered=True, prune=True) == "fail"


def test_phi_by_division_in_descending_k_equals_fresh_instances():
    args = (A2, Weight((1, 1)), (1, 1), 0)
    bim = Bimodules(*args)
    ks = range(4, -1, -1)
    got = [bim.phi_by_division(k) for k in ks]
    assert got == [Bimodules(*args).phi_by_division(k) for k in ks]
    assert any(got)
