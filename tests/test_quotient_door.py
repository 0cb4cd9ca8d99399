"""CycAlgebra as the one way into a quotient, against the paths it
replaced (copied verbatim in `old_quotient_paths`): its window, basis,
graded dimensions, corners, modules and summary, all read from one scan
per block, against the old whole-algebra and per-corner scans on the
desk algebras; and the bimodule window, F, and the S polynomial on every
(datum, weight, beta, i) of the exact, taug and phi suites."""

import json
from fractions import Fraction

import pytest

import old_quotient_paths as old
from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight
from quiverhecke.checks import CHECKS
from quiverhecke.cyclotomic import CycAlgebra
from quiverhecke.laurent import LaurentPoly
from test_cyclotomic import A2, A2_HALF, DESK_ALGEBRAS


def _bimodule_desk():
    """The distinct (datum, weight, beta, i) of the exact, taug and phi
    instances, in desk order."""
    out = []
    for suite in ("exact", "taug", "phi"):
        for thunk in CHECKS[suite]():
            args = thunk.args[:4]
            if args not in out:
                out.append(args)
    return out


BIMODULE_DESK = _bimodule_desk()


def _typed(slots):
    """t-polynomial slots with each coefficient's type, so that an int
    where a Fraction stood shows."""
    return {j: {m: (c, type(c)) for m, c in slot.items()}
            for j, slot in slots.items()}


def test_the_bimodule_desk_is_the_union_of_the_three_suites():
    assert len(BIMODULE_DESK) == 39


@pytest.mark.parametrize("datum,weight,beta,i", BIMODULE_DESK)
def test_bimodules_match_the_old_window_F_and_S(datum, weight, beta, i):
    bim = Bimodules(datum, weight, beta, i)
    assert bim.window == old.default_window(datum, weight, bim.beta_hat)
    F = old.uncut_F(bim)
    lo, hi = bim.window
    for d in range(lo, hi + 1):
        assert bim.F.basis(d) == F.basis(d), d
        for m in bim.K1.basis(d - bim.shift_P):
            v = bim.K0.nf(bim.apply_P({m: Fraction(1)}))
            assert bim.F.nf(v) == F.nf(v)
    assert _typed(bim._tpoly_s()) == _typed(old._tpoly_s(bim))
    assert bim.sub.basis() == old.sub_quotient_basis(bim)


def _cuts(A: CycAlgebra):
    """Row or column sides: every sequence (dead ones included), every
    other one both ways, one alive sequence, and none."""
    seqs = A.space.seqs
    return [seqs, seqs[::2], seqs[1::2], A.alive[:1], ()]


def _assert_matches_the_old_paths(A: CycAlgebra):
    window = old.degree_cap(A.datum, A.weight, A.beta, A.qspec)
    assert A.dmax_bound == window[1]
    if not A.is_zero():
        assert (A.dmin, A.dmax) == window
    for d in range(A.dmin - 2, A.dmax + 3):
        assert A.quotient_basis(d) == old.quotient_basis(A, d)
        assert A.dim_at(d) == old.dim_at(A, d)
    assert A.basis() == [(m, d) for d in sorted(A.graded_dims())
                         for m in old.quotient_basis(A, d)]
    # the per-block table against both old scans
    assert A.graded_dims() == old.graded_dims(A)
    assert A.graded_dim_poly() == LaurentPoly(old.graded_dims(A))
    for lam in A.space.seqs:
        for mu in A.space.seqs:
            assert A.corner([lam], [mu]) == old.corner(A, [lam], [mu])
    for rows in _cuts(A):
        for cols in _cuts(A):
            assert A.corner(rows, cols) == old.corner(A, rows, cols)
            for side in ("right", "left"):
                M = A.module(rows, cols, side)
                M_old = old.module(A, rows, cols, side)
                for d in range(A.dmin - 1, A.dmax + 2):
                    assert M.basis(d) == M_old.basis(d), (side, d)
    # equal field by field and in the order of every key
    assert json.dumps(A.summary()) == json.dumps(old.summary(A))


@pytest.mark.parametrize("datum,wt,beta", DESK_ALGEBRAS)
def test_basis_and_dims_match_the_old_block_sums(datum, wt, beta):
    _assert_matches_the_old_paths(CycAlgebra(datum, wt, beta))


def test_basis_and_dims_match_the_old_block_sums_non_integral_qspec():
    _assert_matches_the_old_paths(
        CycAlgebra(A2, Weight((1, 1)), (2, 1), A2_HALF))
