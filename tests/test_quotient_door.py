"""CycAlgebra as the one way into a quotient, against the paths it
replaced (copied verbatim in `old_quotient_paths`): its window and basis
on the desk algebras, and the bimodule window, F, and the S polynomial
on every (datum, weight, beta, i) of the exact, taug and phi suites."""

from fractions import Fraction

import pytest

import old_quotient_paths as old
from quiverhecke.bimodules import Bimodules
from quiverhecke.cartan import Weight
from quiverhecke.checks import CHECKS
from quiverhecke.cyclotomic import CycAlgebra
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


def _assert_matches_the_old_paths(A: CycAlgebra):
    window = old.degree_cap(A.datum, A.weight, A.beta, A.qspec)
    assert A.dmax_bound == window[1]
    if not A.is_zero():
        assert (A.dmin, A.dmax) == window
        assert A._top == old.graded_scan_top(A)
    for d in range(A.dmin - 2, A.dmax + 3):
        assert A.quotient_basis(d) == old.quotient_basis(A, d)
        assert A.dim_at(d) == old.dim_at(A, d)
    assert A.basis() == [(m, d) for d in sorted(A.graded_dims())
                         for m in old.quotient_basis(A, d)]


@pytest.mark.parametrize("datum,wt,beta", DESK_ALGEBRAS)
def test_basis_and_dims_match_the_old_block_sums(datum, wt, beta):
    _assert_matches_the_old_paths(CycAlgebra(datum, wt, beta))


def test_basis_and_dims_match_the_old_block_sums_non_integral_qspec():
    _assert_matches_the_old_paths(
        CycAlgebra(A2, Weight((1, 1)), (2, 1), A2_HALF))
