"""The corner scan, the F_jE_i tensor and the series comparison of the
sl2, mixed and categorification suites against the helpers they
replaced.

The references below are `CycAlgebra.truncation` and the `checks`
helpers `_corner_sum_poly`, `_fe_tensor` and `_compare_tensor`, copied
verbatim, except that `_fe_tensor` hands its factors their degrees in
the per-pair form `TruncationModule` now takes.  A fixture puts
`truncation` back on `CycAlgebra` for the old corner sum to call.
"""

from functools import partial

import pytest

from quiverhecke import checks
from quiverhecke.bimodules import emb_elt_last
from quiverhecke.cartan import seqs_of
from quiverhecke.checks import DESK, Report, _add_beta, _betas_upto, _sub_beta
from quiverhecke.cyclotomic import CycAlgebra, scan_until_vanishing
from quiverhecke.klr import crossing_degree
from quiverhecke.laurent import LaurentPoly
from quiverhecke.tensors import TruncationModule, algebra_gens, tensor_dim

from test_cyclotomic import NONZERO_DESK_ALGEBRAS


# ---- the old helpers, verbatim ----------------------------------------


def truncation(self, mu, nu) -> LaurentPoly:
    """Graded dimension of e(mu) R^Lambda(beta) e(nu)."""
    mu = tuple(mu)
    nu = tuple(nu)
    if self._zero or mu not in self.alive or nu not in self.alive:
        return LaurentPoly.zero()
    space = self.space
    top = max(
        crossing_degree(self.datum, w, nu)
        for w in space.transporter(nu, mu)
    )
    step = max((self.datum.form(i, i) for i in nu), default=1)
    return LaurentPoly(scan_until_vanishing(
        lambda d: len(space.block_basis(mu, nu, d)),
        self.dmin, self.dmax, top, step))


def _corner_sum_poly(alg: CycAlgebra, rows, cols) -> LaurentPoly:
    total = LaurentPoly({})
    for mu in sorted(rows):
        for nu in sorted(cols):
            total = total + alg.truncation(mu, nu)
    return total


def every_pair(alg: CycAlgebra) -> dict:
    """The nonzero degrees of the whole quotient for each alive pair: the
    `degrees` of the old factors, which held one degree set for all of
    their blocks."""
    dims = alg.graded_dims()
    return {(lam, mu): dims for lam in alg.alive for mu in alg.alive}


def _fe_tensor(datum, weight, beta, i, j, qspec=None):
    """The tensor presenting F_j E_i on the quotient at beta.  Returns
    (per-degree dim function, natural support window) or (None, None)
    when a factor vanishes."""
    sub = _sub_beta(beta, i)
    if sub is None:
        return None, None
    mid = CycAlgebra(datum, weight, sub, qspec)
    big = CycAlgebra(datum, weight, _add_beta(sub, j), qspec)
    here = CycAlgebra(datum, weight, tuple(beta), qspec)
    if mid.is_zero() or big.is_zero() or here.is_zero():
        return None, None
    # each factor is built only in the nonzero degrees of its quotient
    M = TruncationModule(big.space, big.alive,
                         [s for s in big.alive if s[-1] == j], "right",
                         lambda e: emb_elt_last(e, j), every_pair(big))
    N = TruncationModule(here.space, [s for s in here.alive if s[-1] == i],
                         here.alive, "left", lambda e: emb_elt_last(e, i),
                         every_pair(here))
    gens = algebra_gens(datum, sub)
    span = (big.dmin + here.dmin, big.dmax + here.dmax)
    return partial(tensor_dim, M, N, gens), span


def _compare_tensor(rep, fe_fn, span, predicted):
    """Compare per-degree tensor dims against a solved prediction over
    the union of the predicted support and the natural span."""
    if predicted.coeffs:
        lo = predicted.valuation() - 1
        hi = predicted.degree() + 1
        if span is not None:
            lo = min(lo, span[0])
            hi = max(hi, span[1])
    elif span is not None:
        lo, hi = span
    else:
        return None
    fe_coeffs = {}
    for d in range(lo, hi + 1):
        lv = fe_fn(d) if fe_fn is not None else 0
        if lv:
            fe_coeffs[d] = lv
        rv = predicted.coeffs.get(d, 0)
        if lv != rv:
            rep.fail(degree=d, lhs=lv, rhs=rv, identity="tensor side")
            return LaurentPoly(fe_coeffs)
    return LaurentPoly(fe_coeffs)


# ---- cases --------------------------------------------------------------


@pytest.fixture(autouse=True)
def old_truncation(monkeypatch):
    monkeypatch.setattr(CycAlgebra, "truncation", truncation, raising=False)


def desk_instances(suite, nmax=2):
    """(datum, weight, beta, i, j) of each desk instance of an sl2 or
    mixed suite with at most nmax strands; sl2 has j = i."""
    out = []
    for datum, weights, top, tails in DESK[suite][2]:
        for weight in weights:
            for beta in _betas_upto(datum.rank, min(top, nmax)):
                for tail in tails:
                    i, j = tail * (3 - len(tail))
                    out.append((datum, weight, beta, i, j))
    return out


DESK_CASES = desk_instances("sl2") + desk_instances("mixed")
ALGEBRA_CASES = [(datum, wt, beta, i, j)
                 for datum, wt, beta in NONZERO_DESK_ALGEBRAS
                 for i in range(datum.rank) if beta[i]
                 for j in range(datum.rank)]


def test_the_desk_cases_are_every_small_sl2_and_mixed_instance():
    assert len(desk_instances("sl2")) == 45
    assert len(desk_instances("mixed")) == 36


@pytest.mark.parametrize("datum,wt,beta", NONZERO_DESK_ALGEBRAS)
def test_corner_matches_the_summed_truncations(datum, wt, beta):
    A = CycAlgebra(datum, wt, beta)
    seqs = seqs_of(beta)
    for mu in seqs:
        for nu in seqs:
            assert A.corner([mu], [nu]) == truncation(A, mu, nu)
    # unions, dead sequences included, and an empty side
    for rows in (seqs, seqs[::2], seqs[1::2], ()):
        for cols in (seqs, seqs[::2], seqs[1::2]):
            assert A.corner(rows, cols) == _corner_sum_poly(A, rows, cols)


def test_corner_of_the_enlarged_quotient_on_the_desk():
    for datum, wt, beta, i, j in DESK_CASES:
        big = CycAlgebra(datum, wt, _add_beta(beta, j))
        shifted = _sub_beta(_add_beta(beta, j), i)
        rows = [] if shifted is None else [s + (i,) for s in seqs_of(shifted)]
        cols = [s + (j,) for s in seqs_of(beta)]
        assert big.corner(rows, cols) == _corner_sum_poly(big, rows, cols)


def predictions(fe):
    """The true series and four that differ from it: shifted, with a
    term below or far above its support, and zero."""
    lo = fe.valuation() if fe else 0
    hi = fe.degree() if fe else 0
    return [fe, fe.shift(1), fe + LaurentPoly({lo - 1: 1}),
            fe + LaurentPoly({hi + 5: 2}), LaurentPoly.zero()]


def assert_tensor_sides_agree(datum, wt, beta, i, j):
    fe_fn, span = _fe_tensor(datum, wt, beta, i, j)
    fe = checks._fe_tensor(datum, beta, i, j,
                           checks._quotient_modules(datum, wt, None))
    for predicted in predictions(fe):
        old, new = Report("x", {}), Report("x", {})
        partial_fe = _compare_tensor(old, fe_fn, span, predicted)
        agree = checks._tensor_side(new, fe, predicted)
        assert new.to_json() == old.to_json()
        assert agree == (old.status == "pass")
        if agree:
            assert fe == (partial_fe or LaurentPoly.zero())


def test_fe_tensor_on_the_desk():
    for case in DESK_CASES:
        assert_tensor_sides_agree(*case)


@pytest.mark.parametrize("datum,wt,beta,i,j", ALGEBRA_CASES)
def test_fe_tensor_on_the_desk_algebras(datum, wt, beta, i, j):
    assert_tensor_sides_agree(datum, wt, beta, i, j)
