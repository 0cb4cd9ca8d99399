"""Kernel bimodules K0, K1, F on a widened algebra, the maps between
them, their composite multipliers, and the coefficient polynomials
phi_k extracted by two independent routes."""

from fractions import Fraction
from inspect import signature

import pytest

import old_tracked_basis as old
from quiverhecke import bimodules, checks
from quiverhecke.bimodules import (
    Bimodules,
    emb_first,
    emb_last,
    first_strand_chains,
    shifted_strand_chains,
)
from quiverhecke.cartan import Weight, build_cartan, seqs_of
from quiverhecke.checks import DESK, _betas_upto
from quiverhecke.cyclotomic import IdealSpace, unit_in_ideal
from quiverhecke.klr import BasisMonomial, min_tau_degree
from quiverhecke.laurent import LaurentPoly
from quiverhecke.linalg import SubspaceBasis
from quiverhecke.qpolys import QSpec
from quiverhecke.tensors import TruncationModule

A1 = build_cartan(("0",), [[2]])
A2 = build_cartan(("1", "2"), [[2, -1], [-1, 2]])

E1 = BasisMonomial((), (0,), (0,))
X1 = BasisMonomial((), (1,), (0,))


def test_embeddings_add_a_strand():
    m = BasisMonomial((0,), (1, 0), (0, 1))
    last = emb_last(m, 1)
    assert last.word == (0,)
    assert last.exps == (1, 0, 0)
    assert last.seq == (0, 1, 1)
    first = emb_first(m, 1)
    assert first.word == (1,)
    assert first.exps == (0, 1, 0)
    assert first.seq == (1, 0, 1)


def test_chain_families():
    assert first_strand_chains(3) == ((0, ()), (0, (0,)))
    assert shifted_strand_chains(3) == ((1, ()), (1, (1,)))


def test_min_tau_degree():
    assert min_tau_degree(A1, (2,)) == -2
    assert min_tau_degree(A1, (3,)) == -6
    # opposite-color crossings raise degree, so the best A2 word at
    # alpha_1 + alpha_2 is the identity
    assert min_tau_degree(A2, (1, 1)) == 0
    assert min_tau_degree(A2, (2, 1)) == -2


def test_frozen_dimensions_a1():
    bm = Bimodules(A1, Weight((2,)), (1,), 0)
    assert bm.window == (-2, 8)
    assert bm.shift_P == 2
    k0 = bm.K0.graded_dim_poly(bm.window)
    assert k0 == LaurentPoly({-2: 1, 0: 3, 2: 4, 4: 4, 6: 4, 8: 4})
    assert bm.K1.graded_dim_poly(bm.window) == k0
    assert bm.F.graded_dim_poly(bm.window) == LaurentPoly({-2: 1, 0: 2, 2: 1})


def test_frozen_dimensions_a2():
    bm = Bimodules(A2, Weight((1, 0)), (1, 1), 0)
    assert bm.shift_P == 1
    k0 = bm.K0.graded_dim_poly(bm.window)
    assert k0 == LaurentPoly(
        {-1: 1, 0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 2, 8: 1}
    )
    # the full quotient upstairs vanishes here, so F is zero and P is
    # an isomorphism after the shift
    assert not bm.F.graded_dim_poly(bm.window)
    shifted = bm.K1.graded_dim_poly(bm.window).shift(bm.shift_P)
    assert LaurentPoly({d: c for d, c in shifted.coeffs.items()
                        if d <= bm.window[1]}) == k0


def _exactness(bm, degrees):
    """P is injective, lands in the kernel of the projection, and the
    dimensions force its image to be that whole kernel."""
    for d in degrees:
        src = bm.K1.basis(d - bm.shift_P)
        sb = SubspaceBasis(keyfunc=BasisMonomial.sort_key)
        for m in src:
            img = bm.K0.nf(bm.apply_P({m: Fraction(1)}))
            assert not bm.F.nf(img), "image of P escapes the kernel"
            sb.add(img)
        assert sb.rank == len(src), "P dropped rank"
        assert len(bm.K0.basis(d)) == len(src) + len(bm.F.basis(d))


def test_exact_sequence_a1_level2():
    bm = Bimodules(A1, Weight((2,)), (1,), 0)
    _exactness(bm, range(-2, 5))


def test_exact_sequence_a2():
    bm = Bimodules(A2, Weight((1, 0)), (1, 1), 1)
    _exactness(bm, range(bm.window[0], 4))


def test_composite_multipliers():
    bm = Bimodules(A2, Weight((1, 0)), (1, 1), 0)
    pq = bm.pq_poly()
    for d in range(bm.window[0], 3):
        for m in bm.K1.basis(d):
            one = {m: Fraction(1)}
            via_maps = bm.K1.nf(bm.apply_Q(bm.apply_P(one)))
            nu = m.seq[1:]
            direct = bm.K1.nf(bm.engine.multiply(one, bm.qp_poly(nu)))
            assert via_maps == direct
        for m in bm.K0.basis(d):
            one = {m: Fraction(1)}
            via_maps = bm.K0.nf(bm.apply_P(bm.apply_Q(one)))
            direct = bm.K0.nf(bm.engine.multiply(one, pq))
            assert via_maps == direct


def test_phi_frozen_a1_level2():
    bm = Bimodules(A1, Weight((2,)), (1,), 0)
    assert bm.level_pairing == 0
    assert bm.gamma_inverse() == -1
    phi0 = bm.phi_by_chase(0)[0]
    assert phi0 == {(0, E1): Fraction(-1)}
    phi1 = bm.phi_by_chase(1)[0]
    assert phi1 == {(1, E1): Fraction(-1), (0, X1): Fraction(-2)}
    for k in range(3):
        assert bm.phi_by_division(k) == bm.phi_by_chase(k)[0]


def test_phi_twisted_units():
    # a non-unit extreme coefficient separates gamma^-1 from gamma, so
    # this case pins the direction of the unit in both routes
    qs = QSpec(A2, {(0, 1): {(1, 0): Fraction(2), (0, 1): Fraction(3)}})
    assert all(type(c) is int for _, _, c in qs.terms(0, 1))
    bm = Bimodules(A2, Weight((1, 1)), (1, 0), 1, qspec=qs)
    assert bm.level_pairing == 2
    assert bm.gamma_inverse() == 3
    # integral units, but gamma^-1 stays a Fraction for the division
    assert type(bm.gamma_inverse()) is Fraction
    expect = {(2, E1): Fraction(3)}
    assert bm.phi_by_chase(0)[0] == expect
    assert bm.phi_by_division(0) == expect


def test_phi_vanishing_and_triangular_term():
    # pairing -1: phi_0 dies and the correction term is gamma^-1 times
    # the unit of the quotient
    bm = Bimodules(A1, Weight((1,)), (1,), 0)
    assert bm.level_pairing == -1
    phi0, _, e_psi0 = bm.phi_by_chase(0)
    assert phi0 == {}
    assert e_psi0 == {E1: Fraction(-1)}
    assert bm.phi_by_division(0) == {}


def test_phi_recursion():
    bm = Bimodules(A1, Weight((2,)), (2,), 0)
    for k in range(3):
        phi, _, e_psi = bm.phi_by_chase(k)
        nxt = bm.phi_by_chase(k + 1)[0]
        model = {}
        for (j, m), c in phi.items():
            model[(j + 1, m)] = model.get((j + 1, m), 0) + c
        for m, c in e_psi.items():
            model[(0, m)] = model.get((0, m), 0) + c
        model = {key: c for key, c in model.items() if c}
        assert nxt == model


def test_phi_monic_of_predicted_degree():
    bm = Bimodules(A2, Weight((1, 1)), (1, 0), 1)
    lvl = bm.level_pairing
    assert lvl >= 0
    ginv = bm.gamma_inverse()
    for k in range(3):
        phi = bm.phi_by_chase(k)[0]
        tops = {m: c for (j, m), c in phi.items() if j == lvl + k}
        unit = {m: ginv * c
                for m, c in bm.sub.nf(
                    bm.sub_engine.idempotent((0,))).items()}
        assert tops == unit
        assert all(j <= lvl + k for (j, _) in phi)


def test_phi_by_chase_matches_tracked_basis(monkeypatch):
    # many generators that phi_by_chase offers add no rank, so psi and
    # e_psi depend on which coordinates are read off: over the phi desk
    # they must be those of the tracked basis that coords_in_span replaced
    check, nmin, rows = DESK["phi"]
    bims = [Bimodules(datum, weight, beta, *tail)
            for datum, weights, nmax, tails in rows for weight in weights
            for beta in _betas_upto(datum.rank, nmax) if sum(beta) >= nmin
            for tail in tails]
    ks = range(signature(check).parameters["kmax"].default + 1)

    def chase():
        return [(phi, {(a, b): c for a, b, c in psi}, e_psi)
                for bm in bims for phi, psi, e_psi in map(bm.phi_by_chase, ks)]

    got = chase()
    assert any(psi for _, psi, _ in got)
    monkeypatch.setattr(bimodules, "coords_in_span", old.tracked_coords)
    assert chase() == got


# ---- dead idempotents of R^Lambda(beta) carried into K0 and K1 ---------

def _bimodule_instances():
    """(datum, weight, beta, i) of every instance of the suites that build
    a `Bimodules`, each once."""
    out = {}
    for suite in ("exact", "phi", "taug"):
        for thunk in checks.CHECKS[suite]():
            datum, weight, beta, i = thunk.args
            name = "{}-L{}-b{}-i{}".format(
                "".join(datum.labels), "".join(map(str, weight.levels)),
                "".join(map(str, beta)), i)
            out.setdefault(name, pytest.param(*thunk.args, id=name))
    return list(out.values())


BIMODULE_INSTANCES = _bimodule_instances()


def _fresh_kernels(bm):
    """K0 and K1 of bm rebuilt on spaces that certify nothing, so every
    block they touch is eliminated row by row."""
    rows = seqs_of(bm.beta_hat)
    seqs = seqs_of(bm.beta)
    K0 = TruncationModule(IdealSpace(
        bm.engine, bm.weight, bm.beta_hat, first_strand_chains(bm.N)),
        rows, [s + (bm.i,) for s in seqs])
    K1 = TruncationModule(IdealSpace(
        bm.engine, bm.weight, bm.beta_hat, shifted_strand_chains(bm.N)),
        rows, [(bm.i,) + s for s in seqs])
    return K0, K1


@pytest.mark.parametrize("datum,weight,beta,i", BIMODULE_INSTANCES)
def test_certified_kernels_match_fresh_spaces(datum, weight, beta, i):
    bm = Bimodules(datum, weight, beta, i)
    dead = {nu for nu in seqs_of(bm.beta)
            if unit_in_ideal(datum, weight, nu)}
    assert bm.K0.space.certified == {nu + (i,) for nu in dead}
    assert bm.K1.space.certified == {(i,) + nu for nu in dead}
    assert not bm.K0.space.outside and not bm.K1.space.outside
    fresh0, fresh1 = _fresh_kernels(bm)
    lo, hi = bm.window
    # every block on a certified right sequence is full without the
    # certificate
    for fresh, certified in ((fresh0, bm.K0.space.certified),
                             (fresh1, bm.K1.space.certified)):
        for mu in certified:
            for lam in fresh.space.seqs:
                for d in range(lo, hi + 1):
                    cols, sb = fresh.space.block(lam, mu, d)
                    assert sb.rank == len(cols), (lam, mu, d)
    assert not fresh0.space.certified and not fresh1.space.certified
    for d in range(lo, hi + 1):
        assert bm.K0.basis(d) == fresh0.basis(d), d
        assert bm.K1.basis(d) == fresh1.basis(d), d
        # the normal forms `check_exact` takes of P's images
        for m in bm.K1.basis(d - bm.shift_P):
            img = bm.apply_P({m: 1})
            assert bm.K0.nf(img) == fresh0.nf(img), m


def test_the_desk_certifies_kernel_blocks():
    # the comparison above is not vacuous: some desk instance has a dead
    # idempotent whose blocks carry columns
    cols = 0
    for datum, weight, beta, i in (p.values for p in BIMODULE_INSTANCES):
        bm = Bimodules(datum, weight, beta, i)
        for K in (bm.K0, bm.K1):
            for mu in K.space.certified:
                cols += sum(len(K.space.block_columns(lam, mu, d))
                            for lam in K.space.seqs
                            for d in range(bm.window[0], bm.window[1] + 1))
    assert cols


def test_a_wrong_kernel_certificate_fails_the_checks(monkeypatch):
    # certifying alive sequences that end in colour 0 zeroes blocks of K0
    # and K1 that are not in their denominators; exact and phi must see it
    real = bimodules.unit_in_ideal

    def wrong(datum, weight, nu, qspec=None):
        return real(datum, weight, nu, qspec) or nu[-1:] == (0,)

    monkeypatch.setattr(bimodules, "unit_in_ideal", wrong)
    failed = {}
    for suite in ("exact", "phi"):
        statuses = [r.status for r in checks.run_check(suite)]
        assert set(statuses) == {"pass", "fail"}, suite
        failed[suite] = (statuses.count("fail"), len(statuses))
    assert failed == {"exact": (2, 18), "phi": (13, 39)}
