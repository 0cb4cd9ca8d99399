"""Cartan data: symmetrizers, the bilinear form, and weights."""

import pytest

from quiverhecke.cartan import Weight, build_cartan


def test_a2_form():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    assert d.rank == 2
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 2
    assert d.form(0, 1) == d.form(1, 0) == -1


def test_b2_form_asymmetric_matrix():
    # a_{01} = -2, a_{10} = -1 forces d = (1, 2) up to scale
    d = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 4
    assert d.form(0, 1) == d.form(1, 0) == -2
    # (alpha_i | alpha_j) = d_i a_{ij} both ways around
    assert d.form(0, 1) == 1 * (-2)
    assert d.form(1, 0) == 2 * (-1)


def test_g2_form():
    d = build_cartan(("a", "b"), [[2, -3], [-1, 2]])
    assert d.form(0, 0) == 2
    assert d.form(1, 1) == 6
    assert d.form(0, 1) == -3


def test_affine_a1_form():
    d = build_cartan(("0", "1"), [[2, -2], [-2, 2]])
    assert d.form(0, 0) == d.form(1, 1) == 2
    assert d.form(0, 1) == -2


def test_form_beta_bilinear():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    # (a1 + a2 | a1 + a2) = 2 + 2 - 2 = 2
    assert d.form_beta((1, 1), (1, 1)) == 2
    assert d.form_beta((2, 1), (0, 1)) == 2 * (-1) + 1 * 2


def test_index_of():
    d = build_cartan(("x", "y"), [[2, -1], [-1, 2]])
    assert d.index_of("y") == 1
    with pytest.raises(ValueError):
        d.index_of("z")


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        build_cartan(("1",), [[1]])  # diagonal must be 2
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, 1], [-1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, -1], [0, 2]])  # zero pattern asymmetric
    with pytest.raises(ValueError):
        build_cartan(("1", "2"), [[2, -1], [-1, 2], [0, 0]])  # not square


def test_weight_level_and_pairing():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    rho = Weight((1, 1))
    assert rho.level(0) == 1 and rho.level(1) == 1
    # (Lambda | beta) = sum_i beta_i d_i <h_i, Lambda>
    assert rho.pair_beta(d, (1, 0)) == 1
    assert rho.pair_beta(d, (2, 1)) == 3
    b2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    lam = Weight((1, 1))
    assert lam.pair_beta(b2, (0, 1)) == 2  # d_1 = 2


def test_weight_shift_constant():
    d = build_cartan(("1", "2"), [[2, -1], [-1, 2]])
    rho = Weight((1, 1))
    # c = (Lambda | beta) - (beta | beta) / 2
    assert rho.coeff_c(d, (1, 0)) == 1 - 1
    assert rho.coeff_c(d, (1, 1)) == 2 - 1
    assert rho.coeff_c(d, (2, 1)) == 3 - 3


def test_weight_level_minus_beta():
    # <h_i, Lambda - beta> reads row i of the Cartan matrix
    b2 = build_cartan(("s", "l"), [[2, -2], [-1, 2]])
    rho = Weight((1, 1))
    assert rho.level_minus(b2, 0, (0, 0)) == 1
    assert rho.level_minus(b2, 0, (1, 1)) == 1 - 2 + 2
    assert rho.level_minus(b2, 1, (1, 1)) == 1 + 1 - 2
    assert rho.level_minus(b2, 1, (2, 0)) == 1 + 2
