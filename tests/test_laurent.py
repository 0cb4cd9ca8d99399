"""Laurent polynomial arithmetic used for graded dimensions."""

import pytest

from quiverhecke.laurent import LaurentPoly, qint


def test_zero_and_one():
    z = LaurentPoly.zero()
    o = LaurentPoly.one()
    assert not z
    assert o
    assert o + z == o
    assert o * z == z


def test_add_drops_cancelled_terms():
    p = LaurentPoly({2: 1, 0: 3})
    q = LaurentPoly({2: -1, -1: 5})
    s = p + q
    assert s == LaurentPoly({0: 3, -1: 5})
    assert 2 not in s.coeffs


def test_mul_laurent():
    p = LaurentPoly({1: 1, -1: 1})  # q + q^-1
    assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert p * 3 == LaurentPoly({1: 3, -1: 3})
    assert 3 * p == p * 3


def test_shift():
    p = LaurentPoly({2: 1, 0: 4, -1: 7})
    assert p.shift(3) == LaurentPoly({5: 1, 3: 4, 2: 7})
    assert p.shift(-3).shift(3) == p


def test_degree_valuation_leading():
    p = LaurentPoly({3: 2, -2: 5})
    assert p.degree() == 3
    assert p.valuation() == -2
    assert p.coeffs[p.degree()] == 2
    assert p.at_one() == 7


def test_divexact():
    a = LaurentPoly({1: 1, -1: 1})
    b = LaurentPoly({2: 1, 0: 1, -2: 1})
    assert (a * b).divexact(a) == b
    assert (a * b).divexact(b) == a
    # division that does not come out evenly must raise
    with pytest.raises(ValueError):
        b.divexact(a)


def test_json_round_trip():
    p = LaurentPoly({3: -2, 0: 1, -4: 9})
    assert LaurentPoly.from_json(p.to_json()) == p


def test_qint_values():
    assert qint(0) == LaurentPoly.zero()
    assert qint(1) == LaurentPoly.one()
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    # scaled variable q_i = q^d
    assert qint(2, d=2) == LaurentPoly({2: 1, -2: 1})
    assert qint(-2) == -qint(2)

