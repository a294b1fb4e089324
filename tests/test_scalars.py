"""Exact scalar rings: rationals with i, h-polynomials, tau numbers."""

from fractions import Fraction

import pytest

from qdr.scalars import GaussRat, HPoly, HPolyMulti, I, TauNumber


def test_gauss_rat_ring():
    a = GaussRat(Fraction(1, 2), Fraction(3))
    b = GaussRat(2, Fraction(-1, 3))
    assert a + b == GaussRat(Fraction(5, 2), Fraction(8, 3))
    assert a * b == GaussRat(2, Fraction(35, 6))
    assert (a * b) / b == a
    assert a - a == 0
    assert I * I == -1
    assert a.conj().conj() == a
    assert (a * a.conj()).is_real()


def test_gauss_rat_parse_round_trip():
    vals = [GaussRat(0), GaussRat(3), GaussRat(-2, 5), I, -I,
            GaussRat(Fraction(1, 2), Fraction(-7, 3)), GaussRat(0, Fraction(2, 9))]
    for v in vals:
        assert GaussRat.parse(v.serialize()) == v
        assert GaussRat.parse(str(v)) == v
    assert GaussRat.parse("1/2+3/4*i") == GaussRat(Fraction(1, 2), Fraction(3, 4))
    assert GaussRat.parse("-i") == -I


def test_hpoly_arithmetic():
    p = HPoly({0: 1, 1: 2})
    q = HPoly({1: Fraction(-1, 2), 3: 1})
    assert p + q == HPoly({0: 1, 1: Fraction(3, 2), 3: 1})
    assert p * q == HPoly({1: Fraction(-1, 2), 2: -1, 3: 1, 4: 2})
    assert p - p == 0
    assert p * 0 == HPoly()
    assert (p * q).coeff(2) == -1
    assert p.subs(Fraction(1, 3)) == Fraction(5, 3)


def test_hpoly_laurent_gate():
    with pytest.raises(ValueError):
        HPoly({-1: 1})
    lp = HPoly({-1: 1}, laurent=True)
    assert lp.shift(1) == 1
    assert HPoly({2: 3}).shift(-2) == 3
    assert HPoly({0: 1}).shift(-1).laurent
    assert (lp * lp).coeff(-2) == 1


def test_hpoly_monomial_division():
    p = HPoly({2: 4, 3: -2})
    assert p / HPoly({2: 2}) == HPoly({0: 2, 1: -1})
    with pytest.raises(TypeError):
        p / HPoly({0: 1, 1: 1})


def test_hpoly_str():
    assert str(HPoly({0: 1, 1: -1})) == "1 - h"
    assert str(HPoly({1: 2, 2: -1})) == "2*h - h^2"
    assert str(HPoly()) == "0"
    assert str(HPoly({-1: Fraction(1, 2)}, laurent=True)) == "(1/2)*h^-1"


def test_hpoly_serialize_round_trip():
    p = HPoly({0: Fraction(1, 3), 2: -2, 5: Fraction(7, 4)})
    assert HPoly.parse(p.serialize()) == p
    assert p.serialize() == [[0, "1/3"], [2, "-2"], [5, "7/4"]]


def test_hpoly_multi_specialize():
    # h1*h2 + 2*h1 with h1 -> 3t, h2 -> -t collapses exactly
    p = HPolyMulti(2, {(1, 1): 1, (1, 0): 2})
    s = p.specialize([3, -1])
    assert s == HPoly({2: -3, 1: 6})
    assert p + (-p) == 0
    assert (p * p).terms[(2, 2)] == 1


def test_tau_number_field_ops():
    t = TauNumber.tau()
    a = TauNumber.tau(1, GaussRat(0, 2)) + TauNumber.tau(0, 1)  # 1 + 2i*tau
    assert (a * t) / t == a
    assert (t * t) / TauNumber.tau(2) == 1
    with pytest.raises(ValueError):
        a / a  # not a monomial divisor
    assert t - t == 0
    assert str(t) == "tau"
