"""Exact scalar rings: rationals with i, h-polynomials, tau numbers."""

from fractions import Fraction
from math import lcm

import pytest

from qdr.exterior import Bivector, QForm
from qdr.functions import FourierFn, PolyFn, moyal_product
from qdr.scalars import (GaussRat, HPoly, HPolyMulti, I, SparseTerms,
                         TauNumber, clear_denominators, over)


# The parsers of the serialized forms are the round-trip helpers of these
# tests: nothing in the package reads a serialized scalar back.


def parse_gauss(s: str) -> GaussRat:
    """The Gaussian rational written by GaussRat.serialize or str."""
    s = s.strip().replace(" ", "")
    if s.endswith("*i") or s.endswith("i"):
        # split the trailing imaginary part off the real part, if any
        body = s[:-2] if s.endswith("*i") else s[:-1]
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/*":
                re_s, im_s = body[:k], body[k:]
                if im_s.endswith("*"):
                    im_s = im_s[:-1]
                if im_s in ("+", "-"):
                    im_s += "1"
                return GaussRat(Fraction(re_s), Fraction(im_s))
        if body.endswith("*"):
            body = body[:-1]
        if body in ("", "+"):
            body = "1"
        elif body == "-":
            body = "-1"
        return GaussRat(0, Fraction(body))
    return GaussRat(Fraction(s))


def parse_hpoly(data) -> HPoly:
    """The h-polynomial written by HPoly.serialize."""
    return HPoly({e: parse_gauss(cs) if "i" in cs else Fraction(cs)
                  for e, cs in data})


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


def test_real_gauss_rat_hashes_as_its_rational():
    # equal values must hash alike, so a real GaussRat finds the entry of
    # its Fraction or int in a dict, and a complex one hashes apart
    for re in (Fraction(-7, 3), Fraction(1, 2), Fraction(4), Fraction(0)):
        g = GaussRat(re)
        assert g == re and hash(g) == hash(re)
        assert {re: "x"}[g] == "x"
        if re.denominator == 1:
            assert hash(g) == hash(int(re)) and {int(re): "y"}[g] == "y"
    table = {Fraction(5, 2): "real", GaussRat(5, 2): "complex"}
    assert table[GaussRat(Fraction(5, 2))] == "real"
    assert GaussRat(Fraction(5, 2)) in {Fraction(5, 2)}
    assert GaussRat(5, 2) not in {Fraction(5, 2): 1, 5: 1}


def test_gauss_rat_equality_by_type():
    # GaussRat against GaussRat, int and Fraction; any other type is
    # left to its own __eq__
    a = GaussRat(Fraction(1, 2), -3)
    assert a == GaussRat(Fraction(2, 4), -3) and a != GaussRat(1, -3)
    assert a != GaussRat(Fraction(1, 2), 3) and a != Fraction(1, 2)
    assert GaussRat(5) == 5 and GaussRat(5) != 4 and 5 == GaussRat(5)
    assert GaussRat(Fraction(-7, 3)) == Fraction(-7, 3)
    assert GaussRat(1).__eq__("1") is NotImplemented and GaussRat(1) != "1"
    assert GaussRat(1).__eq__(1.0) is NotImplemented


def test_gauss_rat_str_of_a_unit_imaginary_part():
    assert str(GaussRat(2, 1)) == "2+i"
    assert str(GaussRat(2, -1)) == "2-i"
    assert str(GaussRat(Fraction(-1, 2), 1)) == "-1/2+i"
    assert str(GaussRat(2, 3)) == "2+3*i"


def test_gauss_rat_parse_round_trip():
    vals = [GaussRat(0), GaussRat(3), GaussRat(-2, 5), I, -I,
            GaussRat(Fraction(1, 2), Fraction(-7, 3)), GaussRat(0, Fraction(2, 9))]
    for v in vals:
        assert parse_gauss(v.serialize()) == v
        assert parse_gauss(str(v)) == v
    assert parse_gauss("1/2+3/4*i") == GaussRat(Fraction(1, 2), Fraction(3, 4))
    assert parse_gauss("-i") == -I


def test_hpoly_arithmetic():
    p = HPoly({0: 1, 1: 2})
    q = HPoly({1: Fraction(-1, 2), 3: 1})
    assert p + q == HPoly({0: 1, 1: Fraction(3, 2), 3: 1})
    assert p * q == HPoly({1: Fraction(-1, 2), 2: -1, 3: 1, 4: 2})
    assert p - p == 0
    assert p * 0 == HPoly()
    assert (p * q).coeff(2) == -1


def test_hpoly_laurent_gate():
    # a negative power of h is plain data: no flag gates it
    lp = HPoly({-1: 1})
    assert lp.terms == {-1: 1}
    assert lp.shift(1) == 1
    assert HPoly({2: 3}).shift(-2) == 3
    assert HPoly({0: 1}).shift(-1) == lp
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
    assert str(HPoly({-1: Fraction(1, 2)})) == "(1/2)*h^-1"


def test_hpoly_serialize_round_trip():
    p = HPoly({0: Fraction(1, 3), 2: -2, 5: Fraction(7, 4)})
    assert parse_hpoly(p.serialize()) == p
    assert p.serialize() == [[0, "1/3"], [2, "-2"], [5, "7/4"]]
    q = HPoly({-2: GaussRat(1, -3), 1: Fraction(-1, 2)})
    assert parse_hpoly(q.serialize()) == q


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


# ------------------------------------------------ clearing and over


def _leaf_types(value):
    """The types of the innermost scalars of a value: GaussRat parts too."""
    if isinstance(value, SparseTerms):
        return {t for c in value.terms.values() for t in _leaf_types(c)}
    if isinstance(value, GaussRat):
        return {type(value.re), type(value.im)}
    return {type(value)}


def _layout(value):
    """Type and terms in insertion order, all the way down."""
    if isinstance(value, SparseTerms):
        return (type(value).__name__,
                [(k, _layout(c)) for k, c in value.terms.items()])
    if isinstance(value, GaussRat):
        return ("GaussRat", value.re, value.im, type(value.re),
                type(value.im))
    return (type(value).__name__, value)


X = PolyFn(2, {(1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 4),
               (0, 0): 7})
XC = PolyFn(2, {(1, 1): GaussRat(Fraction(1, 6), Fraction(-3, 2)),
                (0, 1): Fraction(1, 9)})
F = FourierFn(2, {(1, -1): TauNumber({0: GaussRat(Fraction(1, 2), 3),
                                      2: GaussRat(0, Fraction(-4, 5))}),
                  (0, 0): TauNumber({1: Fraction(7, 3)})})
HP = HPoly({-1: Fraction(3, 8), 0: GaussRat(1, Fraction(1, 6)), 2: 5})


@pytest.mark.parametrize("values, den", [
    ([X], 12),
    ([XC], 18),
    ([F], 30),
    ([HP], 24),
    ([TauNumber({1: GaussRat(Fraction(1, 4), 0)})], 4),
    # mixed lists: scalars and sparse values over one lcm
    ([Fraction(1, 5), X, GaussRat(0, Fraction(1, 7)), XC, 3],
     lcm(5, 12, 7, 18)),
    ([F, Fraction(1, 4), TauNumber({0: GaussRat(0, Fraction(1, 9))})],
     lcm(30, 4, 9)),
    ([HP, X, PolyFn.zero(2), Fraction(2, 1)], lcm(24, 12)),
])
def test_clearing_reaches_function_leaves_and_over_undoes_it(values, den):
    nums, d = clear_denominators(values)
    assert d == den
    for v, num in zip(values, nums, strict=True):
        rational = isinstance(v, (int, Fraction))
        assert type(num) is (int if rational else type(v))
        assert _leaf_types(num) <= {int}
        # the numerator is v times den, leaf by leaf, in v's key order
        assert num == v * den
        if not rational and not isinstance(v, GaussRat):
            assert list(num.terms) == list(v.terms)
        # and over gives v back with Fraction leaves, the ints too
        back = over(num, den)
        assert _layout(back) == _layout(Fraction(v) if rational else v)
        assert _leaf_types(back) <= {Fraction}


def test_clearing_leaves_other_leaves_as_they_are():
    moyal = moyal_product(PolyFn.coord(2, 1), PolyFn.coord(2, 2),
                          Bivector.standard(2))
    assert {type(c) for c in moyal.terms.values()} == {HPoly}
    others = [moyal,
              # one HPoly value among rational ones
              PolyFn(2, {(0, 0): Fraction(1, 2), (1, 0): HPoly({1: 1})}),
              QForm(2, {(1,): Fraction(1, 2)}),
              HPolyMulti(2, {(1, 0): Fraction(1, 3)})]
    for other in others:
        for values in ([other], [X, other], [Fraction(1, 3), other, F],
                       [HP, XC, GaussRat(0, Fraction(1, 5)), other]):
            nums, den = clear_denominators(iter(values))
            assert den == 1
            assert len(nums) == len(values)
            assert all(n is v for n, v in zip(nums, values))
    # over divides such a value as it is
    assert _layout(over(moyal, 1)) == _layout(moyal)
    assert _layout(over(moyal, 6)) == _layout(moyal / 6)


@pytest.mark.parametrize("x", [
    HPoly({1: 2}), HPolyMulti(2, {(1, 0): 2}), TauNumber.tau(1, 2),
    PolyFn.coord(2, 1), FourierFn.mode(2, (1, 0), 2)],
    ids=lambda x: type(x).__name__)
def test_every_ring_divided_by_zero_raises_zero_division(x):
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
