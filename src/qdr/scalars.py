"""Exact scalar rings: rationals, Gaussian rationals, deformation polynomials.

Everything here is exact. The deformation parameter is written h; a scalar
in the deformed setting is a Laurent polynomial in h with rational
coefficients. Multi-parameter variants carry one exponent per
parameter. Gaussian rationals a + b*i back the complexified frames, and
tau-graded Gaussian rationals back torus boundary matrices (tau stands in
for the circle period so that nothing is ever evaluated in floating point).

Every ring and form class of the package (HPoly, HPolyMulti, TauNumber
here, PolyFn and FourierFn in functions, QForm and MultiForm in exterior,
FieldForm in fields) is a SparseTerms: one zero-free terms dict on one
space. That one core owns their sums, negation, scalar multiples,
equality, the coercion of an operand, the check that two operands share
a space, the constructors zero and constant, and the trusted constructor
_make; each class gives it data, not code: its space slots, the types it
coerces and the key of its unit term. SparseRing adds the convolution
product of the five rings, and PendingTerms the pending values of
QForm's products, which no other class carries. add_term is the one
accumulator of a terms dict, and only the public constructors validate:
an exponent key must be an int (int_exponent).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add


def as_fraction(x) -> Fraction:
    # exact-type tests first: isinstance against Fraction, a
    # numbers.Rational, goes through the slow ABC check
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def int_exponent(e) -> int:
    """e itself if it is an int; a TypeError for any other exponent, a
    bool or a float among them, as an exponent is never rounded."""
    if type(e) is int or (isinstance(e, int) and not isinstance(e, bool)):
        return e
    raise TypeError(f"exponent must be an int, got {e!r}")


def frac_str(x: Fraction) -> str:
    return str(x)


def add_term(terms: dict, key, value) -> None:
    """terms[key] += value, keeping terms zero-free.

    This is the one accumulator of every sparse terms dict: a key whose
    sum vanishes is deleted and a zero value is never stored, so results
    can go straight to a trusted constructor.
    """
    prev = terms.get(key)
    if prev is not None:
        value = prev + value
        if not value:
            del terms[key]
            return
    elif not value:
        return
    terms[key] = value


def zero_key(n: int) -> tuple:
    """(0,) * n: the unit key of the rings keyed by n-tuples."""
    return (0,) * n


def add_keys(a: tuple, b: tuple) -> tuple:
    """Element-wise sum of two exponent tuples: the key sum of the rings
    keyed by tuples."""
    return tuple(map(add, a, b))


def convolve(a: dict, b: dict, keysum) -> dict:
    """The terms of a product: every pair of terms multiplies its values
    into the key keysum(ka, kb), in the order a's terms then b's."""
    t = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            add_term(t, keysum(k1, k2), c1 * c2)
    return t


class SparseTerms:
    """A zero-free terms dict on one space: the core of every ring and
    form class.

    The core implements, once for all of them, + and - from either side,
    negation, the scalar multiple, equality, truth, the trusted
    constructor _make, the constructors zero(*space) and constant(*space, c),
    the coercion of an operand (_operand) and the space check of two
    (_join). A subclass's own public __slots__ name its space (dim,
    nparams, fnring, or none at all), in the order _make and _space()
    give it. Two class attributes say the rest:

    - _COERCE: the types of operand read as a constant of the class.
      Fraction comes last: isinstance against it, a numbers.Rational,
      goes through the slow ABC check, which a value of an earlier type
      skips;
    - _UNIT: the key of the constant term, or a function of the space
      that gives it.

    The rings take their product from SparseRing; the forms multiply by
    wedge and quantum_wedge. A class whose values can be pending derives
    from PendingTerms.
    """

    __slots__ = ("terms",)
    _COERCE = ()
    _UNIT = 0
    # the types of term value that clear_denominators and over reach
    # through; a class without any is left as it is
    _LEAVES = ()

    def __init_subclass__(cls, **kwargs):
        # the space's slot setter, copier and reader are compiled once per
        # class from one template, as dataclasses does for __init__: a
        # setattr loop over the slot names costs twice as much per value.
        # A private slot of the class or a base is state that a value
        # built from a terms dict does not have: it is None.
        super().__init_subclass__(**kwargs)
        names = [n for n in cls.__slots__ if not n.startswith("_")]
        unset = [f"x.{n} = None" for c in cls.__mro__
                 for n in vars(c).get("__slots__", ()) if n.startswith("_")]
        sets = [f"x.{n} = {n}" for n in names] + unset
        copies = [f"x.{n} = o.{n}" for n in names] + unset
        ns = {}
        exec(f"def fill(x, {', '.join(names)}): {'; '.join(sets) or 'pass'}\n"
             f"def copy(x, o): {'; '.join(copies) or 'pass'}\n"
             f"def space(x): return ({''.join(f'x.{n}, ' for n in names)})\n",
             ns)
        cls._fill = staticmethod(ns["fill"])
        cls._copy = staticmethod(ns["copy"])
        cls._space = ns["space"]

    @classmethod
    def _make(cls, terms: dict, *space):
        """Trusted constructor: terms is zero-free with exact values, and
        space fills the class's own __slots__ in order."""
        x = object.__new__(cls)
        x.terms = terms
        cls._fill(x, *space)
        return x

    @classmethod
    def zero(cls, *space):
        """The value with no terms on space."""
        return cls._make({}, *space)

    @classmethod
    def constant(cls, *args):
        """constant(*space, c): c on the unit term, through the public
        constructor, which coerces c."""
        *space, c = args
        unit = cls._UNIT
        return cls(*space, {unit(*space) if callable(unit) else unit: c})

    def _operand(self, other):
        """other as a value of self's class: itself, a _COERCE value as
        the constant on self's space, or NotImplemented."""
        cls = type(self)
        if isinstance(other, cls):
            return other
        if isinstance(other, cls._COERCE):
            return cls.constant(*self._space(), other)
        return NotImplemented

    def _join(self, o):
        """The space of a binary result of self and o; a ValueError when
        their spaces differ."""
        space = self._space()
        if o._space() != space:
            raise ValueError(f"{type(self).__name__} spaces differ")
        return space

    def _like(self, terms: dict):
        """_make on self's space."""
        x = object.__new__(type(self))
        x.terms = terms
        self._copy(x, self)
        return x

    def _sum(self, other, sign: int):
        o = other if type(other) is type(self) else self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        space = self._join(o)
        t = dict(self.terms)
        for k, c in o.terms.items():
            add_term(t, k, c if sign > 0 else -c)
        return self._make(t, *space)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return o._sum(self, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def _scale(self, s):
        """The scalar multiple self * s. An int or Fraction equal to 1 or
        -1 multiplies nothing: the terms are copied or their values
        negated."""
        u = type(s)
        if (u is int or u is Fraction) and (s == 1 or s == -1):
            t = (dict(self.terms) if s == 1
                 else {k: -c for k, c in self.terms.items()})
        else:
            t = {k: c * s for k, c in self.terms.items()} if s else {}
        return self._like(t)

    def __eq__(self, other):
        # as for Fraction, a string never equals a value: == parses nothing
        if type(other) is type(self):
            o = other
        elif isinstance(other, str):
            return NotImplemented
        else:
            o = self._operand(other)
            if o is NotImplemented:
                return NotImplemented
        return self.terms == o.terms and self._space() == o._space()

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


class PendingTerms(SparseTerms):
    """The base of a class whose values can be pending, built by
    _make_pending: their terms are still zero-free numerators
    {key: numerator} over one denominator den, in the form of
    clear_denominators, and terms stays unset. The first read of terms
    settles the value once, through the class's hook _settle(nums, den).
    Truth and is_zero read the numerators: a pending value is zero
    exactly when it has none. == between two pending values compares
    their key sets and cross-multiplied numerators and settles neither.
    A class may read its numerators in more places (QForm prints and
    scales them); every other reader, and == with a settled side, sees
    terms. _pending is None on a settled value.

    Only a subclass pays for the pending state: the slot, and the slow
    attribute path that a class with __getattr__ takes."""

    __slots__ = ("_pending",)

    @classmethod
    def _make_pending(cls, nums: dict, den, *space):
        """Trusted constructor of a pending value: nums is zero-free
        {key: numerator} over den, and cls._settle(nums, den) gives the
        terms."""
        x = object.__new__(cls)
        cls._fill(x, *space)
        x._pending = (nums, den)
        return x

    def __getattr__(self, name):
        # only an unset slot gets here, and terms is unset while the
        # value is pending, so divide its numerators once
        if name != "terms":
            raise AttributeError(name)
        t = self.terms = self._settle(*self._pending)
        self._pending = None
        return t

    def __eq__(self, other):
        p = self._pending
        q = other._pending if type(other) is type(self) else None
        if p is None or q is None:
            return SparseTerms.__eq__(self, other)
        (na, da), (nb, db) = p, q
        return (na.keys() == nb.keys()
                and all(c * db == nb[k] * da for k, c in na.items())
                and self._space() == other._space())

    def __bool__(self):
        # the numerators are zero-free, so a pending value is zero exactly
        # when it holds none, and the test settles nothing
        p = self._pending
        return bool(p[0] if p is not None else self.terms)

    def is_zero(self) -> bool:
        return not self


class SparseRing(SparseTerms):
    """SparseTerms with a product: a value of _SCALARS scales, any other
    operand multiplies by convolution, the key of a product of two terms
    being _KEYSUM of theirs."""

    __slots__ = ()
    _SCALARS = (int, Fraction)

    def __mul__(self, other):
        # exact-type tests first: isinstance against Fraction goes through
        # the slow ABC check, and a value of the class is never a scalar
        t = type(other)
        if t is type(self):
            o = other
        elif t is int or t is Fraction or isinstance(other, self._SCALARS):
            return self._scale(other)
        else:
            o = self._operand(other)
            if o is NotImplemented:
                return NotImplemented
        space = self._join(o)
        return self._make(convolve(self.terms, o.terms, self._KEYSUM), *space)

    __rmul__ = __mul__


class GaussRat:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussRat":
        """Trusted constructor: both parts are already Fractions."""
        g = object.__new__(GaussRat)
        g.re = re
        g.im = im
        return g

    @staticmethod
    def coerce(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(x)

    _COERCIBLE = (int, Fraction, str)

    def __add__(self, other):
        if not isinstance(other, (GaussRat,) + GaussRat._COERCIBLE):
            return NotImplemented
        o = GaussRat.coerce(other)
        return GaussRat._make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (GaussRat,) + GaussRat._COERCIBLE):
            return NotImplemented
        o = GaussRat.coerce(other)
        return GaussRat._make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __neg__(self):
        return GaussRat._make(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:
            return GaussRat._make(self.re * other, self.im * other)
        if not isinstance(other, (GaussRat,) + GaussRat._COERCIBLE):
            return NotImplemented
        o = GaussRat.coerce(other)
        return GaussRat._make(self.re * o.re - self.im * o.im,
                              self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat._make((self.re * o.re + self.im * o.im) / n,
                              (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def conj(self) -> "GaussRat":
        return GaussRat._make(self.re, -self.im)

    def __eq__(self, other):
        # exact type first: isinstance against Fraction is a slow ABC check
        if type(other) is GaussRat:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self):
        if self.im == 0:
            return frac_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{frac_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        ipart = "i" if mag == 1 else f"{frac_str(mag)}*i"
        return f"{frac_str(self.re)}{sign}{ipart}"

    __repr__ = __str__

    def serialize(self) -> str:
        if self.im >= 0:
            return f"{frac_str(self.re)}+{frac_str(self.im)}*i"
        return f"{frac_str(self.re)}-{frac_str(abs(self.im))}*i"


I = GaussRat(0, 1)


def clear_denominators(values):
    """(nums, den): den is the lcm of the values' denominators and nums
    the values times den, rationals as ints and Gaussian rationals with
    int parts. A sparse value whose class names its leaf types in
    _LEAVES (HPoly and PolyFn over rationals and Gaussian rationals,
    TauNumber, FourierFn through TauNumber) counts the denominators of
    its leaves and comes back as a copy with int leaves. Fraction-free
    sums and products of nums are those of the values scaled by a power
    of den; over(num, den) undoes the scaling. If any value has a leaf
    of another kind (a PolyFn with HPoly values, a form), the values
    come back as they are, over den = 1."""
    values = list(values)
    den = 1
    for v in values:
        t = type(v)
        if t is Fraction or t is int:
            den = lcm(den, v.denominator)
        elif t is GaussRat:
            den = lcm(den, v.re.denominator, v.im.denominator)
        else:
            d = _leaf_den(v)
            if not d:
                return values, 1
            den = lcm(den, d)
    nums = []
    for v in values:
        t = type(v)
        if t is Fraction or t is int:
            nums.append(v.numerator * (den // v.denominator))
        elif t is GaussRat:
            nums.append(GaussRat._make(
                v.re.numerator * (den // v.re.denominator),
                v.im.numerator * (den // v.im.denominator)))
        else:
            nums.append(_times(v, den))
    return nums, den


def _leaf_den(v) -> int:
    """The lcm of the denominators of a sparse value's leaves, or 0 if
    clearing does not reach all of them."""
    leaves = getattr(type(v), "_LEAVES", ())
    if not leaves:
        return 0
    den = 1
    for c in v.terms.values():
        t = type(c)
        if t not in leaves:
            return 0
        if t is Fraction or t is int:
            den = lcm(den, c.denominator)
        elif t is GaussRat:
            den = lcm(den, c.re.denominator, c.im.denominator)
        else:
            d = _leaf_den(c)
            if not d:
                return 0
            den = lcm(den, d)
    return den


def _times(v, den: int):
    """A sparse value times den, a multiple of its leaves' denominators,
    with int leaves."""
    t = {}
    for k, c in v.terms.items():
        u = type(c)
        if u is Fraction or u is int:
            t[k] = c.numerator * (den // c.denominator)
        elif u is GaussRat:
            t[k] = GaussRat._make(c.re.numerator * (den // c.re.denominator),
                                  c.im.numerator * (den // c.im.denominator))
        else:
            t[k] = _times(c, den)
    return v._like(t)


def over(num, den: int):
    """num / den, the inverse of clear_denominators: an int numerator
    gives a Fraction and a Gaussian one Fraction parts, even over 1, and
    a sparse value with _LEAVES a copy with each of its values divided
    so. Any other value is divided as it is."""
    t = type(num)
    if t is int:
        return Fraction(num, den)
    if t is GaussRat:
        return GaussRat._make(Fraction(num.re, den), Fraction(num.im, den))
    if getattr(t, "_LEAVES", ()):
        return num._like({k: over(c, den) for k, c in num.terms.items()})
    return num if den == 1 else num / den


def _coeff_str(c) -> str:
    s = str(c)
    if isinstance(c, GaussRat) and not c.is_real():
        return f"({s})"
    if s.startswith("-") or "/" in s:
        return f"({s})"
    return s


class HPoly(SparseRing):
    """Laurent polynomial in the deformation parameter h.

    terms maps an int exponent, of either sign, to its coefficient;
    coefficients are Fractions by default but any exact scalar with ring
    operations works. Negative powers are plain data: the star maps h to
    h^-1 and the Lefschetz operator is h^-1 L_h.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms is None:
            return
        # a dict skips the scalar tests: isinstance against Fraction goes
        # through the slow ABC check
        if type(terms) is not dict:
            if isinstance(terms, (int, Fraction, str)):
                terms = {0: as_fraction(terms)}
            elif isinstance(terms, GaussRat):
                terms = {0: terms}
        for e, c in dict(terms).items():
            e = int_exponent(e)
            if not isinstance(c, GaussRat):
                c = as_fraction(c)
            if c:
                self.terms[e] = c

    _KEYSUM = staticmethod(add)
    _LEAVES = (Fraction, int, GaussRat)
    _COERCE = (int, GaussRat, str, Fraction)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self._like({e: c / other for e, c in self.terms.items()})
        if isinstance(other, GaussRat):
            return self._like({e: GaussRat.coerce(c) / other
                               for e, c in self.terms.items()})
        if isinstance(other, HPoly) and len(other.terms) == 1:
            (e0, c0), = other.terms.items()
            return self.shift(-e0) / c0
        raise TypeError("can only divide by a scalar or an h-monomial")

    def shift(self, k: int) -> "HPoly":
        """Multiply by h^k (k may be negative)."""
        return self._like({e + k: c for e, c in self.terms.items()})

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def constant_coeff(self):
        """Coefficient of h^0."""
        return self.terms.get(0, Fraction(0))

    def coeff(self, e: int):
        return self.terms.get(e, Fraction(0))

    def conj(self) -> "HPoly":
        return self._like({e: (c.conj() if isinstance(c, GaussRat) else c)
                           for e, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c) if not isinstance(c, GaussRat)
                             or c.is_real() else f"({c})")
                continue
            hp = "h" if e == 1 else f"h^{e}"
            if c == 1:
                parts.append(hp)
            elif c == -1:
                parts.append(f"-{hp}")
            else:
                parts.append(f"{_coeff_str(c)}*{hp}")
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    __repr__ = __str__

    def serialize(self):
        out = []
        for e in sorted(self.terms):
            c = self.terms[e]
            cs = c.serialize() if isinstance(c, GaussRat) else frac_str(c)
            out.append([e, cs])
        return out


class HPolyMulti(SparseRing):
    """Polynomial in several deformation parameters h_1..h_r.

    terms maps an exponent tuple (one slot per parameter) -> Fraction,
    or GaussRat for a Gaussian pairing's product.
    """

    __slots__ = ("nparams",)
    _SCALARS = (GaussRat, int, Fraction)

    def __init__(self, nparams: int, terms=None):
        self.nparams = nparams
        self.terms = {}
        if terms is None:
            return
        if type(terms) is not dict and isinstance(terms,
                                                  (int, Fraction, str)):
            terms = {(0,) * nparams: as_fraction(terms)}
        for e, c in dict(terms).items():
            e = tuple(map(int_exponent, e))
            if len(e) != nparams:
                raise ValueError("exponent tuple arity mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent in multi-parameter scalar")
            c = as_fraction(c)
            if c:
                self.terms[e] = c

    _KEYSUM = staticmethod(add_keys)
    _COERCE = (int, str, Fraction)
    _UNIT = staticmethod(zero_key)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        raise TypeError("can only divide by a rational")

    def __hash__(self):
        return hash((self.nparams, tuple(sorted(self.terms.items()))))

    def specialize(self, coeffs) -> HPoly:
        """Substitute h_j -> coeffs[j-1] * t, collapsing to one parameter."""
        if len(coeffs) != self.nparams:
            raise ValueError("coefficient count mismatch")
        coeffs = [as_fraction(c) for c in coeffs]
        out = {}
        for e, c in self.terms.items():
            scale = c
            for ej, cj in zip(e, coeffs):
                scale *= cj ** ej
            add_term(out, sum(e), scale)
        return HPoly._make(out)

    def constant_coeff(self):
        return self.terms.get((0,) * self.nparams, Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for j, ej in enumerate(e, start=1):
                if ej == 1:
                    factors.append(f"h{j}")
                elif ej > 1:
                    factors.append(f"h{j}^{ej}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_coeff_str(c)}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    __repr__ = __str__


class TauNumber(SparseRing):
    """Laurent polynomial in tau with Gaussian rational coefficients.

    tau is a formal stand-in for the circle period (2*pi), so torus
    boundary operators stay exact. Division is allowed only by a tau
    monomial, which is all exact elimination ever needs here.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms is None:
            return
        if type(terms) is not dict and isinstance(terms,
                                                  (int, Fraction, GaussRat)):
            terms = {0: GaussRat.coerce(terms)}
        for e, c in dict(terms).items():
            e = int_exponent(e)
            c = GaussRat.coerce(c)
            if c:
                self.terms[e] = c

    @staticmethod
    def coerce(x) -> "TauNumber":
        if isinstance(x, TauNumber):
            return x
        return TauNumber(x)

    @staticmethod
    def tau(exp: int = 1, coeff=1) -> "TauNumber":
        return TauNumber({exp: GaussRat.coerce(coeff)})

    _KEYSUM = staticmethod(add)
    _LEAVES = (GaussRat,)
    _COERCE = (int, GaussRat, Fraction)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __truediv__(self, other):
        o = TauNumber.coerce(other)
        if not o.terms:
            raise ZeroDivisionError
        if not o.is_monomial():
            raise ValueError("tau-number division needs a monomial divisor")
        (e0, c0), = o.terms.items()
        return self._like({e - e0: c / c0 for e, c in self.terms.items()})

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            tp = "" if e == 0 else ("tau" if e == 1 else f"tau^{e}")
            if not tp:
                parts.append(str(c))
            elif c == 1:
                parts.append(tp)
            else:
                parts.append(f"{_coeff_str(c)}*{tp}")
        return " + ".join(parts)

    __repr__ = __str__
