"""Exact scalar rings: rationals, Gaussian rationals, deformation polynomials.

Everything here is exact. The deformation parameter is written h; a scalar
in the deformed setting is a polynomial (or Laurent polynomial) in h with
rational coefficients. Multi-parameter variants carry one exponent per
parameter. Gaussian rationals a + b*i back the complexified frames, and
tau-graded Gaussian rationals back torus boundary matrices (tau stands in
for the circle period so that nothing is ever evaluated in floating point).

Every sparse terms dict in the package is zero-free. Arithmetic builds it
through add_term and hands it to the class's private trusted constructor
_make, which skips coercion; only the public constructors validate.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


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
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
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

    @staticmethod
    def parse(s: str) -> "GaussRat":
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


I = GaussRat(0, 1)


def _coeff_str(c) -> str:
    s = str(c)
    if isinstance(c, GaussRat) and not c.is_real():
        return f"({s})"
    if s.startswith("-") or "/" in s:
        return f"({s})"
    return s


class HPoly:
    """Polynomial (or Laurent polynomial) in the deformation parameter h.

    terms maps exponent -> coefficient; coefficients are Fractions by
    default but any exact scalar with ring operations works. The laurent
    flag gates negative exponents: a plain polynomial scalar refuses them.
    """

    __slots__ = ("terms", "laurent")

    def __init__(self, terms=None, laurent: bool = False):
        self.laurent = laurent
        self.terms = {}
        if terms is None:
            return
        if isinstance(terms, (int, Fraction, str)):
            terms = {0: as_fraction(terms)}
        elif isinstance(terms, GaussRat):
            terms = {0: terms}
        for e, c in dict(terms).items():
            if not isinstance(c, GaussRat):
                c = as_fraction(c)
            if c:
                if e < 0 and not laurent:
                    raise ValueError("negative h exponent in polynomial mode")
                self.terms[e] = c

    @staticmethod
    def _make(terms: dict, laurent: bool) -> "HPoly":
        """Trusted constructor: terms is zero-free with exact coefficients."""
        p = object.__new__(HPoly)
        p.terms = terms
        p.laurent = laurent
        return p

    @staticmethod
    def coerce(x, laurent: bool = False) -> "HPoly":
        if isinstance(x, HPoly):
            return x
        return HPoly(x, laurent=laurent)

    @staticmethod
    def h(exp: int = 1, coeff=1, laurent: bool = False) -> "HPoly":
        if exp < 0:
            laurent = True
        return HPoly({exp: as_fraction(coeff)}, laurent=laurent)

    _COERCIBLE = (int, Fraction, str)

    def _flag(self, other) -> bool:
        return self.laurent or (isinstance(other, HPoly) and other.laurent)

    def __add__(self, other):
        if not isinstance(other, (HPoly, GaussRat) + HPoly._COERCIBLE):
            return NotImplemented
        o = HPoly.coerce(other, self.laurent)
        t = dict(self.terms)
        for e, c in o.terms.items():
            add_term(t, e, c)
        return HPoly._make(t, self._flag(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-HPoly.coerce(other, self.laurent))

    def __rsub__(self, other):
        return HPoly.coerce(other, self.laurent) - self

    def __neg__(self):
        return HPoly._make({e: -c for e, c in self.terms.items()},
                           self.laurent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return HPoly._make({}, self.laurent)
            return HPoly._make({e: c * other for e, c in self.terms.items()},
                               self.laurent)
        if not isinstance(other, (HPoly, GaussRat, str)):
            return NotImplemented
        o = HPoly.coerce(other, self.laurent)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                add_term(t, e1 + e2, c1 * c2)
        return HPoly._make(t, self._flag(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return HPoly._make({e: c / other for e, c in self.terms.items()},
                               self.laurent)
        if isinstance(other, GaussRat):
            return HPoly._make({e: GaussRat.coerce(c) / other
                                for e, c in self.terms.items()}, self.laurent)
        if isinstance(other, HPoly) and len(other.terms) == 1:
            (e0, c0), = other.terms.items()
            return self.shift(-e0) / c0
        raise TypeError("can only divide by a scalar or an h-monomial")

    def shift(self, k: int) -> "HPoly":
        """Multiply by h^k (k may be negative; result is laurent if needed)."""
        t = {e + k: c for e, c in self.terms.items()}
        return HPoly._make(t, self.laurent or any(e < 0 for e in t))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = HPoly.coerce(other, self.laurent)
        if isinstance(other, HPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def constant(self):
        """Coefficient of h^0."""
        return self.terms.get(0, Fraction(0))

    def coeff(self, e: int):
        return self.terms.get(e, Fraction(0))

    def degree_span(self):
        if not self.terms:
            return None
        return (min(self.terms), max(self.terms))

    def subs(self, value):
        """Evaluate at h = value (exact scalar)."""
        out = 0
        for e, c in self.terms.items():
            if e < 0:
                if value == 0:
                    raise ZeroDivisionError("h^-k at h=0")
                out += c * (Fraction(1) / value) ** (-e)
            else:
                out += c * value ** e
        return out

    def conj(self) -> "HPoly":
        return HPoly._make({e: (c.conj() if isinstance(c, GaussRat) else c)
                            for e, c in self.terms.items()}, self.laurent)

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

    @staticmethod
    def parse(data, laurent: bool = False) -> "HPoly":
        t = {}
        for e, cs in data:
            t[int(e)] = GaussRat.parse(cs) if ("i" in cs) else Fraction(cs)
        return HPoly(t, laurent=laurent)


class HPolyMulti:
    """Polynomial in several deformation parameters h_1..h_r.

    terms maps an exponent tuple (one slot per parameter) -> Fraction.
    """

    __slots__ = ("nparams", "terms")

    def __init__(self, nparams: int, terms=None):
        self.nparams = nparams
        self.terms = {}
        if terms is None:
            return
        if isinstance(terms, (int, Fraction, str)):
            terms = {(0,) * nparams: as_fraction(terms)}
        for e, c in dict(terms).items():
            e = tuple(int(x) for x in e)
            if len(e) != nparams:
                raise ValueError("exponent tuple arity mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent in multi-parameter scalar")
            c = as_fraction(c)
            if c:
                self.terms[e] = c

    @staticmethod
    def _make(nparams: int, terms: dict) -> "HPolyMulti":
        """Trusted constructor: terms is zero-free with Fraction values."""
        p = object.__new__(HPolyMulti)
        p.nparams = nparams
        p.terms = terms
        return p

    @staticmethod
    def coerce(x, nparams: int) -> "HPolyMulti":
        if isinstance(x, HPolyMulti):
            if x.nparams != nparams:
                raise ValueError("parameter count mismatch")
            return x
        return HPolyMulti(nparams, x)

    @staticmethod
    def h(nparams: int, j: int, exp: int = 1, coeff=1) -> "HPolyMulti":
        """The monomial coeff * h_j^exp (j is 1-based)."""
        e = [0] * nparams
        e[j - 1] = exp
        return HPolyMulti(nparams, {tuple(e): as_fraction(coeff)})

    def __add__(self, other):
        o = HPolyMulti.coerce(other, self.nparams)
        t = dict(self.terms)
        for e, c in o.terms.items():
            add_term(t, e, c)
        return HPolyMulti._make(self.nparams, t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-HPolyMulti.coerce(other, self.nparams))

    def __neg__(self):
        return HPolyMulti._make(self.nparams,
                                {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return HPolyMulti._make(self.nparams, {})
            return HPolyMulti._make(
                self.nparams, {e: c * other for e, c in self.terms.items()})
        o = HPolyMulti.coerce(other, self.nparams)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                add_term(t, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return HPolyMulti._make(self.nparams, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / other)
        raise TypeError("can only divide by a nonzero rational")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPolyMulti(self.nparams, other)
        if isinstance(other, HPolyMulti):
            return self.nparams == other.nparams and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nparams, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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
        return HPoly._make(out, False)

    def constant(self):
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


class CxHPoly:
    """Complex deformation scalar: a pair (re, im) of HPoly in h."""

    __slots__ = ("re", "im")

    def __init__(self, re=None, im=None, laurent: bool = False):
        self.re = re if isinstance(re, HPoly) else HPoly(re, laurent=laurent)
        self.im = im if isinstance(im, HPoly) else HPoly(im, laurent=laurent)

    @staticmethod
    def coerce(x) -> "CxHPoly":
        if isinstance(x, CxHPoly):
            return x
        if isinstance(x, GaussRat):
            return CxHPoly(HPoly(x.re), HPoly(x.im))
        if isinstance(x, HPoly):
            return CxHPoly(x, HPoly(laurent=x.laurent))
        return CxHPoly(HPoly(x), HPoly())

    def __add__(self, other):
        o = CxHPoly.coerce(other)
        return CxHPoly(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CxHPoly.coerce(other)
        return CxHPoly(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CxHPoly.coerce(other) - self

    def __neg__(self):
        return CxHPoly(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CxHPoly(self.re * other, self.im * other)
        if isinstance(other, GaussRat):
            return CxHPoly(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)
        o = CxHPoly.coerce(other)
        return CxHPoly(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CxHPoly(self.re / other, self.im / other)
        if isinstance(other, GaussRat):
            n = other.re * other.re + other.im * other.im
            return self * GaussRat(other.re / n, -other.im / n)
        raise TypeError("can only divide by an exact constant")

    def conj(self) -> "CxHPoly":
        return CxHPoly(self.re, -self.im)

    def __eq__(self, other):
        o = CxHPoly.coerce(other) if not isinstance(other, CxHPoly) else other
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def constant(self) -> GaussRat:
        return GaussRat(self.re.constant(), self.im.constant())

    def as_gauss(self) -> GaussRat:
        """Collapse to a Gaussian rational; requires no h dependence."""
        if set(self.re.terms) - {0} or set(self.im.terms) - {0}:
            raise ValueError("scalar still depends on h")
        return self.constant()

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"({self.im})*i"
        return f"({self.re}) + ({self.im})*i"

    __repr__ = __str__


class TauNumber:
    """Laurent polynomial in tau with Gaussian rational coefficients.

    tau is a formal stand-in for the circle period (2*pi), so torus
    boundary operators stay exact. Division is allowed only by a tau
    monomial, which is all exact elimination ever needs here.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms is None:
            return
        if isinstance(terms, (int, Fraction, GaussRat)):
            terms = {0: GaussRat.coerce(terms)}
        for e, c in dict(terms).items():
            c = GaussRat.coerce(c)
            if c:
                self.terms[int(e)] = c

    @staticmethod
    def _make(terms: dict) -> "TauNumber":
        """Trusted constructor: terms is zero-free with GaussRat values."""
        t = object.__new__(TauNumber)
        t.terms = terms
        return t

    @staticmethod
    def coerce(x) -> "TauNumber":
        if isinstance(x, TauNumber):
            return x
        return TauNumber(x)

    @staticmethod
    def tau(exp: int = 1, coeff=1) -> "TauNumber":
        return TauNumber({exp: GaussRat.coerce(coeff)})

    def __add__(self, other):
        o = TauNumber.coerce(other)
        t = dict(self.terms)
        for e, c in o.terms.items():
            add_term(t, e, c)
        return TauNumber._make(t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-TauNumber.coerce(other))

    def __neg__(self):
        return TauNumber._make({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = TauNumber.coerce(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                add_term(t, e1 + e2, c1 * c2)
        return TauNumber._make(t)

    __rmul__ = __mul__

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __truediv__(self, other):
        o = TauNumber.coerce(other)
        if not o.terms:
            raise ZeroDivisionError
        if not o.is_monomial():
            raise ValueError("tau-number division needs a monomial divisor")
        (e0, c0), = o.terms.items()
        return TauNumber._make({e - e0: c / c0
                                for e, c in self.terms.items()})

    def __eq__(self, other):
        o = TauNumber.coerce(other) if not isinstance(other, TauNumber) else other
        return self.terms == o.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def conj(self) -> "TauNumber":
        return TauNumber._make({e: c.conj() for e, c in self.terms.items()})

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
