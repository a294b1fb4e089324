"""Exact coordinate functions: polynomials and torus Fourier modes.

Both rings support the handful of operations the field calculus needs:
ring arithmetic, partial derivatives, and exact equality. FourierFn keeps
a formal generator tau for the circle period so differentiation never
leaves exact arithmetic.
"""

from fractions import Fraction

from .scalars import (GaussRat, HPoly, SparseRing, TauNumber, _coeff_str,
                      add_keys, add_term, as_fraction, frac_str, int_exponent,
                      zero_key)


def _variables(fn) -> int:
    """The mask with bit j - 1 set for each coordinate x^j that some term
    of a PolyFn or FourierFn holds: the j whose partial is nonzero."""
    mask = 0
    for key in fn.terms:
        for j, e in enumerate(key):
            if e:
                mask |= 1 << j
    return mask


def _coerce_scalar(c):
    if isinstance(c, (int, str)):
        return as_fraction(c)
    if isinstance(c, (Fraction, GaussRat, HPoly)):
        return c
    raise TypeError(f"not a scalar coefficient: {c!r}")


class PolyFn(SparseRing):
    """Polynomial in x^1..x^dim with exact coefficients.

    Terms map exponent tuples to coefficients; coefficients may be
    rational, Gaussian rational, or h-polynomials (the Moyal product
    produces the latter).
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms = {}
        for expo, c in dict(terms or {}).items():
            expo = tuple(map(int_exponent, expo))
            if len(expo) != dim or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for dim {dim}")
            add_term(self.terms, expo, _coerce_scalar(c))

    @classmethod
    def coord(cls, dim: int, j: int) -> "PolyFn":
        if not 1 <= j <= dim:
            raise ValueError(f"coordinate x{j} out of range for dim {dim}")
        expo = tuple(1 if k == j - 1 else 0 for k in range(dim))
        return cls(dim, {expo: 1})

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.dim, Fraction(0))

    _KEYSUM = staticmethod(add_keys)
    _SCALARS = (int, Fraction, GaussRat, HPoly)
    # Moyal products' HPoly values are left out of clearing
    _LEAVES = (Fraction, int, GaussRat)
    _COERCE = (int, GaussRat, HPoly, str, Fraction)
    _UNIT = staticmethod(zero_key)

    def __truediv__(self, other):
        if isinstance(other, (int, str)):
            other = as_fraction(other)
        if isinstance(other, Fraction):
            return self * (Fraction(1) / other)
        if isinstance(other, GaussRat):
            return self * (GaussRat(1) / other)
        raise TypeError("polynomial division limited to scalars")

    variables = _variables

    def partial(self, j: int) -> "PolyFn":
        if not 1 <= j <= self.dim:
            raise ValueError(f"coordinate x{j} out of range")
        # lowering the j-th exponent is injective, so no two terms meet
        t = {}
        for expo, c in self.terms.items():
            e = expo[j - 1]
            if e:
                t[expo[:j - 1] + (e - 1,) + expo[j:]] = e * c
        return self._like(t)

    def _mono_str(self, expo):
        parts = []
        for k, e in enumerate(expo):
            if e == 1:
                parts.append(f"x{k + 1}")
            elif e > 1:
                parts.append(f"x{k + 1}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), e))
        parts = []
        for expo in keys:
            c = self.terms[expo]
            mono = self._mono_str(expo)
            if not mono:
                parts.append(_coeff_str(c) if not isinstance(c, HPoly)
                             else f"({c})")
            elif c == 1:
                parts.append(mono)
            else:
                cs = _coeff_str(c) if not isinstance(c, HPoly) else f"({c})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__

    def serialize(self):
        keys = sorted(self.terms, key=lambda e: (sum(e), e))
        out = []
        for expo in keys:
            c = self.terms[expo]
            if isinstance(c, HPoly):
                out.append([list(expo), c.serialize()])
            elif isinstance(c, GaussRat):
                out.append([list(expo), c.serialize()])
            else:
                out.append([list(expo), frac_str(c)])
        return out


class FourierFn(SparseRing):
    """Trigonometric polynomial on a torus, as exact exponential modes.

    A term (k_1, ..., k_d) -> c stands for c * exp(i tau <k, x>) with tau
    the formal circle period. Coefficients are TauNumbers so derivatives
    (which multiply by i tau k_j) stay in the ring.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms = {}
        for mode, c in dict(terms or {}).items():
            mode = tuple(map(int_exponent, mode))
            if len(mode) != dim:
                raise ValueError(f"bad mode {mode} for dim {dim}")
            add_term(self.terms, mode, TauNumber.coerce(c))

    @classmethod
    def mode(cls, dim: int, ks, coeff=1) -> "FourierFn":
        return cls(dim, {tuple(ks): coeff})

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_coeff(self) -> TauNumber:
        return self.terms.get((0,) * self.dim, TauNumber())

    _KEYSUM = staticmethod(add_keys)
    _SCALARS = _COERCE = (int, GaussRat, TauNumber, Fraction)
    _LEAVES = (TauNumber,)
    _UNIT = staticmethod(zero_key)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, TauNumber)):
            c = TauNumber.coerce(other)
            return self._like({m: v / c for m, v in self.terms.items()})
        raise TypeError("mode division limited to scalars")

    variables = _variables

    def partial(self, j: int) -> "FourierFn":
        # d/dx^j exp(i tau <k, x>) = i tau k_j exp(i tau <k, x>)
        if not 1 <= j <= self.dim:
            raise ValueError(f"coordinate x{j} out of range")
        t = {}
        for mode, c in self.terms.items():
            k = mode[j - 1]
            if k:
                t[mode] = c * TauNumber.tau(1, GaussRat(0, k))
        return self._like(t)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mode in sorted(self.terms):
            c = self.terms[mode]
            mono = ("" if not any(mode)
                    else "mode(" + ",".join(str(k) for k in mode) + ")")
            if not mono:
                parts.append(str(c) if c.is_monomial() else f"({c})")
            elif c == 1:
                parts.append(mono)
            else:
                cs = str(c)
                if not c.is_monomial() or not cs[0].isalnum():
                    cs = f"({cs})"
                elif "/" in cs or "*" in cs or "i" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__

    def serialize(self):
        out = []
        for mode in sorted(self.terms):
            c = self.terms[mode]
            out.append([list(mode),
                        [[e, c.terms[e].serialize()] for e in sorted(c.terms)]])
        return out


def moyal_product(u: PolyFn, v: PolyFn, w) -> PolyFn:
    """Deformed product of polynomials from the derivative expansion.

    Level n contributes h^n/n! sum over index words of the pairing
    entries times matched n-th partials of u and v. Polynomials have
    finitely many nonzero partials so the sum terminates.
    """
    if u.dim != w.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch")
    entries = w.ordered_entries()
    out = PolyFn.zero(u.dim)
    pairs = [(u, v, Fraction(1))]
    n = 0
    factinv = Fraction(1)
    while pairs:
        level = PolyFn.zero(u.dim)
        for a, b, c in pairs:
            level = level + (a * b) * c
        out = out + level * HPoly._make({n: factinv})
        nxt = []
        for a, b, c in pairs:
            # only a coordinate a function holds has a nonzero partial
            va, vb = a.variables(), b.variables()
            for i, j, wij in entries:
                if va >> (i - 1) & 1 and vb >> (j - 1) & 1:
                    nxt.append((a.partial(i), b.partial(j), c * wij))
        pairs = nxt
        n += 1
        factinv = factinv / n
    return out
