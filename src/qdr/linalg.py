"""Exact linear algebra over the scalar rings used in this package.

Matrices are plain lists of row lists. Rank and determinants eliminate
exactly over Fraction and Gaussian-rational entries; the Bareiss
determinant scales rational rows to integers first. Characteristic
polynomials come from the Faddeev-LeVerrier recursion; polynomial
determinants from evaluation and interpolation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import HPoly, as_fraction, frac_str


def mat_mul(a, b):
    if not a or not b:
        return []
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for k, x in enumerate(row):
                term = x * b[k][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def matrix_rank(rows) -> int:
    """Rank by one pass of exact Gaussian elimination.

    Entries are Fraction or GaussRat, or anything else whose division by
    a pivot is exact.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pval = prow[col]
        for r in range(rank + 1, nr):
            if m[r][col]:
                factor = m[r][col] / pval
                m[r] = [x - factor * y if y else x
                        for x, y in zip(m[r], prow)]
        rank += 1
        if rank == nr:
            break
    return rank


def det_field(rows) -> Fraction:
    """Determinant by elimination with division."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    det = None
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return m[0][0] * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pval = m[col][col]
        det = pval if det is None else det * pval
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / pval
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det * sign


def bareiss_det(rows) -> Fraction:
    """Fraction-free determinant (Bareiss); rational input is scaled first."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in rows:
        row = [as_fraction(x) for x in row]
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale = scale * lcm
        m.append([int(x * lcm) for x in row])
    prev = 1
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for r in range(k + 1, n):
                if m[r][k]:
                    piv = r
                    break
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], 1) / scale


class CharPolynomial:
    """Monic characteristic polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # ascending: coeffs[k] multiplies t^k; leading coefficient must be 1
        self.coeffs = [as_fraction(c) for c in coeffs]
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        if isinstance(other, CharPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def as_hpoly(self) -> HPoly:
        return HPoly({e: c for e, c in enumerate(self.coeffs)})

    def rational_roots(self):
        """All rational roots with multiplicities: [(root, mult)], sorted."""
        coeffs = list(self.coeffs)
        roots = {}
        while len(coeffs) > 1:
            root = _find_rational_root(coeffs)
            if root is None:
                break
            coeffs = _deflate(coeffs, root)
            roots[root] = roots.get(root, 0) + 1
        remainder = coeffs
        return sorted(roots.items()), remainder

    def factor_report(self):
        roots, remainder = self.rational_roots()
        return {
            "roots": [(frac_str(r), m) for r, m in roots],
            "remainder": [frac_str(c) for c in remainder],
        }

    def __str__(self):
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                term = frac_str(abs(c))
            else:
                tp = "t" if e == 1 else f"t^{e}"
                mag = abs(c)
                term = tp if mag == 1 else f"{frac_str(mag)}*{tp}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"

    __repr__ = __str__

    def serialize(self):
        return [frac_str(c) for c in self.coeffs]


def _find_rational_root(coeffs):
    # rational root theorem on the integer-scaled polynomial
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    if ints and ints[0] == 0:
        return Fraction(0)
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 == 0 or an == 0:
        return None

    def divisors(v):
        out = []
        d = 1
        while d * d <= v:
            if v % d == 0:
                out.append(d)
                out.append(v // d)
            d += 1
        return sorted(set(out))

    poly = coeffs
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in reversed(poly):
                    val = val * cand + c
                if val == 0:
                    return cand
    return None


def _deflate(coeffs, root):
    # synthetic division by (t - root); the remainder must vanish
    n = len(coeffs) - 1
    q = [Fraction(0)] * n
    q[n - 1] = coeffs[n]
    for k in range(n - 1, 0, -1):
        q[k - 1] = coeffs[k] + root * q[k]
    rem = coeffs[0] + root * q[0]
    assert rem == 0, "deflation by a non-root"
    return q


def char_poly(rows) -> CharPolynomial:
    """Monic characteristic polynomial det(tI - M), Faddeev-LeVerrier."""
    n = len(rows)
    m = [[as_fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        tr = sum((mk[i][i] for i in range(n)), Fraction(0))
        ck = -tr / k
        coeffs[n - k] = ck
        if k == n:
            break
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
        mk = mat_mul(m, mk)
    return CharPolynomial(coeffs)


def lagrange_interpolate(points) -> HPoly:
    """Exact polynomial through (x, y) sample pairs."""
    result = HPoly()
    for i, (xi, yi) in enumerate(points):
        num = HPoly({0: 1})
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = num * HPoly({0: -xj, 1: 1})
            den = den * (xi - xj)
        result = result + num * (yi / den)
    return result


def poly_det(rows, degree_bound: int) -> HPoly:
    """Determinant of a matrix of HPoly entries, by interpolation."""
    pts = []
    for k in range(degree_bound + 1):
        x = Fraction(k)
        sample = [[e.subs(x) if isinstance(e, HPoly) else as_fraction(e)
                   for e in row] for row in rows]
        pts.append((x, det_field(sample)))
    return lagrange_interpolate(pts)


def mat_inv(rows):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    m = [[as_fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0)
                                          for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        pval = m[col][col]
        m[col] = [x / pval for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]
