"""Exact linear algebra over the scalar rings used in this package.

Matrices are plain lists of row lists. Rank and determinants eliminate
exactly over Fraction and Gaussian-rational entries; the Bareiss
determinant scales rational rows to integers first. One Gauss-Jordan
loop serves both the inverse and the linear solver. Characteristic
polynomials come from an exact reduction to upper Hessenberg form and
the Hessenberg recurrence, so every determinant that is a polynomial
in t, det(tI - M) or det(M + (t + s)I), is read off one routine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import as_fraction, frac_str


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

    @property
    def det(self) -> Fraction:
        """det M of the matrix: det(tI - M) at t = 0 is (-1)^n det M."""
        return -self.coeffs[0] if self.degree % 2 else self.coeffs[0]

    def __call__(self, x):
        return _poly_eval(self.coeffs, x)

    def __eq__(self, other):
        if isinstance(other, CharPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def rational_roots(self):
        """All rational roots with multiplicities: [(root, mult)], sorted,
        and the remainder left after dividing them out."""
        return rational_roots(self.coeffs)

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


def char_poly(rows) -> CharPolynomial:
    """Monic characteristic polynomial det(tI - M), exactly.

    M is brought to upper Hessenberg form H by elementary similarities:
    each row operation r_i -= u r_m is paired with the column operation
    c_m += u c_i. Then p_0 = 1 and

        p_m = (t - h_mm) p_{m-1}
              - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}

    (H. Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9) gives det(tI - M) = p_n. Zero entries are skipped in
    both phases, as in matrix_rank.
    """
    n = len(rows)
    h = [[as_fraction(x) for x in row] for row in rows]
    for m in range(1, n - 1):
        piv = None
        for r in range(m, n):
            if h[r][m - 1]:
                piv = r
                break
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        pval = h[m][m - 1]
        prow = h[m]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            u = h[i][m - 1] / pval
            row = h[i]
            for j in range(m - 1, n):
                if prow[j]:
                    row[j] = row[j] - u * prow[j]
            for row in h:
                if row[i]:
                    row[m] = row[m] + u * row[i]
    polys = [[Fraction(1)]]
    for m in range(n):
        prev = polys[m]
        diag = h[m][m]
        p = [Fraction(0)] + prev
        if diag:
            for k, c in enumerate(prev):
                p[k] = p[k] - diag * c
        sub = Fraction(1)
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i]
            if not sub:
                break
            c = h[i][m] * sub
            if c:
                for k, q in enumerate(polys[i]):
                    p[k] = p[k] - c * q
        polys.append(p)
    return CharPolynomial(polys[n])


def rational_roots(coeffs):
    """Rational roots of the polynomial with ascending coefficients.

    Returns ([(root, multiplicity)] sorted by root, remainder): the
    remainder is the ascending coefficient list left once every rational
    root is divided out. Trailing zero coefficients are dropped; the
    zero polynomial is rejected. Roots come from the square-free part
    f / gcd(f, f'), whose roots are f's, each once; deflating f itself
    by a root as often as it vanishes counts the multiplicity. Raises
    ValueError when a square-free remainder of degree 3 or more would
    need trial divisors past _DIVISOR_CAP.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has every root")
    square_free, _ = _poly_divmod(coeffs,
                                  _poly_gcd(coeffs, _derivative(coeffs)))
    roots = []
    for root in _square_free_roots(square_free):
        mult = 0
        while len(coeffs) > 1 and not _poly_eval(coeffs, root):
            coeffs = _deflate(coeffs, root)
            mult += 1
        roots.append((root, mult))
    return sorted(roots), coeffs


def _poly_eval(coeffs, x):
    val = Fraction(0)
    for c in reversed(coeffs):
        val = val * x + c
    return val


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_divmod(num, den):
    """Quotient and remainder of ascending coefficient lists; den has a
    nonzero leading coefficient."""
    rem = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1] / lead
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                rem[k + i] -= c * d
    rem = rem[:len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm; b may be the zero list."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


# trial division stops here: a square-free remainder of degree 3 or
# more whose divisor search would go further is refused, not searched
_DIVISOR_CAP = 10**6


def _square_free_roots(sf):
    """The rational roots of a square-free polynomial, each once.

    Candidates from the rational root theorem deflate the polynomial
    while its degree is 3 or more; a linear or quadratic remainder is
    solved exactly, so only a remainder of degree 3 or more needs the
    complete divisor search.
    """
    roots = []
    if not sf[0]:
        roots.append(Fraction(0))
        sf = sf[1:]
    if len(sf) > 3:
        candidates, complete = _root_candidates(sf)
        for root in sorted(candidates):
            if len(sf) <= 3:
                break
            if not _poly_eval(sf, root):
                roots.append(root)
                sf = _deflate(sf, root)
        if len(sf) > 3 and not complete:
            raise ValueError("rational roots of a degree "
                             f"{len(sf) - 1} factor need trial divisors "
                             f"past {_DIVISOR_CAP}")
    if len(sf) == 2:
        roots.append(-sf[0] / sf[1])
    elif len(sf) == 3:
        roots.extend(_quadratic_roots(sf))
    return roots


def _quadratic_roots(c):
    """Rational roots of c0 + c1 t + c2 t^2 from an exact square root of
    the discriminant."""
    disc = c[1] * c[1] - 4 * c[0] * c[2]
    if disc < 0:
        return []
    num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    return {(-c[1] + s) / (2 * c[2])
            for s in (Fraction(num, den), Fraction(-num, den))}


def _divisors(v):
    """The divisors of v > 0 that trial division up to _DIVISOR_CAP finds,
    and whether they are all of them."""
    top = math.isqrt(v)
    out = set()
    for d in range(1, min(top, _DIVISOR_CAP) + 1):
        if v % d == 0:
            out.update((d, v // d))
    return out, top <= _DIVISOR_CAP


def _root_candidates(coeffs):
    """The rational numbers the rational root theorem allows as roots of
    the integer-scaled polynomial, whose constant term is nonzero, and
    whether the divisor searches behind them were complete."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ps, p_all = _divisors(abs(int(coeffs[0] * lcm)))
    qs, q_all = _divisors(abs(int(coeffs[-1] * lcm)))
    out = set()
    for p in ps:
        for q in qs:
            out.update((Fraction(p, q), Fraction(-p, q)))
    return out, p_all and q_all


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


def _gauss_jordan(aug, ncols):
    """Reduce the first ncols columns of aug to reduced row echelon form,
    in place; return the pivot columns in order."""
    nrows = len(aug)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = None
        for rr in range(r, nrows):
            if aug[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pval = aug[r][col]
        prow = aug[r] = [x / pval for x in aug[r]]
        for rr in range(nrows):
            if rr != r and aug[rr][col]:
                factor = aug[rr][col]
                aug[rr] = [x - factor * y if y else x
                           for x, y in zip(aug[rr], prow)]
        pivots.append(col)
    return pivots


def mat_inv(rows):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    aug = [[as_fraction(x) for x in row] + [Fraction(int(i == j))
                                            for j in range(n)]
           for i, row in enumerate(rows)]
    if len(_gauss_jordan(aug, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def solve(columns, rhs):
    """Exact x with sum_j x[j] columns[j] = rhs, free unknowns set to 0;
    None if the system is inconsistent."""
    ncols = len(columns)
    aug = [[as_fraction(col[i]) for col in columns] + [as_fraction(b)]
           for i, b in enumerate(rhs)]
    pivots = _gauss_jordan(aug, ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = row[ncols]
    return sol
