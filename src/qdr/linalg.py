"""Exact linear algebra over the scalar rings used in this package.

Matrices are plain lists of row lists. One Gauss-Jordan loop, exact
over Fraction and Gaussian-rational entries, is behind the rank, the
determinant, the inverse and the linear solver. The Bareiss determinant
is a fraction-free reference that scales rational rows to integers
first. Characteristic polynomials come from an exact reduction to
upper Hessenberg form and the Hessenberg recurrence, so every
determinant that is a polynomial in t, det(tI - M) or
det(M + (t + s)I), is read off one routine. No library path calls
matrix_rank or bareiss_det; the benchmark's tracer wraps both.
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


def _gauss_jordan(aug, ncols):
    """Reduce the first ncols columns of aug to reduced row echelon form,
    in place. Return the pivot columns in order and the product of the
    pivots, negated once per row swap (None when there is no pivot):
    for a square matrix with a pivot in every column, its determinant."""
    nrows = len(aug)
    pivots = []
    det = None
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
        step = pval if piv == r else -pval
        det = step if det is None else det * step
        prow = aug[r] = [x / pval for x in aug[r]]
        for rr in range(nrows):
            if rr != r and aug[rr][col]:
                factor = aug[rr][col]
                aug[rr] = [x - factor * y if y else x
                           for x, y in zip(aug[rr], prow)]
        pivots.append(col)
    return pivots, det


def matrix_rank(rows) -> int:
    """Rank: the number of Gauss-Jordan pivots.

    Entries are Fraction or GaussRat, or anything else whose division by
    a pivot is exact.
    """
    m = [list(r) for r in rows]
    return len(_gauss_jordan(m, len(m[0]) if m else 0)[0])


def det_field(rows) -> Fraction:
    """Determinant by elimination with division: the signed product of
    the Gauss-Jordan pivots, or the entries' zero when a column has
    none."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    pivots, det = _gauss_jordan([list(r) for r in rows], n)
    return det if len(pivots) == n else rows[0][0] * 0


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
    both phases, as in the Gauss-Jordan loop.
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


def mat_inv(rows):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    aug = [[as_fraction(x) for x in row] + [Fraction(int(i == j))
                                            for j in range(n)]
           for i, row in enumerate(rows)]
    if len(_gauss_jordan(aug, n)[0]) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def solve(columns, rhs):
    """Exact x with sum_j x[j] columns[j] = rhs, free unknowns set to 0;
    None if the system is inconsistent."""
    ncols = len(columns)
    aug = [[as_fraction(col[i]) for col in columns] + [as_fraction(b)]
           for i, b in enumerate(rhs)]
    pivots = _gauss_jordan(aug, ncols)[0]
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = row[ncols]
    return sol
