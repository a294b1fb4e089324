"""Exact rank, determinant, characteristic polynomial machinery."""

import math
from fractions import Fraction
from random import Random

import pytest

from qdr import linalg
from qdr.linalg import (
    CharPolynomial,
    bareiss_det,
    char_poly,
    det_field,
    mat_inv,
    mat_mul,
    matrix_rank,
    solve,
    transpose,
)
from qdr.scalars import GaussRat, TauNumber
from qdr.symplectic import lefschetz_matrix


def rank_ff(rows) -> int:
    """Reference rank by fraction-free elimination: only ring operations
    and zero tests, no division."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pval = m[row][col]
        for r in range(row + 1, nr):
            if m[r][col]:
                factor = m[r][col]
                m[r] = [pval * x - factor * y for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def test_rank_basics():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_rank(m) == 1
    m2 = [[Fraction(1), Fraction(0), Fraction(3)],
          [Fraction(0), Fraction(5), Fraction(1)]]
    assert matrix_rank(m2) == rank_ff(m2) == 2


def test_rank_tau_entries():
    t = TauNumber.tau()
    zero = TauNumber()
    m = [[t, zero], [t, t * t]]
    assert matrix_rank(m) == rank_ff(m) == 2
    m2 = [[t, t], [t, t]]
    assert matrix_rank(m2) == rank_ff(m2) == 1


def _low_rank(rng, nrows, ncols, rank):
    # a product of nrows x rank and rank x ncols factors, plus sparsity
    left = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
             for _ in range(rank)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
              if rng.random() < 0.7 else Fraction(0)
              for _ in range(ncols)] for _ in range(rank)]
    if not rank:
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    return mat_mul(left, right)


def test_rank_one_pass_matches_reference():
    # the row pass alone: the column pass and the fraction-free
    # reference must give the same rank on every shape
    rng = Random(41)
    cases = [[], [[]], [[], []], [[Fraction(0)]], [[Fraction(3)]]]
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        cases.append(_low_rank(rng, nrows, ncols, rank))
    deficient = 0
    for m in cases:
        r = matrix_rank(m)
        assert r == matrix_rank(transpose(m)) == rank_ff(m)
        if m and m[0] and r < min(len(m), len(m[0])):
            deficient += 1
    assert deficient > 30


def test_dets_agree_random():
    rng = Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
              for _ in range(n)] for _ in range(n)]
        assert det_field(m) == bareiss_det(m)


def test_det_field_matches_bareiss_on_swaps_and_singular():
    # rows of an upper triangular matrix with a nonzero diagonal, put in
    # a random order: elimination must swap rows back, and each swap
    # flips the sign
    rng = Random(71)
    swapped = singular = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        upper = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                  if j > i else Fraction(0) for j in range(n)]
                 for i in range(n)]
        for i in range(n):
            upper[i][i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        perm = list(range(n))
        rng.shuffle(perm)
        m = [upper[p] for p in perm]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        want = math.prod(upper[i][i] for i in range(n)) * (-1) ** inversions
        assert det_field(m) == bareiss_det(m) == want
        swapped += m[0][0] == 0
        low = _low_rank(rng, n, n, rng.randint(0, n - 1))
        assert det_field(low) == bareiss_det(low) == 0
        assert type(det_field(low)) is Fraction
        singular += any(any(row) for row in low)
    assert swapped > 20 and singular > 30
    assert det_field([]) == bareiss_det([]) == 1


def test_det_field_gaussian():
    i = GaussRat(0, 1)
    one, zero = GaussRat(1), GaussRat()
    # det [[0, i], [1, 1]] = -i, after one row swap
    d = det_field([[zero, i], [one, one]])
    assert type(d) is GaussRat and d == GaussRat(0, -1)
    # singular: i * i - 1 * (-1) = 0, and a column with no pivot
    for m in ([[i, one], [-one, i]], [[zero, i], [zero, one]]):
        d = det_field(m)
        assert type(d) is GaussRat and d == 0


def test_rank_det_inverse_and_solve_share_one_elimination(monkeypatch):
    calls = []
    real = linalg._gauss_jordan

    def counting(aug, ncols):
        calls.append(ncols)
        return real(aug, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    m = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
    for run in (lambda: matrix_rank(m), lambda: det_field(m),
                lambda: mat_inv(m), lambda: solve(transpose(m), [1, 2])):
        calls.clear()
        run()
        assert calls == [2]


def test_char_poly_frozen():
    cp = char_poly([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(2)]])
    # t^2 - 2t - 1
    assert cp.coeffs == [Fraction(-1), Fraction(-2), Fraction(1)]

    ident = char_poly([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    # (t - 1)^2: the eigenvalue 1 twice
    assert ident.coeffs == [Fraction(1), Fraction(-2), Fraction(1)]


def value_at(cp, x):
    """The characteristic polynomial at t = x, by Horner's rule."""
    val = Fraction(0)
    for c in reversed(cp.coeffs):
        val = val * x + c
    return val


def test_char_poly_constant_term_is_det():
    rng = Random(21)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        cp = char_poly(m)
        sign = -1 if n % 2 else 1
        assert value_at(cp, 0) == sign * det_field(m)


def test_char_poly_str():
    cp = CharPolynomial([Fraction(-1), Fraction(-2), Fraction(1)])
    assert str(cp) == "t^2 - 2*t - 1"


def char_poly_fl(rows):
    """Reference characteristic polynomial by the Faddeev-LeVerrier
    recursion: n dense products, ascending coefficients."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [list(row) for row in rows]
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        if k == n:
            break
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
        mk = mat_mul(rows, mk)
    return coeffs


def _random_square(rng, n, kind):
    if kind == "dense":
        return [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                 for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        # rank at most n - 1, with some zero entries
        return _low_rank(rng, n, n, rng.randint(0, n - 1))
    # nilpotent: strictly upper triangular, conjugated by a permutation
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m[perm[i]][perm[j]] = Fraction(rng.randint(-3, 3))
    return m


def test_char_poly_matches_faddeev_leverrier():
    rng = Random(53)
    kinds = {"dense": 0, "singular": 0, "nilpotent": 0}
    for _ in range(300):
        n = rng.randint(1, 8)
        kind = rng.choice(sorted(kinds))
        m = _random_square(rng, n, kind)
        cp = char_poly(m)
        assert cp.coeffs == char_poly_fl(m)
        assert cp.det == det_field(m)
        if kind == "nilpotent":
            assert cp.coeffs == [0] * n + [1]
        elif kind == "singular":
            assert cp.det == 0
        kinds[kind] += 1
    assert min(kinds.values()) > 60
    assert char_poly([]).coeffs == [1] and char_poly([]).det == 1


def test_char_poly_on_lefschetz_windows():
    for n in (1, 2):
        for parity in ("even", "odd"):
            m = lefschetz_matrix(n, parity)
            assert char_poly(m).coeffs == char_poly_fl(m)
    # n = 3: the 32 x 32 windows, against det(xI - M) at 33 points
    for parity in ("even", "odd"):
        m = lefschetz_matrix(3, parity)
        cp = char_poly(m)
        for x in range(-16, 17):
            shifted = [[Fraction(x * (i == j)) - v for j, v in enumerate(row)]
                       for i, row in enumerate(m)]
            assert value_at(cp, x) == det_field(shifted)


def test_shifted_det_matches_det_field():
    # det(M + (t + s)I) = det(tI - N) with N = -(M + sI), the identity the
    # doubling recursion reference reads its polynomials from
    rng = Random(61)
    for _ in range(20):
        n = rng.randint(1, 5)
        s = rng.randint(-3, 3)
        m = _random_square(rng, n, rng.choice(("dense", "singular")))
        neg = [[-v - s if i == j else -v for j, v in enumerate(row)]
               for i, row in enumerate(m)]
        poly = char_poly(neg)
        for x in range(-3, 4):
            sample = [[v + (x + s) * (i == j) for j, v in enumerate(row)]
                      for i, row in enumerate(m)]
            assert value_at(poly, x) == det_field(sample)


def test_solve_cases():
    cols = [[Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(2), Fraction(2)]]
    assert solve(cols, [3, 4, 7]) == [3, 2]
    # rhs outside the column span
    assert solve(cols, [3, 4, 6]) is None
    # a repeated column is a free unknown, set to 0
    assert solve(cols + [cols[0]], [3, 4, 7]) == [3, 2, 0]
    assert solve([[Fraction(0), Fraction(0)]], [0, 1]) is None
    assert solve([[Fraction(0), Fraction(0)]], [0, 0]) == [0]


def test_mat_inv_round_trip():
    rng = Random(31)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
            if det_field(m):
                break
        prod = mat_mul(m, mat_inv(m))
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)
    with pytest.raises(ValueError):
        mat_inv([[Fraction(0)]])


def test_rank_gauss_rat():
    i = GaussRat(0, 1)
    m = [[i, GaussRat(1)], [GaussRat(-1), i]]
    assert matrix_rank(m) == 1
