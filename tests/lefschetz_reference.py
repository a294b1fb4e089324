"""The block-doubling determinant recursion, kept as a test reference.

From a seed matrix M_1, M_{j+1} = [[M_j, -I], [I, M_j + 2I]], and the
mirrored step [[M, I], [-I, M - 2I]].  Shared by acceptance criterion 07
and the symplectic tests.
"""

from fractions import Fraction
from math import prod

from qdr.linalg import char_poly
from qdr.scalars import HPoly


def _shifted_det(mat, shift):
    # det(mat + (t + s) I) = det(tI - N) for N = -(mat + s I)
    neg = [[-x - shift if i == j else -x for j, x in enumerate(row)]
           for i, row in enumerate(mat)]
    return HPoly(dict(enumerate(char_poly(neg).coeffs)))


def _step(mat, sign):
    k = len(mat)
    eye = [[Fraction(i == j) for j in range(k)] for i in range(k)]
    return ([row + [-sign * x for x in e] for row, e in zip(mat, eye)]
            + [[sign * x for x in e]
               + [x + 2 * sign * e[j] for j, x in enumerate(row)]
               for row, e in zip(mat, eye)])


def det_recursion_holds(m1, depth):
    """Whether, as exact polynomial identities in t,
      (a) det(M_{j+1} + tI) = det(M_j + (t+1)I)^2 at every level,
      (b) det(M_{k+1} + tI) = det(M_1 + (t+k)I)^(2^k) at depth k, and
      (c) the mirrored recursion gives det(M_1 + (t-k)I)^(2^k).
    """
    m1 = [[Fraction(x) for x in row] for row in m1]
    mats, mirror = [m1], [m1]
    for _ in range(depth):
        mats.append(_step(mats[-1], 1))
        mirror.append(_step(mirror[-1], -1))
    steps = all(_shifted_det(mats[j + 1], 0)
                == prod([_shifted_det(mats[j], 1)] * 2) for j in range(depth))
    closed = _shifted_det(mats[depth], 0) == prod(
        [_shifted_det(m1, depth)] * (1 << depth))
    mirrored = _shifted_det(mirror[depth], 0) == prod(
        [_shifted_det(m1, -depth)] * (1 << depth))
    return steps and closed and mirrored
