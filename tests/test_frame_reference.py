"""The one complex frame against the loops it replaced.

Test-local copies of the per-entry frame loops (covector rows, frame
covectors, the bivector on the frame, the pairing checks), of the
hand-typed Dolbeault blade split and of the two-pass Dolbeault operators
are kept here as references; the matrix-product Frame and the
frame-based split must reproduce them value for value and, where the
result is a dict, term for term in the same order.
"""

from fractions import Fraction
from random import Random

import pytest

from qdr.bigraded import Frame, _upper_bivector, standard_frame
from qdr.blades import blade_degree, wedge_masks
from qdr.exterior import Bivector
from qdr.fields import (
    FieldForm,
    bidegree_split,
    contract_field,
    exterior_d,
    quantum_dolbeault_split,
)
from qdr.fixtures import standard_symplectic
from qdr.functions import PolyFn
from qdr.linalg import mat_inv, transpose
from qdr.rand import random_bivector, random_fieldform
from qdr.scalars import GaussRat, I, add_term
from qdr.symplectic import SymplecticForm, bivector_of

_HALF = Fraction(1, 2)

ROTATED = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]


# -- reference frame loops -------------------------------------------------

def ref_covector_split(B, n):
    rows = []
    for i in range(2 * n):
        row = [GaussRat() for _ in range(2 * n)]
        for a in range(n):
            c_odd = GaussRat.coerce(B[i][2 * a]) * _HALF
            c_even = GaussRat.coerce(B[i][2 * a + 1]) * _HALF
            row[a] = row[a] + c_odd - I * c_even
            row[n + a] = row[n + a] + c_odd + I * c_even
        rows.append(row)
    return rows


def ref_frame_covectors(invB, n):
    out = []
    for a in range(n):
        out.append([GaussRat.coerce(invB[2 * a][i]) +
                    I * GaussRat.coerce(invB[2 * a + 1][i])
                    for i in range(2 * n)])
    for a in range(n):
        out.append([GaussRat.coerce(invB[2 * a][i]) -
                    I * GaussRat.coerce(invB[2 * a + 1][i])
                    for i in range(2 * n)])
    return out


def ref_pairing_cx(from_cx, w, n):
    entries = {}
    wm = [[GaussRat() for _ in range(2 * n)] for _ in range(2 * n)]
    for i, j, c in w.ordered_entries():
        wm[i - 1][j - 1] = GaussRat.coerce(c)
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            val = GaussRat()
            for i in range(2 * n):
                fa = from_cx[a][i]
                if not fa:
                    continue
                for j in range(2 * n):
                    if wm[i][j]:
                        val = val + fa * from_cx[b][j] * wm[i][j]
            if val:
                entries[(a + 1, b + 1)] = val
    return Bivector(2 * n, entries)


def ref_verify_pairings(omega, basis, from_cx, w, n):
    """The first-off message of the old per-entry checks, None if none."""
    half_i = I * _HALF
    two_i = I * 2
    fvecs = []
    for a in range(n):
        fvecs.append([GaussRat.coerce(x) * _HALF -
                      half_i * GaussRat.coerce(y)
                      for x, y in zip(basis[2 * a], basis[2 * a + 1])])
    for a in range(n):
        fvecs.append([GaussRat.coerce(x) * _HALF +
                      half_i * GaussRat.coerce(y)
                      for x, y in zip(basis[2 * a], basis[2 * a + 1])])
    for a in range(2 * n):
        for b in range(2 * n):
            val = GaussRat()
            for i in range(2 * n):
                for j in range(2 * n):
                    m = omega.matrix[i][j]
                    if m:
                        val = val + fvecs[a][i] * fvecs[b][j] * m
            if a < n <= b:
                want = half_i if b - n == a else GaussRat()
            elif b < n <= a:
                want = -half_i if a - n == b else GaussRat()
            else:
                want = GaussRat()
            if val != want:
                return ("frame pairing values are off: "
                        f"omega(f_{a + 1}, f_{b + 1}) = {val}")
    for i, j, c in ref_pairing_cx(from_cx, w, n).upper_entries():
        want = two_i if (i < n + 1 <= j and j - i == n) else GaussRat()
        if c != want:
            return f"frame bivector values are off: w({i}, {j}) = {c}"
    return None


def _verify_message(frame):
    try:
        frame._verify_pairings()
    except ValueError as ex:
        return str(ex)
    return None


def _frames():
    for n in (1, 2, 3):
        yield standard_frame(n), [[Fraction(i == j) for i in range(2 * n)]
                                  for j in range(2 * n)]
    yield Frame(SymplecticForm(2), basis=ROTATED), ROTATED


def test_frame_tables_match_the_loops():
    rng = Random(9001)
    for frame, basis in _frames():
        n = frame.n
        B = transpose(basis)
        assert frame._to_cx == ref_covector_split(B, n)
        from_cx = ref_frame_covectors(mat_inv(B), n)
        assert frame._from_cx == from_cx
        assert all(type(c) is GaussRat
                   for rows in (frame._to_cx, frame._from_cx)
                   for row in rows for c in row)
        ws = [bivector_of(frame.omega)] + [
            random_bivector(rng, 2 * n) for _ in range(4)]
        for w in ws:
            got = _upper_bivector(frame._cx_matrix(w))
            want = ref_pairing_cx(from_cx, w, n)
            assert got.ordered_entries() == want.ordered_entries()
        assert frame.wcx().ordered_entries() == \
            ref_pairing_cx(from_cx, bivector_of(frame.omega),
                           n).ordered_entries()
        assert ref_verify_pairings(frame.omega, basis, from_cx,
                                   bivector_of(frame.omega), n) is None
        assert _verify_message(frame) is None


def test_pairing_checks_name_the_same_first_pair():
    # a frame whose omega or bivector no longer fits its covectors: both
    # the loops and the products name the same first entry that is off
    for frame, basis in _frames():
        n = frame.n
        from_cx = ref_frame_covectors(mat_inv(transpose(basis)), n)
        good_omega, good_w = frame.omega, frame._wstd
        doubled = SymplecticForm(2 * n, [[2 * x for x in row]
                                         for row in good_omega.matrix])
        extra = good_w + Bivector(2 * n, {(1, 2 * n): 5})
        try:
            for omega, w in ((doubled, bivector_of(doubled)),
                             (good_omega, good_w.scale(2)),
                             (good_omega, extra)):
                frame.omega, frame._wstd = omega, w
                want = ref_verify_pairings(omega, basis, from_cx, w, n)
                assert want is not None
                assert _verify_message(frame) == want
        finally:
            frame.omega, frame._wstd = good_omega, good_w


# -- reference Dolbeault split ---------------------------------------------

def _indices(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def ref_halves(n, rmask):
    half = GaussRat(Fraction(1, 2))
    ihalf = GaussRat(0, Fraction(1, 2))
    state = {0: GaussRat(1)}
    for r in _indices(rmask):
        a = (r + 1) // 2
        if r % 2:
            options = ((a, half), (n + a, half))
        else:
            options = ((a, -ihalf), (n + a, ihalf))
        nxt = {}
        for cm, co in state.items():
            for idx, wgt in options:
                s, m2 = wedge_masks(cm, 1 << (idx - 1))
                if s:
                    add_term(nxt, m2, co * wgt * s)
        state = nxt
    low = (1 << n) - 1
    out = {}
    one = GaussRat(1)
    im = GaussRat(0, 1)
    for cmask, co in state.items():
        p = blade_degree(cmask & low)
        q = blade_degree(cmask >> n)
        back = {0: co}
        for idx in _indices(cmask):
            a = idx if idx <= n else idx - n
            iw = im if idx <= n else -im
            nxt = {}
            for rm, c in back.items():
                for rbit, wgt in (((2 * a - 1), one), ((2 * a), iw)):
                    s, m2 = wedge_masks(rm, 1 << (rbit - 1))
                    if s:
                        add_term(nxt, m2, c * wgt * s)
            back = nxt
        dest = out.setdefault((p, q), {})
        for rm, c in back.items():
            add_term(dest, rm, c)
    return {pq: sub for pq, sub in out.items() if sub}


def ref_bidegree_split(form):
    n = form.dim // 2
    comps = {}
    for (h, mask), fn in form.terms.items():
        for pq, sub in ref_halves(n, mask).items():
            dest = comps.setdefault(pq, {})
            for rm, c in sub.items():
                add_term(dest, (h, rm), fn * c)
    return {pq: form._like(t) for pq, t in comps.items() if t}


def _ref_project(form, p, q):
    return ref_bidegree_split(form).get(
        (p, q), FieldForm.zero(form.dim, form.fnring))


def ref_partial_d(form):
    out = FieldForm.zero(form.dim, form.fnring)
    for (p, q), comp in ref_bidegree_split(form).items():
        out = out + _ref_project(exterior_d(comp), p + 1, q)
    return out


def ref_partial_dbar(form):
    out = FieldForm.zero(form.dim, form.fnring)
    for (p, q), comp in ref_bidegree_split(form).items():
        out = out + _ref_project(exterior_d(comp), p, q + 1)
    return out


def ref_quantum_dolbeault_split(form, w):
    d10 = contract_field(w, ref_partial_dbar(form)) - \
        ref_partial_dbar(contract_field(w, form))
    d01 = contract_field(w, ref_partial_d(form)) - \
        ref_partial_d(contract_field(w, form))
    return (ref_partial_d(form) - d01.h_shift(1),
            ref_partial_dbar(form) - d10.h_shift(1))


def _same(a, b):
    """Equal forms with their terms in the same order."""
    return a == b and list(a.terms.items()) == list(b.terms.items())


def test_blade_split_matches_the_hand_typed_halves():
    for n in (1, 2, 3):
        for mask in range(1 << (2 * n)):
            blade = FieldForm(2 * n, PolyFn, {(0, mask): 1})
            got, want = bidegree_split(blade), ref_bidegree_split(blade)
            assert list(got) == list(want)
            assert all(_same(got[pq], want[pq]) for pq in want)


def test_dolbeault_split_matches_the_two_pass_split():
    rng = Random(9002)
    for n in (1, 2):
        model = standard_symplectic(n)
        w = model.poisson
        for k in range(12):
            form = random_fieldform(rng, model, nterms=2, max_h=1,
                                    complex_ok=k % 2 == 1)
            got = quantum_dolbeault_split(form, w)
            want = ref_quantum_dolbeault_split(form, w)
            assert all(_same(g, r) for g, r in zip(got, want))


def test_dolbeault_split_rejects_what_the_frame_rejects():
    form = FieldForm(3, PolyFn, {(0, 1): 1})
    with pytest.raises(ValueError):
        bidegree_split(form)
    with pytest.raises(ValueError):
        bidegree_split(FieldForm.zero(3, PolyFn))
    with pytest.raises(ValueError):
        quantum_dolbeault_split(form, standard_symplectic(1).poisson)
