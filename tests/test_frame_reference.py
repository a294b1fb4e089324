"""The one complex frame against the loops it replaced.

Test-local copies of the per-entry frame loops (covector rows, frame
covectors, the bivector on the frame, the pairing checks) are kept here
as references, and the two-pass Dolbeault split of dolbeault_reference;
the matrix-product Frame must reproduce the loops value for value, and
del, delbar and the deformed split read off the frame must equal the
two-pass split in value, in str and in serialize().
"""

from fractions import Fraction
from random import Random

import pytest

from dolbeault_reference import (
    ref_dolbeault_deltas,
    ref_partial_d,
    ref_partial_dbar,
    ref_quantum_dolbeault_split,
    same_form,
)
from qdr import fields
from qdr.bigraded import Frame, _upper_bivector, standard_frame, standard_J
from qdr.exterior import Bivector
from qdr.fields import (
    FieldForm,
    dolbeault_deltas,
    partial_d,
    partial_dbar,
    quantum_dolbeault_split,
)
from qdr.fixtures import standard_symplectic, torus
from qdr.functions import PolyFn
from qdr.linalg import mat_inv, transpose
from qdr.rand import random_bivector, random_fieldform
from qdr.scalars import GaussRat, I
from qdr.symplectic import SymplecticForm, bivector_of

_HALF = Fraction(1, 2)

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

def test_blade_split_matches_the_hand_typed_halves():
    # del and delbar of sum_k k*x_k times each blade, on every blade:
    # d of it is sum_k k e^k ^ blade, split by the hand-typed halves
    for n in (1, 2, 3):
        fn = sum((PolyFn.coord(2 * n, k) * k for k in range(2, 2 * n + 1)),
                 PolyFn.coord(2 * n, 1))
        for mask in range(1 << (2 * n)):
            form = FieldForm.from_fn(fn, mask)
            assert same_form(partial_d(form), ref_partial_d(form))
            assert same_form(partial_dbar(form), ref_partial_dbar(form))


def test_dolbeault_split_matches_the_two_pass_split():
    # equal in value, str and serialize(); the insertion order of the
    # terms is not part of a result
    rng = Random(9002)
    for n in (1, 2):
        model = standard_symplectic(n)
        w = model.poisson
        for k in range(12):
            form = random_fieldform(rng, model, nterms=2, max_h=1,
                                    complex_ok=k % 2 == 1)
            got = quantum_dolbeault_split(form, w)
            want = ref_quantum_dolbeault_split(form, w)
            assert all(same_form(g, r) for g, r in zip(got, want))


def _dolbeault_forms():
    """(model, form) pairs: n = 1, 2, 3 polynomial forms with real and
    complex coefficients, and torus(1,1) and torus(2,1) forms times
    complex scalars."""
    rng = Random(9003)
    for n in (1, 2, 3):
        model = standard_symplectic(n)
        for k in range(6):
            yield model, random_fieldform(rng, model, nterms=2, max_h=1,
                                          complex_ok=k % 2 == 1)
    for model in (torus(1, 1), torus(2, 1)):
        for k in range(4):
            form = random_fieldform(rng, model, nterms=2, max_h=1)
            yield model, form * GaussRat(rng.randint(-2, 2), k + 1) + \
                random_fieldform(rng, model, nterms=1, max_h=1)


def test_del_and_delbar_match_the_reference():
    for model, form in _dolbeault_forms():
        w = model.poisson
        assert same_form(partial_d(form), ref_partial_d(form))
        assert same_form(partial_dbar(form), ref_partial_dbar(form))
        for got, want in ((dolbeault_deltas(form, w),
                           ref_dolbeault_deltas(form, w)),
                          (quantum_dolbeault_split(form, w),
                           ref_quantum_dolbeault_split(form, w))):
            assert all(same_form(g, r) for g, r in zip(got, want))


def test_dolbeault_split_rejects_what_the_frame_rejects():
    form = FieldForm(3, PolyFn, {(0, 1): 1})
    with pytest.raises(ValueError):
        partial_d(form)
    with pytest.raises(ValueError):
        partial_dbar(FieldForm.zero(3, PolyFn))
    with pytest.raises(ValueError):
        quantum_dolbeault_split(form, standard_symplectic(1).poisson)


def test_one_standard_frame_and_no_type_tables():
    for name in ("bidegree_split", "_type_table", "_TYPE_TABLES"):
        assert not hasattr(fields, name)
    omega = SymplecticForm(2)
    with pytest.raises(TypeError):
        Frame(omega, J=standard_J(2))
    with pytest.raises(TypeError):
        Frame(omega, basis=[[1, 0], [0, 1]])
