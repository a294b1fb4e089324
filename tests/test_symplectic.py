"""Symplectic star, operator family, spectra: frozen tables and identities."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from lefschetz_reference import det_recursion_holds
from qdr.blades import blade_degree, masks_of_degree, wedge_masks
from qdr.exterior import QForm, substitute, wedge
from qdr import symplectic
from qdr.linalg import char_poly
from qdr.rand import random_qform
from qdr.scalars import HPoly, add_term
from qdr.symplectic import (
    SymplecticForm,
    apply_A,
    apply_Ah,
    apply_K,
    apply_L,
    apply_Lh,
    apply_Lhstar,
    apply_Lstar,
    bivector_of,
    contract_bivector,
    decomposition_report,
    graded_window_basis,
    lefschetz_matrix,
    relation_report,
    symplectic_star,
    window_matrix,
)

OM2 = SymplecticForm(2)
OM4 = SymplecticForm(4)
OM6 = SymplecticForm(6)


def blades(dim):
    return [QForm(dim, {m: 1}) for m in range(1 << dim)]


def test_bivector_of_standard():
    assert bivector_of(OM2).entry(1, 2) == -1
    w4 = bivector_of(OM4)
    assert w4.entry(1, 2) == -1 and w4.entry(3, 4) == -1
    assert w4.entry(1, 3) == 0
    assert w4.entry(2, 1) == 1


def test_bivector_inverts_the_form_once(monkeypatch):
    calls = []
    real = symplectic.mat_inv

    def counting(rows):
        calls.append(rows)
        return real(rows)
    monkeypatch.setattr(symplectic, "mat_inv", counting)
    w = SymplecticForm(4).bivector
    assert len(calls) == 1
    assert w == bivector_of(SymplecticForm(4))


def test_contract_bivector_values():
    w2 = bivector_of(OM2)
    assert contract_bivector(w2, QForm.basis(2, (1, 2))) == \
        QForm.scalar(2, -1)
    for om in (OM2, OM4, OM6):
        w = om.bivector
        assert contract_bivector(w, om.form) == QForm.scalar(om.dim, -om.n)
    om2sq = wedge(OM4.form, OM4.form)
    assert contract_bivector(OM4.bivector, om2sq) == -2 * OM4.form


def test_star_frozen_table_dim2():
    om = OM2.form
    assert symplectic_star(QForm.scalar(2, 1), OM2) == om
    assert symplectic_star(QForm.one_form(2, 1), OM2) == -QForm.one_form(2, 1)
    assert symplectic_star(QForm.one_form(2, 2), OM2) == -QForm.one_form(2, 2)
    assert symplectic_star(om, OM2) == QForm.scalar(2, 1)
    # h flips sign of exponent through the star
    hform = QForm.scalar(2, HPoly({1: 1}))
    assert symplectic_star(hform, OM2) == \
        QForm(2, {(1, 2): HPoly({-1: 1})})


# every off-diagonal entry of w is nonzero (over 31), so no minor
# vanishes by Darboux position
DENSE6 = SymplecticForm(6, [[0, -1, 1, -2, 2, -1], [1, 0, -1, -2, 2, 3],
                            [-1, 1, 0, 2, 2, -1], [2, 2, -2, 0, 3, 1],
                            [-2, -2, -2, -3, 0, -1], [1, -3, 1, -1, 1, 0]])


def test_substitution_through_w_gives_the_star_minors():
    # the blade b with each e^i replaced by the column sum_l w(l, i) e^l
    # has coefficient lambda(w)(a, b) on e^a: one substitution per blade
    # gives every minor the star needs
    for om in (OM4, DENSE6):
        w = om.bivector
        cols = [[w.entry(l, i) for l in range(1, om.dim + 1)]
                for i in range(1, om.dim + 1)]
        for m in range(1 << om.dim):
            want = {}
            for a in masks_of_degree(om.dim, blade_degree(m)):
                val = symplectic.lambda_pairing(w, a, m)
                if val:
                    want[a] = val
            assert substitute({m: 1}, cols) == want
    assert all(DENSE6.bivector.entry(i, j)
               for i in range(1, 7) for j in range(1, 7) if i != j)


def test_star_square_identity():
    for om in (OM2, OM4, OM6):
        for b in blades(om.dim):
            assert symplectic_star(symplectic_star(b, om), om) == b


def _reference_star(form, om):
    """The star with one minor per pair of same-degree blades: every
    blade a of m's degree, in ascending mask order."""
    w, vol = om.bivector, om.volume_coeff
    top = (1 << om.dim) - 1
    out = {}
    for m, c in form.terms.items():
        flipped = HPoly({-e: q for e, q in c.terms.items()})
        for a in masks_of_degree(om.dim, blade_degree(m)):
            val = symplectic.lambda_pairing(w, a, m)
            if val:
                s, _ = wedge_masks(a, top ^ a)
                add_term(out, top ^ a, flipped * (val * vol / s))
    return QForm(om.dim, out)


def _shuffled_darboux(rng, dim):
    """A Darboux form on shuffled coordinates: pair a couples the
    coordinates perm[2a] and perm[2a + 1] with a scale from +-2/3, +-3/2."""
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for a in range(dim // 2):
        i, j = perm[2 * a], perm[2 * a + 1]
        c = rng.choice([Fraction(2, 3), Fraction(-2, 3), Fraction(3, 2),
                        Fraction(-3, 2)])
        rows[i][j], rows[j][i] = c, -c
    return SymplecticForm(dim, rows), perm


def _dense_symplectic(rng, dim):
    """A form whose bivector has every off-diagonal entry nonzero."""
    while True:
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                rows[i][j], rows[j][i] = c, -c
        try:
            om = SymplecticForm(dim, rows)
        except ValueError:
            continue
        if len(om.bivector.entries) == dim * (dim - 1):
            return om


def test_star_skips_only_minors_off_the_row_support(monkeypatch):
    # the star equals the one over every blade pair, term for term and in
    # the same order, on random forms with h-coefficients; in shuffled
    # Darboux position the filter skips minors, and on a dense pairing
    # it skips none past degree one, where only a = m has a zero row
    rng = Random(31)
    calls = []
    real = symplectic.lambda_pairing

    def counting(w, a, b):
        calls.append((a, b))
        return real(w, a, b)
    monkeypatch.setattr(symplectic, "lambda_pairing", counting)
    for dim in (2, 4, 6):
        full = (1 << dim) - 1
        darboux, perm = _shuffled_darboux(rng, dim)
        dense = _dense_symplectic(rng, dim)
        partner = {}
        for a in range(dim // 2):
            i, j = perm[2 * a], perm[2 * a + 1]
            partner[1 << i], partner[1 << j] = 1 << j, 1 << i
        for m in range(1 << dim):
            support = sum(partner[1 << i] for i in range(dim) if m >> i & 1)
            assert darboux.bivector.row_support(m) == support
            want = (full ^ m) if m.bit_count() == 1 else full if m else 0
            assert dense.bivector.row_support(m) == want
        for om in (darboux, dense):
            for _ in range(6):
                form = random_qform(rng, dim, nterms=4, max_h=2) \
                    + random_qform(rng, dim, nterms=2, max_h=1).h_shift(-1)
                calls.clear()
                got = symplectic_star(form, om)
                fast = len(calls)
                calls.clear()
                want = _reference_star(form, om)
                assert list(got.terms.items()) == list(want.terms.items())
                assert any(e < 0 for c in got.terms.values()
                           for e in c.terms)
                degrees = [m.bit_count() for m in form.terms]
                # in Darboux position the support of m holds one blade
                # of m's degree: the partners of m's coordinates
                assert fast == sum(1 if om is darboux
                                   else comb(dim, k) - (k == 1)
                                   for k in degrees)
                assert len(calls) == sum(comb(dim, k) for k in degrees)


def test_omega_powers_are_worked_out_once():
    for om in (OM2, OM4, OM6):
        powers = om.powers
        assert powers is om.powers
        assert len(powers) == om.n + 1
        assert powers[0] == QForm.scalar(om.dim, 1)
        assert powers[1] == om.form
        fact = 1
        power = QForm.scalar(om.dim, 1)
        for k in range(1, om.n + 1):
            fact *= k
            power = wedge(power, om.form)
            assert powers[k] == power * Fraction(1, fact)
        assert om.volume is powers[-1]
        top = (1 << om.dim) - 1
        assert om.volume == QForm(om.dim, {top: om.volume_coeff})


def test_star_volume():
    assert symplectic_star(QForm.scalar(4, 1), OM4) == OM4.volume
    assert symplectic_star(OM4.volume, OM4) == QForm.scalar(4, 1)


def test_basic_operators():
    assert apply_K(QForm.basis(2, (1, 2))) == 2 * QForm.basis(2, (1, 2))
    for om in (OM2, OM4):
        for b in blades(om.dim):
            assert apply_K(b) == b.blade_degrees()[0] * b if b.terms else True
    assert apply_A(QForm.scalar(4, 1), OM4) == 2 * QForm.scalar(4, 1)
    assert apply_L(QForm.scalar(2, 1), OM2) == OM2.form
    with pytest.raises(ValueError):
        apply_A(QForm.scalar(2, 1) + QForm.one_form(2, 1), OM2)


def test_lefschetz_quantum_frozen():
    om = OM2
    assert apply_Lh(QForm.scalar(2, 1), om) == om.form
    assert apply_Lh(om.form, om) == QForm(
        2, {(1, 2): HPoly({1: 2}), 0: HPoly({2: -1})})
    assert apply_Lh(QForm.one_form(2, 1), om) == \
        QForm(2, {(1,): HPoly({1: 1})})


def test_lhstar_frozen():
    out = apply_Lhstar(QForm.scalar(2, 1), OM2)
    want = QForm(2, {(1, 2): HPoly({-2: 1}), 0: HPoly({-1: -2})})
    assert out == want
    assert apply_Lhstar(QForm.one_form(2, 1), OM2) == \
        QForm(2, {(1,): HPoly({-1: -1})})


def test_ah_counting():
    h1 = QForm.scalar(2, HPoly({1: 1}))
    assert apply_Ah(h1, OM2) == -1 * h1
    assert apply_Ah(QForm.scalar(2, 1), OM2) == QForm.scalar(2, 1)
    assert apply_Ah(QForm.basis(4, (1, 2)), OM4).is_zero()


def test_decomposition_report():
    assert decomposition_report(1) == (1, 1, 1)
    assert decomposition_report(2) == (1, 1, 1)


def test_relation_report():
    assert relation_report(1) == (1, -2)
    assert relation_report(2) == (1, -4)


def test_bracket_identities():
    # [L, K] = -2L and [insertion, K] = 2*insertion on the full basis
    for om in (OM2, OM4, OM6):
        for b in blades(om.dim):
            if b.is_zero() or len(b.blade_degrees()) != 1:
                continue
            lk = apply_L(apply_K(b), om) - apply_K(apply_L(b, om))
            assert lk == -2 * apply_L(b, om)
            sk = apply_Lstar(apply_K(b), om) - apply_K(apply_Lstar(b, om))
            assert sk == 2 * apply_Lstar(b, om)


def test_l_insertion_bracket_sign():
    # [L, iota_w] = s (K - n Id) with one global s; derived s = -1
    for om in (OM2, OM4, OM6):
        for b in blades(om.dim):
            lhs = apply_L(apply_Lstar(b, om), om) - \
                apply_Lstar(apply_L(b, om), om)
            k = b.blade_degrees()[0] if b.terms else 0
            assert lhs == -1 * (k - om.n) * b


def test_kstar_identity():
    # K* := -(* K *) is K - 2n Id
    for om in (OM2, OM4):
        for b in blades(om.dim):
            kstar = -symplectic_star(apply_K(symplectic_star(b, om)), om)
            assert kstar == apply_K(b) - 2 * om.n * b


def test_lh_family_brackets():
    # F = L + s h A + h^2 iota_w + p h, F* = iota_w + s h^-1 A + h^-2 L
    # + q h^-1 and A_r = A_h + r, with A extended linearly across blade
    # degrees: [F, A_r] = 2F, [F*, A_r] = -2F*, [F, F*] = 0 on a graded
    # basis, and [D, h^s] = 2 s h^s for D = -A_h; the default family
    # (s, p, q, r) = (-1, n, -n, 0) is L_h, L_h* and A_h
    for n, s, p, q, r in ((1, -1, 1, -1, 0), (1, 1, Fraction(1, 2), 3, -2),
                          (2, -1, 0, 0, 0)):
        om = SymplecticForm(2 * n)

        def a_graded(f):
            return QForm(f.dim, {m: c * (n - blade_degree(m))
                                 for m, c in f.terms.items()})

        def fam_l(f):
            return (apply_L(f, om) + s * a_graded(f).h_shift(1)
                    + apply_Lstar(f, om).h_shift(2) + p * f.h_shift(1))

        def fam_lstar(f):
            return (apply_Lstar(f, om) + s * a_graded(f).h_shift(-1)
                    + apply_L(f, om).h_shift(-2) + q * f.h_shift(-1))

        def fam_a(f):
            return apply_Ah(f, om) + r * f

        def bracket(f, g, form):
            return f(g(form)) - g(f(form))

        if (s, p, q, r) == (-1, n, -n, 0):
            for b in blades(om.dim):
                assert fam_l(b) == apply_Lh(b, om)
                assert fam_lstar(b) == apply_Lhstar(b, om)
                assert fam_a(b) == apply_Ah(b, om)
        for mask in range(1 << om.dim):
            for j in (-1, 0, 1):
                bj = QForm(om.dim, {mask: HPoly({j: 1})})
                assert bracket(fam_l, fam_a, bj) == 2 * fam_l(bj)
                assert bracket(fam_lstar, fam_a, bj) == -2 * fam_lstar(bj)
                assert bracket(fam_l, fam_lstar, bj).is_zero()
                for t in (1, -1):
                    up = bj.h_shift(t)
                    assert (-apply_Ah(up, om) + apply_Ah(bj, om).h_shift(t)
                            == (2 * t) * up)


def test_lh_lhstar_commute_and_ah_brackets():
    for om in (OM2, OM4):
        for b in blades(om.dim):
            for j in (-1, 0, 1):
                bj = b.h_shift(j)
                c1 = apply_Lh(apply_Ah(bj, om), om) - \
                    apply_Ah(apply_Lh(bj, om), om)
                assert c1 == 2 * apply_Lh(bj, om)
                c2 = apply_Lhstar(apply_Ah(bj, om), om) - \
                    apply_Ah(apply_Lhstar(bj, om), om)
                assert c2 == -2 * apply_Lhstar(bj, om)
                c3 = apply_Lh(apply_Lhstar(bj, om), om) - \
                    apply_Lhstar(apply_Lh(bj, om), om)
                assert c3.is_zero()


def test_lefschetz_matrix_frozen():
    odd = lefschetz_matrix(1, "odd")
    assert odd.mat == [[Fraction(1), Fraction(0)],
                       [Fraction(0), Fraction(1)]]
    even = lefschetz_matrix(1, "even")
    assert even.mat == [[Fraction(0), Fraction(-1)],
                        [Fraction(1), Fraction(2)]]
    cp = even.char_poly()
    # (t - 1)^2: the eigenvalue 1 twice
    assert cp.coeffs == [Fraction(1), Fraction(-2), Fraction(1)]


def test_unknown_parity_is_rejected():
    for parity in ("oddd", 2, None, True, False):
        with pytest.raises(ValueError, match="parity must be"):
            lefschetz_matrix(1, parity)


def test_lefschetz_invertible():
    for n in (1, 2, 3):
        for parity in ("even", "odd"):
            m = lefschetz_matrix(n, parity)
            assert len(m.basis) == 1 << (2 * n - 1)
            assert m.char_poly().det != 0


def test_window_shift_invariance():
    # multiplication by h identifies window m with m+2 and commutes with
    # the normalized Lefschetz operator
    for n in (1, 2):
        om = SymplecticForm(2 * n)

        def op(form):
            return apply_Lh(form, om).h_shift(-1)

        for m in (0, 1):
            a = window_matrix(op, n, m, m)
            b = window_matrix(op, n, m + 2, m + 2)
            assert a == b
            assert [p for p, _ in graded_window_basis(n, m + 2)] == \
                [p + 1 for p, _ in graded_window_basis(n, m)]


def test_det_recursion_frozen():
    assert det_recursion_holds([[Fraction(2)]], 1)
    assert det_recursion_holds([[Fraction(0)]], 2)


def test_det_recursion_random():
    rng = Random(41)
    for _ in range(5):
        size = rng.randint(1, 3)
        m1 = [[Fraction(rng.randint(-3, 3)) for _ in range(size)]
              for _ in range(size)]
        depth = rng.randint(1, 3)
        if size * (1 << depth) > 64:
            continue
        assert det_recursion_holds(m1, depth)


def test_char_poly_linop_api():
    assert char_poly([[Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(2)]]).coeffs == \
        [Fraction(-1), Fraction(-2), Fraction(1)]


def test_form_is_built_once():
    rows = [[0, 2, 0, -1], [-2, 0, 3, 0], [0, -3, 0, 1], [1, 0, -1, 0]]
    for om in (OM2, OM4, OM6, SymplecticForm(4, rows)):
        form = om.form
        assert form is om.form
        assert form == QForm(om.dim, {
            (i, j): om.matrix[i - 1][j - 1]
            for i in range(1, om.dim + 1) for j in range(i + 1, om.dim + 1)
            if om.matrix[i - 1][j - 1]})
