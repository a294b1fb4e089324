"""Complex frame, bidegrees and the Hermitian pairing: frozen values
first, then the structural laws and the derived adjoint relation."""

from fractions import Fraction
from random import Random

import pytest

from qdr import bigraded
from qdr.bigraded import (
    Frame,
    _at_one,
    _pair_at_one,
    bidegree,
    conj,
    derive_adjoint_law,
    frame_blade_str,
    hermitian_gram,
    hermitian_pairing,
    hermitian_prefactor,
    i_pow,
    raw_pairing,
    standard_frame,
)
from qdr.blades import blade_degree
from qdr.cli import Options, check, main
from qdr.exterior import Bivector, QForm, quantum_wedge
from qdr.rand import random_qform
from qdr.scalars import GaussRat, HPoly, I
from qdr.symplectic import SymplecticForm, bivector_of


def mono(n: int, mask: int, h_exp: int = 0) -> QForm:
    """The frame blade mask of dimension 2n times h^h_exp."""
    return QForm(2 * n, {mask: HPoly({h_exp: 1})})


ONE1 = mono(1, 0)
F1 = mono(1, 0b01)
F1B = mono(1, 0b10)
TOP1 = mono(1, 0b11)
W2 = bivector_of(SymplecticForm(2))
W4 = bivector_of(SymplecticForm(4))


# -- test-local reference: the deformed product on the frame covectors ----

def pairing_cx(frame, w: Bivector) -> Bivector:
    """The bivector's components on the frame covectors."""
    return bigraded._upper_bivector(frame._cx_matrix(w))


def quantum_wedge_cx(a: QForm, b: QForm, w: Bivector,
                     frame: Frame = None) -> QForm:
    if a.dim != b.dim:
        raise ValueError("frame dimension mismatch")
    frame = standard_frame(a.dim // 2) if frame is None else frame
    # the frame's own bivector is J-invariant by construction
    if w.ordered_entries() == frame._wstd.ordered_entries():
        wcx = frame.wcx()
    else:
        frame.check_invariance(w)
        wcx = pairing_cx(frame, w)
    return quantum_wedge(a, b, wcx)


def test_standard_frame_builds():
    fr = standard_frame(1)
    assert fr.n == 1
    assert fr.wcx().upper_entries() == [(1, 2, I * 2)]
    fr2 = Frame(SymplecticForm(4))
    cx = [(i, j, str(c)) for i, j, c in fr2.wcx().upper_entries()]
    assert cx == [(1, 3, "2*i"), (2, 4, "2*i")]


def test_complexify_omega_is_pure_one_one():
    fr = standard_frame(1)
    om = QForm(2, {0b11: 1})
    cx = fr.complexify(om)
    assert bidegree(cx) == (1, 1)
    assert cx.terms[0b11].coeff(0) == I * Fraction(1, 2)
    # e1 splits evenly into the frame covector and its conjugate
    e1 = fr.complexify(QForm.one_form(2, 1))
    assert e1.terms[0b01].coeff(0) == GaussRat(Fraction(1, 2))
    assert e1.terms[0b10].coeff(0) == GaussRat(Fraction(1, 2))


def test_realify_roundtrip():
    rng = Random(71)
    for n in (1, 2):
        fr = standard_frame(n)
        for _ in range(12):
            form = random_qform(rng, 2 * n, nterms=3, max_h=1)
            assert fr.realify(fr.complexify(form)) == form


def test_realify_rejects_non_real():
    fr = standard_frame(1)
    with pytest.raises(ValueError):
        fr.realify(F1)


def test_bidegree_counts_h_as_one_one():
    assert bidegree(mono(1, 0b01, h_exp=1)) == (2, 1)
    assert bidegree(mono(2, 0b1001, h_exp=2)) == (3, 3)
    assert bidegree(F1) == (1, 0) and bidegree(F1B) == (0, 1)
    assert bidegree(F1 + F1B) is None
    assert bidegree(QForm.zero(2)) is None


def test_conjugation():
    assert conj(F1) == F1B
    assert conj(F1B) == F1
    # swapping both slots of the top blade reverses orientation
    assert conj(TOP1) == TOP1 * Fraction(-1)
    assert conj(F1 * I) == F1B * (-I)
    rng = Random(72)
    for n in (1, 2):
        for _ in range(10):
            form = random_qform(rng, 2 * n, nterms=3)
            assert conj(conj(form)) == form


def test_wedge_cx_frozen_values():
    assert quantum_wedge_cx(F1, F1, W2).is_zero()
    prod = quantum_wedge_cx(F1, F1B, W2)
    assert prod.terms[0b11].coeff(0) == GaussRat(1)
    assert prod.terms[0].coeff(1) == I * 2
    # reversed order flips the blade and the pairing term
    back = quantum_wedge_cx(F1B, F1, W2)
    assert back.terms[0b11].coeff(0) == GaussRat(-1)
    assert back.terms[0].coeff(1) == -I * 2


def test_wedge_cx_bidegree_additivity():
    # contraction trades one holomorphic and one antiholomorphic slot
    # for a power of h, so pure bidegrees add
    rng = Random(73)
    for _ in range(40):
        n = rng.choice((1, 2))
        w = W2 if n == 1 else W4
        ma = rng.randrange(1 << (2 * n))
        mb = rng.randrange(1 << (2 * n))
        a = mono(n, ma)
        b = mono(n, mb)
        prod = quantum_wedge_cx(a, b, w)
        if prod.is_zero():
            continue
        pa, qa = bidegree(a)
        pb, qb = bidegree(b)
        assert bidegree(prod) == (pa + pb, qa + qb)


def test_wedge_cx_matches_real_product():
    rng = Random(74)
    for n in (1, 2):
        fr = standard_frame(n)
        w = W2 if n == 1 else W4
        for _ in range(10):
            a = random_qform(rng, 2 * n, nterms=2, max_h=1)
            b = random_qform(rng, 2 * n, nterms=2, max_h=1)
            direct = fr.complexify(quantum_wedge(a, b, w))
            framed = quantum_wedge_cx(fr.complexify(a), fr.complexify(b), w,
                                      fr)
            assert direct == framed


def test_wedge_cx_rejects_non_invariant_pairing():
    with pytest.raises(ValueError):
        quantum_wedge_cx(mono(2, 0b0001), mono(2, 0b0010),
                         Bivector(4, {(1, 3): 1}))


def test_pairing_frozen_values():
    assert hermitian_pairing(ONE1, ONE1) == GaussRat(1)
    assert hermitian_pairing(F1, F1) == GaussRat(2)
    assert hermitian_pairing(F1, F1B) == GaussRat()
    assert hermitian_pairing(F1B, F1B) == GaussRat(2)
    assert hermitian_prefactor(0, 1, "printed") * raw_pairing(F1B, F1B) == \
        GaussRat(-2)
    assert hermitian_pairing(TOP1, TOP1) == GaussRat(4)


def test_pairing_requires_pure_first_argument():
    with pytest.raises(ValueError):
        hermitian_pairing(F1 + F1B, F1)
    # mixed second argument is fine: the pairing is additive there
    assert hermitian_pairing(F1, F1 + F1B) == GaussRat(2)


def test_pairing_sesquilinear():
    rng = Random(75)
    for _ in range(20):
        n = rng.choice((1, 2))
        deg = rng.randrange(2 * n + 1)
        masks = [m for m in range(1 << (2 * n)) if blade_degree(m) == deg]
        a = random_qform(rng, 2 * n, nterms=2, max_h=0, degree=deg)
        b = random_qform(rng, 2 * n, nterms=2, max_h=0, degree=deg)
        if a.is_zero() or bidegree(a) is None:
            continue
        h_ab = hermitian_pairing(a, b)
        assert hermitian_pairing(a * I, b) == I * h_ab
        assert hermitian_pairing(a, b * I) == -I * h_ab
        if bidegree(b) is not None:
            assert hermitian_pairing(b, a) == h_ab.conj()


def test_gram_diagonal_powers_of_two():
    for n in (1, 2):
        gram = hermitian_gram(n)
        for (ma, mb), val in gram.items():
            assert ma == mb
            p, q = bidegree(mono(n, ma))
            assert val == GaussRat(2 ** (p + q))
        # every monomial shows up on the diagonal
        assert len(gram) == 1 << (2 * n)


def test_printed_prefactor_indefinite():
    # the printed prefactor on the raw n = 1 table: fb1 gets negative norm
    raw = bigraded._raw_gram(1)
    assert hermitian_prefactor(0, 1, "printed") * raw[(0b10, 0b10)] == \
        GaussRat(-2)
    assert hermitian_prefactor(1, 0, "printed") * raw[(0b01, 0b01)] == \
        GaussRat(2)


def test_prefactor_relation():
    # the positive variant differs from the printed one by (-1)^q, and
    # the two printed index expressions agree on equal bidegrees, which
    # is the only place classical forms pair nonzero
    for p in range(4):
        for q in range(4):
            printed = hermitian_prefactor(p, q, "printed")
            derived = hermitian_prefactor(p, q, "derived")
            assert derived == printed * ((-1) ** q)
    with pytest.raises(ValueError):
        hermitian_prefactor(1, 1, "other")


def test_classical_pairs_share_bidegree():
    # nonzero pairing of h-free monomials forces equal bidegrees, so
    # the two sign expressions written for the pairing coincide there
    for n in (1, 2):
        for ma in range(1 << (2 * n)):
            a = mono(n, ma)
            for mb in range(1 << (2 * n)):
                b = mono(n, mb)
                if raw_pairing(a, b):
                    assert bidegree(a) == bidegree(b)


def direct_raw_pairing(a: QForm, b: QForm) -> GaussRat:
    """The reference raw pairing: the scalar part at h = 1 of the full
    product with the conjugate."""
    prod = quantum_wedge(a, conj(b), standard_frame(a.dim // 2).wcx())
    return sum((GaussRat.coerce(v) for v in prod.coeff(0).terms.values()),
               GaussRat())


def random_gaussian_form(rng: Random, n: int) -> QForm:
    """Up to four blades, each with one or two h powers from -1 to 2 and
    Gaussian rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randrange(1 << (2 * n))] = HPoly(
            {rng.randint(-1, 2): GaussRat(Fraction(rng.randint(-5, 5),
                                                   rng.randint(1, 4)),
                                          rng.randint(-3, 3))
             for _ in range(rng.randint(1, 2))})
    return QForm(2 * n, terms)


def test_raw_pairing_matches_direct_product():
    rng = Random(76)
    mixed = nonzero = 0
    for _ in range(150):
        n = rng.choice((1, 2))
        a = random_gaussian_form(rng, n)
        b = random_gaussian_form(rng, n)
        want = direct_raw_pairing(a, b)
        assert raw_pairing(a, b) == want
        mixed += bidegree(a) is None
        nonzero += bool(want)
    assert mixed > 30 and nonzero > 30


def test_raw_pairing_reads_the_table(monkeypatch):
    raw_pairing(F1, F1)           # the n = 1 table exists from here on
    calls = []
    real = bigraded.quantum_wedge

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(bigraded, "quantum_wedge", counting)
    assert raw_pairing(F1 + TOP1 * I, F1 * 3) == I * 6
    assert hermitian_gram(1)[(0b11, 0b11)] == GaussRat(4)
    assert not calls


def test_raw_pairing_rejects_mixed_frames():
    with pytest.raises(ValueError):
        raw_pairing(F1, mono(2, 0b0001))
    # a frame has even dimension
    odd = QForm(3, {0b100: 1})
    for pair in (raw_pairing, hermitian_pairing):
        with pytest.raises(ValueError):
            pair(odd, odd)


def test_h_laden_pairs_break_bidegree_sharing():
    # with h in play the pairing connects different bidegrees: the
    # agreement of the two sign expressions is a classical statement
    a = F1
    b = mono(1, 0b01, h_exp=1)
    assert bidegree(a) != bidegree(b)
    assert raw_pairing(a, b) == I * 2


def test_adjoint_single_triples():
    # a = 1, b = g = f1: the raw law moves b across as its conjugate,
    # the printed statement (b unconjugated) fails, and the prefactored
    # sides differ by the ratio pref(1, 0) / pref(0, 0) = -i
    ab = quantum_wedge_cx(ONE1, F1, W2)
    bbar_g = quantum_wedge_cx(conj(F1), F1, W2)
    lhs = hermitian_pairing(ab, F1)
    conjugated = hermitian_pairing(ONE1, bbar_g)
    assert lhs == GaussRat(2)
    assert hermitian_pairing(ONE1, quantum_wedge_cx(F1, F1, W2)) == GaussRat()
    assert conjugated == I * 2
    assert raw_pairing(ab, F1) == raw_pairing(ONE1, bbar_g) == I * 2
    factor = hermitian_prefactor(1, 0) / hermitian_prefactor(0, 0)
    assert factor == -I and lhs == factor * conjugated
    # b = g = f1^fb1 of balanced bidegree (1, 1): the ratio is -1
    ab = quantum_wedge_cx(ONE1, TOP1, W2)
    bbar_g = quantum_wedge_cx(conj(TOP1), TOP1, W2)
    assert raw_pairing(ab, TOP1) == raw_pairing(ONE1, bbar_g) == \
        GaussRat(-4)
    factor = hermitian_prefactor(1, 1) / hermitian_prefactor(0, 0)
    assert factor == GaussRat(-1)
    assert hermitian_pairing(ab, TOP1) == \
        factor * hermitian_pairing(ONE1, bbar_g) == GaussRat(4)


def reference_adjoint_law(n: int, variant: str):
    """The per-triple prefactored scan: both sides of each reading are
    multiplied by their prefactors on every triple.  Returns printed_all,
    conjugated_all and {s: set of diagonal-sector ratios}."""
    gram = bigraded._raw_gram(n)
    w = bivector_of(SymplecticForm(2 * n))
    printed_all = conjugated_all = True
    diagonal = {}
    forms = [mono(n, m) for m in range(1 << (2 * n))]
    ones = [_at_one(f) for f in forms]
    for b in forms:
        s, t = bidegree(b)
        middles = [(g1, _at_one(quantum_wedge_cx(b, g, w)),
                    _at_one(quantum_wedge_cx(conj(b), g, w)))
                   for g, g1 in zip(forms, ones)]
        for a, a1 in zip(forms, ones):
            ab = _at_one(quantum_wedge_cx(a, b, w))
            p, q = bidegree(a)
            pref_ab = hermitian_prefactor(p + s, q + t, variant)
            pref_a = hermitian_prefactor(p, q, variant)
            for g1, bg, bbar_g in middles:
                lhs = pref_ab * _pair_at_one(ab, g1, gram)
                rhs_c = pref_a * _pair_at_one(a1, bbar_g, gram)
                printed_all = printed_all and \
                    lhs == pref_a * _pair_at_one(a1, bg, gram)
                conjugated_all = conjugated_all and lhs == rhs_c
                if s == t and rhs_c:
                    diagonal.setdefault(s, set()).add(lhs / rhs_c)
    return printed_all, conjugated_all, diagonal


@pytest.mark.parametrize("n", [1, 2])
def test_sector_readings_match_the_per_triple_scan(n):
    law = derive_adjoint_law(n)
    for convention in ("derived", "printed"):
        printed_all, conjugated_all, diagonal = \
            reference_adjoint_law(n, convention)
        if convention == "derived":
            assert law["printed_all"] == printed_all
        assert law[convention]["conjugated_all"] == conjugated_all
        assert {s: {v} for s, v in
                law[convention]["diagonal_factors"].items()} == diagonal


def three_product_adjoint_law(n: int) -> dict:
    """derive_adjoint_law with its three products taken where the scan
    reads them: a wedge b per (a, b), and b wedge g and conj(b) wedge g
    per (b, g), each through bigraded.quantum_wedge."""
    gram = bigraded._raw_gram(n)
    wcx = standard_frame(n).wcx()
    forms = [mono(n, m) for m in range(1 << (2 * n))]
    ones = [_at_one(f) for f in forms]
    degs = [bigraded.blade_bidegree(m, n) for m in range(len(forms))]
    live = set()
    printed_all = True
    for mb, b in enumerate(forms):
        s, t = degs[mb]
        bbar = conj(b)
        middles = [(mg, ones[mg], _at_one(bigraded.quantum_wedge(b, g, wcx)),
                    _at_one(bigraded.quantum_wedge(bbar, g, wcx)))
                   for mg, g in enumerate(forms)]
        for ma, a in enumerate(forms):
            p, q = degs[ma]
            a1 = ones[ma]
            ab = _at_one(bigraded.quantum_wedge(a, b, wcx))
            ratio = hermitian_prefactor(p + s, q + t) / \
                hermitian_prefactor(p, q)
            for mg, g1, bg, bbar_g in middles:
                raw = _pair_at_one(ab, g1, gram)
                raw_rhs = _pair_at_one(a1, bbar_g, gram)
                if raw != raw_rhs:
                    raise AssertionError(
                        f"raw adjoint law fails at n = {n}, a = "
                        f"{frame_blade_str(ma, n)}, b = "
                        f"{frame_blade_str(mb, n)}, g = "
                        f"{frame_blade_str(mg, n)}: "
                        f"{raw} vs {raw_rhs}")
                if raw:
                    live.add((p, q, s, t))
                if printed_all:
                    printed_all = _pair_at_one(a1, bg, gram) == ratio * raw
    law = {"printed_all": printed_all}
    for convention in ("derived", "printed"):
        conjugated_all = True
        diagonal = {}
        for p, q, s, t in sorted(live):
            ratio = hermitian_prefactor(p + s, q + t, convention) / \
                hermitian_prefactor(p, q, convention)
            conjugated_all = conjugated_all and ratio == 1
            if s == t:
                diagonal.setdefault(s, ratio)
        law[convention] = {"conjugated_all": conjugated_all,
                           "diagonal_factors": diagonal}
    return law


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_table_scan_matches_the_three_product_scan(n):
    assert derive_adjoint_law(n) == three_product_adjoint_law(n)


def _failure(scan, n):
    with pytest.raises(AssertionError) as raised:
        scan(n)
    return str(raised.value)


@pytest.mark.parametrize("n, x, y", [(1, 0b01, 0b10), (2, 0b0110, 0b0001)])
def test_perturbed_tables_fail_at_the_same_triple(monkeypatch, n, x, y):
    # tripling one monomial product, whatever the sign of its first
    # factor, or one entry of the pairing table makes both scans name
    # the same first triple with the same values
    gram = bigraded._raw_gram(n)
    real = bigraded.quantum_wedge

    def perturbed(a, b, w):
        out = real(a, b, w)
        if list(a.terms) == [x] and list(b.terms) == [y]:
            return out * 3
        return out
    with monkeypatch.context() as patch:
        patch.setattr(bigraded, "quantum_wedge", perturbed)
        message = _failure(derive_adjoint_law, n)
        assert message == _failure(three_product_adjoint_law, n)
        assert message.startswith(f"raw adjoint law fails at n = {n}, ")
    # the raw pairing table is diagonal
    monkeypatch.setitem(bigraded._RAW_GRAMS, n,
                        {**gram, (x, x): gram[(x, x)] * 3})
    message = _failure(derive_adjoint_law, n)
    assert message == _failure(three_product_adjoint_law, n)
    assert message.startswith(f"raw adjoint law fails at n = {n}, ")


def test_adjoint_law_exhaustive():
    law1 = derive_adjoint_law(1)
    assert not law1["printed_all"]
    assert not law1["derived"]["conjugated_all"]
    assert law1["derived"]["diagonal_factors"] == \
        {0: GaussRat(1), 1: GaussRat(-1)}
    law2 = derive_adjoint_law(2)
    assert law2["derived"]["diagonal_factors"] == \
        {0: GaussRat(1), 1: GaussRat(-1), 2: GaussRat(1)}


def test_adjoint_law_printed_prefactor_is_unital_on_diagonal():
    for n in (1, 2):
        printed = derive_adjoint_law(n)["printed"]
        assert not printed["conjugated_all"]
        assert printed["diagonal_factors"] == \
            {s: GaussRat(1) for s in range(n + 1)}


def test_raw_law_failure_names_the_triple(monkeypatch, capsys):
    # triple one entry of the n = 1 table: the scan names n, the three
    # frame blades and both raw values, and the suite reports FAIL
    gram = bigraded._raw_gram(1)
    monkeypatch.setitem(bigraded._RAW_GRAMS, 1,
                        {**gram, (0b01, 0b01): gram[(0b01, 0b01)] * 3})
    message = "raw adjoint law fails at n = 1, a = 1, b = f1, g = f1: " \
        "6*i vs 2*i"
    with pytest.raises(AssertionError) as raised:
        derive_adjoint_law(1)
    assert str(raised.value) == message
    assert main(["--check", "hermitian", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == \
        "FAIL  1 checks, 1 failed, 1 tasks"
    assert check("hermitian", Options(n=1))["tasks"][0]["error"] == message


def test_i_pow_cycle():
    assert [str(i_pow(k)) for k in range(-2, 3)] == \
        ["-1", "-i", "1", "i", "-1"]
