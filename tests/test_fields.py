"""Field calculus: d, delta, d_h, Dolbeault split. Frozen low-dimensional
values first, then the structural identities on random forms."""

from fractions import Fraction
from random import Random

import pytest

from dolbeault_reference import (ref_bidegree_split, ref_partial_d,
                                 ref_partial_dbar)
from qdr.bigraded import Frame
from qdr.blades import wedge_masks
from qdr.exterior import quantum_wedge
from qdr.fields import (
    FieldForm,
    PoissonField,
    contract_field,
    d_and_delta,
    delta_component_check,
    dolbeault_deltas,
    exterior_d,
    field_bracket,
    insert_coord,
    insert_vector_field,
    jacobi_check,
    koszul_delta,
    lie_derivative,
    lift,
    partial_d,
    partial_dbar,
    quantum_d,
    quantum_d_mirror,
    quantum_dolbeault_split,
    quantum_wedge_field,
    wedge_field,
)
from qdr.fixtures import (
    heisenberg,
    lie_poisson_so3,
    non_poisson_example,
    standard_symplectic,
    torus,
)
from qdr.functions import FourierFn, PolyFn, moyal_product
from qdr.rand import random_fieldform, random_polyfn, random_qform
from qdr.scalars import GaussRat, HPoly, I, TauNumber, add_term

FLAT1 = standard_symplectic(1)
FLAT2 = standard_symplectic(2)
SO3 = lie_poisson_so3()
HEIS = heisenberg()


def x(dim, j):
    return PolyFn.coord(dim, j)


def test_polyfn_basics():
    f = x(2, 1) * x(2, 1) * x(2, 2) - 3
    assert str(f) == "x1^2*x2 + (-3)"
    assert f.partial(1) == 2 * x(2, 1) * x(2, 2)
    assert f.partial(2) == x(2, 1) * x(2, 1)
    assert (f - f).is_zero()
    g = PolyFn.constant(2, GaussRat(0, 1))
    assert (g * g) == -1


def test_fourierfn_basics():
    m = FourierFn.mode(2, (2, 0))
    dm = m.partial(1)
    assert dm == FourierFn.mode(2, (2, 0), TauNumber.tau(1, GaussRat(0, 2)))
    assert m.partial(2).is_zero()
    prod = m * FourierFn.mode(2, (-1, 1))
    assert prod == FourierFn.mode(2, (1, 1))
    assert str(FourierFn.mode(2, (1, -2))) == "mode(1,-2)"


def test_moyal_frozen():
    w = FLAT1.poisson
    star = moyal_product(x(2, 1), x(2, 2), w)
    xx = x(2, 1) * x(2, 2)
    assert star == xx + PolyFn.constant(2, HPoly({1: -1}))
    rev = moyal_product(x(2, 2), x(2, 1), w)
    assert star - rev == PolyFn.constant(2, HPoly({1: -2}))
    one = PolyFn.constant(2, 1)
    v = x(2, 1) * x(2, 1) + 2 * x(2, 2)
    assert moyal_product(one, v, w) == v
    assert moyal_product(v, one, w) == v


def test_moyal_associative_random():
    rng = Random(11)
    for _ in range(25):
        dim = rng.choice([2, 3, 4])
        w = PoissonField(dim, {(i, j): Fraction(rng.randint(-2, 2))
                               for i in range(1, dim + 1)
                               for j in range(i + 1, dim + 1)})
        u = random_polyfn(rng, dim, max_deg=3, nterms=2)
        v = random_polyfn(rng, dim, max_deg=3, nterms=2)
        p = random_polyfn(rng, dim, max_deg=2, nterms=2)
        left = moyal_product(moyal_product(u, v, w), p, w)
        right = moyal_product(u, moyal_product(v, p, w), w)
        assert left == right


def _reference_moyal(u, v, w):
    """The Moyal loop that takes every partial along the pairing's
    entries and drops the zero ones."""
    entries = w.ordered_entries()
    out = PolyFn.zero(u.dim)
    pairs = [(u, v, Fraction(1))]
    n = 0
    factinv = Fraction(1)
    while pairs:
        level = PolyFn.zero(u.dim)
        for a, b, c in pairs:
            level = level + (a * b) * c
        out = out + level * HPoly({n: factinv})
        nxt = []
        for a, b, c in pairs:
            for i, j, wij in entries:
                da, db = a.partial(i), b.partial(j)
                if da and db:
                    nxt.append((da, db, c * wij))
        pairs = nxt
        n += 1
        factinv = factinv / n
    return out


def test_moyal_takes_only_nonzero_partials(monkeypatch):
    # the same product, terms in the same order, as the loop that drops
    # zero partials; inputs free of some coordinates, Gaussian leaves and
    # HPoly-valued Moyal products among them
    rng = Random(97)
    cases = []
    for k in range(12):
        dim = 2 + k % 3
        w = PoissonField(dim, {(i, j): Fraction(rng.randint(-2, 2), 3)
                               for i in range(1, dim + 1)
                               for j in range(i + 1, dim + 1)})
        u = random_polyfn(rng, dim, max_deg=3, nterms=2, complex_ok=k % 2)
        v = random_polyfn(rng, dim, max_deg=3, nterms=2) + x(dim, 1)
        cases += [(u, v, w), (x(dim, 2) * x(dim, 2), v, w),
                  (_reference_moyal(u, v, w), u, w)]
    taken = []

    def counting(fn, j, real=PolyFn.partial):
        # fn stays alive in taken, so no id is reused within a product
        taken.append((id(fn), j, fn, real(fn, j)))
        return taken[-1][-1]
    for u, v, w in cases:
        want = _reference_moyal(u, v, w)
        monkeypatch.setattr(PolyFn, "partial", counting)
        start = len(taken)
        got = moyal_product(u, v, w)
        monkeypatch.undo()
        assert list(got.terms.items()) == list(want.terms.items())
        # no function is differentiated along one coordinate twice
        keys = [(key, j) for key, j, _, _ in taken[start:]]
        assert len(set(keys)) == len(keys)
    assert taken and all(d for *_, d in taken)


def test_dolbeault_halves_take_only_nonzero_partials(monkeypatch):
    # del from the coordinates each coefficient holds: the reference
    # split's value, and every partial it takes is nonzero
    rng = Random(98)
    forms = [a for model in (FLAT1, FLAT2, torus(1, 1), torus(2, 1))
             for a in _partial_forms(rng, model, model.fnring is PolyFn)]
    want = [(ref_partial_d(a), ref_partial_dbar(a)) for a in forms]
    taken = []
    for ring in (PolyFn, FourierFn):
        def counting(fn, j, real=ring.partial):
            taken.append(real(fn, j))
            return taken[-1]
        monkeypatch.setattr(ring, "partial", counting)
    for a, (d10, d01) in zip(forms, want):
        assert partial_d(a) == d10 and partial_dbar(a) == d01
    assert taken and all(taken)


def test_lift_and_field_wedges_match_constant_layer():
    rng = Random(23)
    for _ in range(15):
        dim = rng.choice([2, 4])
        model = standard_symplectic(dim // 2)
        a = random_qform(rng, dim, nterms=2, max_h=1)
        b = random_qform(rng, dim, nterms=2, max_h=1)
        qw = quantum_wedge(a, b, model.poisson)
        fw = quantum_wedge_field(lift(a, PolyFn), lift(b, PolyFn),
                                 model.poisson)
        assert fw == lift(qw, PolyFn)


def test_exterior_d_frozen():
    f = FieldForm.from_fn(x(2, 1), mask=2)  # x1 dx2
    assert exterior_d(f) == FieldForm(2, PolyFn, {(0, 3): 1})
    assert str(exterior_d(f)) == "dx1^dx2"
    const = FLAT1.lift(random_qform(Random(1), 2, nterms=2))
    assert exterior_d(const).is_zero()
    m = FieldForm.from_fn(FourierFn.mode(2, (1, 2)))
    dm = exterior_d(m)
    assert dm == FieldForm(2, FourierFn, {
        (0, 1): FourierFn.mode(2, (1, 2), TauNumber.tau(1, I)),
        (0, 2): FourierFn.mode(2, (1, 2), TauNumber.tau(1, GaussRat(0, 2)))})


def _reference_exterior_d(form):
    """d as a sum over every free coordinate j of s * fn.partial(j), with
    the sign s and the blade from wedge_masks(e^j, blade)."""
    t = {}
    for (h, mask), fn in form.terms.items():
        for j in range(1, form.dim + 1):
            s, m = wedge_masks(1 << (j - 1), mask)
            if not s:
                continue
            add_term(t, (h, m), s * fn.partial(j))
    return form._like(t)


def _partial_forms(rng, model, complex_ok=False):
    """Random forms over the model's ring with negative h exponents and
    coefficients free of some coordinates: a constant, one coordinate's
    function, and a random function."""
    dim = model.dim
    if model.fnring is FourierFn:
        x1_only = FourierFn.mode(dim, (1,) + (0,) * (dim - 1))
    else:
        x1_only = x(dim, 1)
    for _ in range(8):
        a = random_fieldform(rng, model, nterms=4, max_h=2,
                             complex_ok=complex_ok).h_shift(-1)
        yield a + FieldForm(dim, model.fnring, {
            (-2, rng.randrange(1 << dim)): 3,
            (rng.randint(-2, 1), rng.randrange(1 << dim)): x1_only * 2})


def test_exterior_d_matches_the_wedge_masks_formula(monkeypatch):
    # the same terms in the same insertion order, over rational and
    # Gaussian polynomial coefficients and over Fourier modes; and
    # exterior_d takes no partial that is zero
    rng = Random(83)
    taken = []
    for ring in (PolyFn, FourierFn):
        def counting(fn, j, real=ring.partial):
            taken.append(real(fn, j))
            return taken[-1]
        monkeypatch.setattr(ring, "partial", counting)
    for model, complex_ok in ((FLAT2, False), (FLAT2, True), (SO3, True),
                              (torus(1, 2), False), (torus(2, 1), False)):
        for a in _partial_forms(rng, model, complex_ok):
            assert any(h < 0 for h, _ in a.terms), a
            want = _reference_exterior_d(a)
            taken.clear()
            got = exterior_d(a)
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(taken)
            assert len(taken) == sum((fn.variables() & ~mask).bit_count()
                                     for (_, mask), fn in a.terms.items())


def test_variables_mask_marks_the_nonzero_partials():
    # exterior_d differentiates only the coordinates in the mask, so a
    # coordinate outside it must have a zero partial, and one inside a
    # nonzero one; a Moyal product has HPoly-valued coefficients
    rng = Random(89)
    fns = [PolyFn.zero(3), PolyFn.constant(2, 5), x(3, 2) * x(3, 2),
           moyal_product(x(2, 1), x(2, 1) + x(2, 2), FLAT1.poisson),
           FourierFn.mode(3, (0, -2, 1))]
    for model in (FLAT2, SO3, torus(2, 1)):
        for a in _partial_forms(rng, model, model.fnring is PolyFn):
            fns.extend(a.terms.values())
    for fn in fns:
        assert fn.variables() == sum(1 << (j - 1)
                                     for j in range(1, fn.dim + 1)
                                     if fn.partial(j))
    assert [fn.variables() for fn in fns[:5]] == [0, 0, 0b10, 0b11, 0b110]


def test_contract_field_frozen():
    om = FieldForm(2, PolyFn, {(0, 3): 1})
    assert contract_field(FLAT1.poisson, om) == \
        FieldForm(2, PolyFn, {(0, 0): -1})
    so3om = FieldForm(3, PolyFn, {(0, 3): 1})  # dx1^dx2
    assert contract_field(SO3.poisson, so3om) == \
        FieldForm.from_fn(x(3, 3))
    one_form = FieldForm(3, PolyFn, {(0, 1): x(3, 2)})
    assert contract_field(SO3.poisson, one_form).is_zero()


def test_koszul_frozen_flat():
    a = FieldForm.from_fn(x(2, 1), mask=2)  # x1 dx2
    assert koszul_delta(a, FLAT1.poisson) == FieldForm(2, PolyFn, {(0, 0): -1})
    dh = quantum_d(a, FLAT1.poisson)
    assert dh == FieldForm(2, PolyFn, {(0, 3): 1, (1, 0): 1})
    assert str(dh) == "dx1^dx2 + h"
    top = FieldForm.from_fn(x(2, 1), mask=3)  # x1 dx1^dx2
    assert koszul_delta(top, FLAT1.poisson) == FieldForm(2, PolyFn, {(0, 1): 1})
    assert quantum_d(top, FLAT1.poisson) == \
        FieldForm(2, PolyFn, {(1, 1): -1})
    omega = FLAT1.omega_form()
    assert quantum_d(omega, FLAT1.poisson).is_zero()


def test_koszul_frozen_so3():
    a = FieldForm(3, PolyFn, {(0, 3): 1})  # dx1^dx2
    assert koszul_delta(a, SO3.poisson) == FieldForm(3, PolyFn, {(0, 4): -1})


MODELS = (FLAT1, FLAT2, standard_symplectic(3), torus(1, 1), torus(2, 1),
          SO3, HEIS)


def test_d_squared_and_poisson_identities():
    rng = Random(37)
    for model in MODELS:
        for _ in range(12):
            a = random_fieldform(rng, model, nterms=2, max_h=1)
            assert exterior_d(exterior_d(a)).is_zero()
            w = model.poisson
            assert jacobi_check(w)[0]
            d = exterior_d(a)
            dl = koszul_delta(a, w)
            assert koszul_delta(koszul_delta(a, w), w).is_zero()
            assert (koszul_delta(d, w) + exterior_d(dl)).is_zero()
            assert quantum_d(quantum_d(a, w), w).is_zero()


def _reference_delta(a, w):
    """iota_w d - d iota_w with its own exterior derivative of a."""
    return contract_field(w, exterior_d(a)) - exterior_d(contract_field(w, a))


def test_shared_d_matches_the_three_derivative_compositions():
    # the old operators: quantum_d and its mirror took d of the form
    # once for themselves and once more inside koszul_delta
    rng = Random(41)
    for model in (FLAT1, torus(1, 1), torus(2, 1), SO3, HEIS):
        w = model.poisson
        live = 0
        for _ in range(10):
            a = random_fieldform(rng, model, nterms=3, max_h=1)
            delta = _reference_delta(a, w)
            live += not delta.is_zero()
            assert d_and_delta(a, w) == (exterior_d(a), delta)
            assert koszul_delta(a, w) == delta
            assert quantum_d(a, w) == exterior_d(a) - delta.h_shift(1)
            assert quantum_d_mirror(a, w) == \
                exterior_d(a) + delta.h_shift(1)
        assert live >= 5, model


def test_jacobi_witness():
    ok, witness = jacobi_check(non_poisson_example().poisson)
    assert not ok
    triple, value = witness
    assert triple == (1, 2, 3)
    assert value == PolyFn.constant(3, 1)
    assert jacobi_check(SO3.poisson) == (True, None)
    assert jacobi_check(HEIS.poisson) == (True, None)
    assert jacobi_check(FLAT2.poisson) == (True, None)


def test_d_h_squared_fails_off_jacobi():
    w = non_poisson_example().poisson
    bad = None
    rng = Random(5)
    model = non_poisson_example()
    for _ in range(20):
        a = random_fieldform(rng, model, nterms=2, max_h=0)
        if not quantum_d(quantum_d(a, w), w).is_zero():
            bad = a
            break
    assert bad is not None


def test_quantum_leibniz_mirror_pairing():
    # The derivation law ties the sign of the delta correction to the
    # orientation of the product's contraction: d + h*delta is a graded
    # derivation of the product at +h, so d - h*delta is one at -h.
    rng = Random(61)
    for model in (FLAT1, FLAT2, SO3, HEIS):
        w = model.poisson
        for _ in range(15):
            deg = rng.randint(0, min(model.dim, 2))
            a = random_fieldform(rng, model, nterms=2, max_h=1, degree=deg)
            b = random_fieldform(rng, model, nterms=2, max_h=1)
            lhs = quantum_d_mirror(quantum_wedge_field(a, b, w), w)
            rhs = quantum_wedge_field(quantum_d_mirror(a, w), b, w) + \
                quantum_wedge_field(a, quantum_d_mirror(b, w), w) * \
                Fraction((-1) ** deg)
            assert lhs == rhs


def test_quantum_leibniz_same_sign_defect():
    # Frozen witness that the same-sign pairing is not a derivation:
    # f = x2^2, b = dx1 on flat R^2 (w12 = -1) leaves an exact cross term
    #   d_h(f b) - [d_h f ^h b + f ^h d_h b] = -2h w^{ij} (d_i f)(e_j . b)
    # which evaluates to -4 x2 h here.
    x2 = PolyFn.coord(2, 2)
    f = FieldForm.from_fn(x2 * x2)
    b = FieldForm.from_fn(PolyFn.constant(2, 1), 0b1)
    w = FLAT1.poisson
    prod = quantum_wedge_field(f, b, w)
    lhs = quantum_d(prod, w)
    rhs = quantum_wedge_field(quantum_d(f, w), b, w) + \
        quantum_wedge_field(f, quantum_d(b, w), w)
    assert lhs - rhs == FieldForm.from_fn(x2 * Fraction(-4), 0, 1)
    # the mirror operator repairs exactly this witness
    assert quantum_d_mirror(prod, w) == \
        quantum_wedge_field(quantum_d_mirror(f, w), b, w) + \
        quantum_wedge_field(f, quantum_d_mirror(b, w), w)


def test_contraction_leibniz_graded():
    # iota_w(a^b) = (iota_w a)^b + (-1)^{|a|+1} w^{ij}(e_i . a)^(e_j . b)
    #             + a^(iota_w b), with the full signed sum over (i, j)
    rng = Random(71)
    for model in (FLAT1, FLAT2, SO3):
        w = model.poisson
        for _ in range(12):
            deg = rng.randint(0, min(model.dim, 3))
            a = random_fieldform(rng, model, nterms=2, max_h=0, degree=deg)
            b = random_fieldform(rng, model, nterms=2, max_h=0)
            mid = model.zero_form()
            for i, j, c in w.ordered_entries():
                mid = mid + wedge_field(insert_coord(i, a),
                                        insert_coord(j, b)) * c
            lhs = contract_field(w, wedge_field(a, b))
            rhs = wedge_field(contract_field(w, a), b) + \
                wedge_field(a, contract_field(w, b)) + \
                mid * Fraction((-1) ** (deg + 1))
            assert lhs == rhs


def test_lie_derivative_identity():
    rng = Random(83)
    dim = 3
    for _ in range(12):
        X = {j: random_polyfn(rng, dim, max_deg=2, nterms=1)
             for j in range(1, dim + 1)}
        Y = {j: random_polyfn(rng, dim, max_deg=2, nterms=1)
             for j in range(1, dim + 1)}
        a = random_fieldform(rng, SO3, nterms=2, max_h=0)
        lhs = lie_derivative(X, insert_vector_field(Y, a))
        rhs = insert_vector_field(Y, lie_derivative(X, a)) + \
            insert_vector_field(field_bracket(X, Y, dim, PolyFn), a)
        assert lhs == rhs


def test_delta_component_constant():
    rng = Random(97)
    cs = set()
    for model in (FLAT1, FLAT2):
        for _ in range(20):
            a = random_fieldform(rng, model, nterms=2, max_h=1)
            rep = delta_component_check(a, model.poisson)
            if rep["matched_terms"]:
                cs.add(rep["c"])
    assert cs == {Fraction(1)}


def test_delta_component_rejects_function_bivector():
    a = FieldForm(3, PolyFn, {(0, 3): 1})
    with pytest.raises(ValueError):
        delta_component_check(a, SO3.poisson)


def test_bidegree_split_frozen():
    e1 = FieldForm(2, PolyFn, {(0, 1): 1})
    comps = ref_bidegree_split(e1)
    half = GaussRat(Fraction(1, 2))
    ihalf = GaussRat(0, Fraction(1, 2))
    assert set(comps) == {(1, 0), (0, 1)}
    assert comps[(1, 0)] == FieldForm(2, PolyFn, {(0, 1): half, (0, 2): ihalf})
    assert comps[(0, 1)] == FieldForm(2, PolyFn,
                                      {(0, 1): half, (0, 2): -ihalf})
    om = FLAT1.omega_form()
    assert ref_bidegree_split(om) == {(1, 1): om}


def test_bidegree_split_resolves_identity():
    rng = Random(101)
    for model in (FLAT1, FLAT2):
        for _ in range(10):
            a = random_fieldform(rng, model, nterms=3, max_h=1,
                                 complex_ok=True)
            total = model.zero_form()
            for comp in ref_bidegree_split(a).values():
                total = total + comp
            assert total == a


def test_dolbeault_frozen():
    f = FieldForm.from_fn(x(2, 1))
    half = GaussRat(Fraction(1, 2))
    ihalf = GaussRat(0, Fraction(1, 2))
    assert partial_d(f) == FieldForm(2, PolyFn, {(0, 1): half, (0, 2): ihalf})
    assert partial_dbar(f) == FieldForm(2, PolyFn,
                                        {(0, 1): half, (0, 2): -ihalf})
    z = FieldForm.from_fn(x(2, 1) + PolyFn.constant(2, GaussRat(0, 1))
                          * x(2, 2))
    assert partial_dbar(z).is_zero()
    assert partial_d(z) == exterior_d(z)
    d10, d01 = dolbeault_deltas(f, FLAT1.poisson)
    assert d10.is_zero() and d01.is_zero()


def test_dolbeault_sum_and_eq11():
    rng = Random(103)
    for model in (FLAT1, FLAT2):
        w = model.poisson
        for _ in range(10):
            a = random_fieldform(rng, model, nterms=2, max_h=1,
                                 complex_ok=True)
            assert partial_d(a) + partial_dbar(a) == exterior_d(a)
            d10, d01 = dolbeault_deltas(a, w)
            assert d10 + d01 == koszul_delta(a, w)
            dh, dbh = quantum_dolbeault_split(a, w)
            assert dh + dbh == quantum_d(a, w)
            assert (quantum_dolbeault_split(dh, w)[0]).is_zero()
            assert (quantum_dolbeault_split(dbh, w)[1]).is_zero()
            cross = quantum_dolbeault_split(dbh, w)[0] + \
                quantum_dolbeault_split(dh, w)[1]
            assert cross.is_zero()


def test_dolbeault_bidegree_targets():
    # pure (1,1) input: the deltas land in (1,0) and (0,1)
    a = FieldForm(4, PolyFn, {(0, 3): x(4, 1) * x(4, 3)})
    pure = ref_bidegree_split(a).get((1, 1))
    assert pure is not None
    d10, d01 = dolbeault_deltas(pure, FLAT2.poisson)
    if d10:
        assert set(ref_bidegree_split(d10)) == {(0, 1)}
    if d01:
        assert set(ref_bidegree_split(d01)) == {(1, 0)}


def test_dolbeault_rejects_noninvariant():
    w = PoissonField(4, {(1, 3): Fraction(1)})
    a = FieldForm(4, PolyFn, {(0, 1): 1})
    with pytest.raises(ValueError):
        dolbeault_deltas(a, w)


def test_dolbeault_checks_each_field_once(monkeypatch):
    # a field that fails the J-invariance check raises on its first split
    # and on every later one; a field that passes is checked once
    checked = []
    real = Frame.check_invariance

    def counting(frame, w):
        checked.append(w)
        return real(frame, w)
    monkeypatch.setattr(Frame, "check_invariance", counting)
    a = FieldForm(4, PolyFn, {(0, 1): x(4, 2), (1, 6): x(4, 3)})
    bad = PoissonField(4, {(1, 3): Fraction(1)})
    for _ in range(2):
        with pytest.raises(ValueError, match="not preserved by J"):
            quantum_dolbeault_split(a, bad)
    assert checked == [bad, bad]
    checked.clear()
    good = PoissonField(4, {(i, j): c
                            for i, j, c in FLAT2.poisson.upper_entries()})
    first = quantum_dolbeault_split(a, good)
    assert quantum_dolbeault_split(a, good) == first
    assert dolbeault_deltas(a, good) == dolbeault_deltas(a, FLAT2.poisson)
    assert checked.count(good) == 1


def test_torus_truncation_closed():
    rng = Random(107)
    model = torus(1, 2)
    for _ in range(10):
        a = random_fieldform(rng, model, nterms=2, max_h=1)
        for out in (exterior_d(a), koszul_delta(a, model.poisson)):
            for fn in out.terms.values():
                assert all(abs(k) <= 2 for mode in fn.terms for k in mode)


def test_fieldform_str_and_serialize():
    a = FieldForm(2, PolyFn, {(0, 2): x(2, 1), (1, 0): 1})
    assert str(a) == "(x1)*dx2 + h"
    data = a.serialize()
    assert data["dx2"] == [[0, [[[1, 0], "1"]]]]
    assert data["1"] == [[1, [[[0, 0], "1"]]]]
