"""The sparse-term core: every ring and form value that arithmetic builds
is what its public constructor would build from the same dict, holds no
zero coefficient and no bare int, and carries the Laurent flag of its
operands. The public constructors still reject malformed outside input."""

from fractions import Fraction
from random import Random

import pytest

from qdr.bigraded import standard_frame
from qdr.cohomology import quantum_integral
from qdr.exterior import (
    Bivector,
    MultiForm,
    PairTensor,
    QForm,
    insert_first,
    insert_last,
    quantum_wedge,
    quantum_wedge_multi,
)
from qdr.fields import (
    FieldForm,
    PoissonField,
    bidegree_split,
    contract_field,
    exterior_d,
    insert_coord,
    koszul_delta,
    lift,
    quantum_d,
    quantum_dolbeault_split,
    quantum_wedge_field,
    wedge_field,
)
from qdr.fixtures import lie_poisson_so3, standard_symplectic, torus
from qdr.functions import FourierFn, PolyFn, moyal_product
from qdr.rand import (
    random_bivector,
    random_fieldform,
    random_fourierfn,
    random_fraction,
    random_gauss,
    random_hpoly,
    random_polyfn,
    random_qform,
)
from qdr.scalars import GaussRat, HPoly, HPolyMulti, TauNumber, add_term
from qdr.symplectic import symplectic_star


def _rebuilt(x):
    """x's own dict fed back through its public constructor."""
    if isinstance(x, GaussRat):
        return GaussRat(x.re, x.im)
    if isinstance(x, HPoly):
        return HPoly(dict(x.terms), laurent=x.laurent)
    if isinstance(x, HPolyMulti):
        return HPolyMulti(x.nparams, dict(x.terms))
    if isinstance(x, TauNumber):
        return TauNumber(dict(x.terms))
    if isinstance(x, (PolyFn, FourierFn)):
        return type(x)(x.dim, dict(x.terms))
    if isinstance(x, QForm):
        return QForm(x.dim, dict(x.terms), laurent=x.laurent)
    if isinstance(x, MultiForm):
        return MultiForm(x.dim, x.nparams, dict(x.terms))
    if isinstance(x, FieldForm):
        return FieldForm(x.dim, x.fnring, dict(x.terms))
    raise AssertionError(f"not a sparse-term value: {x!r}")


def _leaves(x):
    """Every rational stored anywhere inside x."""
    if isinstance(x, GaussRat):
        yield x.re
        yield x.im
        return
    if not hasattr(x, "terms"):
        yield x
        return
    for v in x.terms.values():
        assert v, f"zero coefficient stored in {x!r}"
        yield from _leaves(v)


def _check(x):
    y = _rebuilt(x)
    assert type(y) is type(x)
    if isinstance(x, GaussRat):
        assert (y.re, y.im) == (x.re, x.im)
    else:
        assert y.terms == x.terms
    for attr in ("laurent", "dim", "nparams", "fnring"):
        if hasattr(x, attr):
            assert getattr(y, attr) == getattr(x, attr), attr
    for leaf in _leaves(x):
        assert type(leaf) is Fraction, f"{leaf!r} stored in {x!r}"
    return x


def _hpolys(rng):
    out = []
    for _ in range(2):
        # p, its Laurent shift, and p flagged Laurent with no negative power
        p = random_hpoly(rng)
        out += [p, p.shift(-1), HPoly(dict(p.terms), laurent=True)]
    out.append(HPoly({0: random_gauss(rng), 1: random_fraction(rng) or 1}))
    out.append(HPoly(laurent=True))
    return out


def _binary_law(a, b, r):
    assert r.laurent == (a.laurent or b.laurent)


def _check_scalars(rng):
    ps = _hpolys(rng)
    for a in ps:
        for b in ps:
            for r in (a + b, a - b, a * b, (a + b) - b):
                _binary_law(a, b, _check(r))
        for r in (-a, a * 3, a * 0, a * Fraction(2, 3), a * "1/2",
                  a * GaussRat(1, -2), a / 2, a / GaussRat(0, 3),
                  a / HPoly({2: 3}), a.shift(2), a.shift(-3), a.conj(),
                  a + 1, 1 - a, a + GaussRat(0, 1), a - a):
            _check(r)
        assert (a - a).laurent == a.laurent
        assert a.shift(-3).laurent == (a.laurent
                                       or any(e < 3 for e in a.terms))

    g, k = random_gauss(rng), random_gauss(rng) + GaussRat(0, 1)
    for r in (g + k, g - k, -g, g * k, g / k, g.conj(), g + 2, 3 * g, 1 - g,
              g - g):
        _check(r)

    m = [HPolyMulti(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                        random_fraction(rng) for _ in range(3)})
         for _ in range(2)] + [HPolyMulti.h(2, 1)]
    for a in m:
        for b in m:
            for r in (a + b, a - b, a * b, a - a):
                _check(r)
        for r in (-a, a * 2, a * 0, a / 3, a.specialize([1, -1]),
                  a.specialize([0, 2])):
            _check(r)

    t = [TauNumber({rng.randint(-1, 2): random_gauss(rng)
                    for _ in range(3)}) for _ in range(2)]
    t.append(TauNumber.tau(1, GaussRat(0, 2)))
    for a in t:
        for b in t:
            for r in (a + b, a - b, a * b, a - a):
                _check(r)
        for r in (-a, a * 2, a / t[2], a.conj(), a + 1):
            _check(r)


def _check_functions(rng):
    for dim in (1, 2):
        w = random_bivector(rng, 2) if dim == 2 else Bivector(1)
        fns = [random_polyfn(rng, dim), random_polyfn(rng, dim,
                                                      complex_ok=True)]
        fns.append(moyal_product(fns[0], fns[0], w))
        for a in fns:
            for b in fns:
                for r in (a + b, a - b, a * b, a - a,
                          moyal_product(a, b, w)):
                    _check(r)
            for r in (-a, a * 0, a * 2, a * GaussRat(1, 1),
                      a * HPoly({1: 2}), a / 3, a.partial(1), a.conj(),
                      a + 1, 2 - a):
                _check(r)
        modes = [random_fourierfn(rng, dim) for _ in range(2)]
        for a in modes:
            for b in modes:
                for r in (a + b, a - b, a * b, a - a):
                    _check(r)
            for r in (-a, a * 0, a * GaussRat(0, 2), a * TauNumber.tau(),
                      a / TauNumber.tau(2, 3), a.partial(dim), a.conj(),
                      a + 1):
                _check(r)


def _check_forms(rng):
    dim = 4
    w = random_bivector(rng, dim)
    base = [random_qform(rng, dim), random_qform(rng, dim, max_h=0)]
    forms = base + [base[0].h_shift(-1),
                    QForm(dim, dict(base[1].terms), laurent=True),
                    QForm.zero(dim, laurent=True)]
    for a in forms:
        for b in forms:
            for r in (a + b, a - b, a.wedge(b), quantum_wedge(a, b, w),
                      (a + b) - b):
                _binary_law(a, b, _check(r))
        for r in (-a, a * 0, a * 3, a * HPoly({1: 1}, laurent=True),
                  a * GaussRat(0, 1), a / 2, a / HPoly({1: 2}), a.h_shift(2),
                  a.h_shift(-1), a.grade(2), insert_first(2, a),
                  insert_last(a, {1: 2, 3: HPoly({-1: 1}, laurent=True)}),
                  insert_first([1, 0, HPoly({-1: 1}, laurent=True), 0], a),
                  symplectic_star(a), a - a):
            _check(r)
    frame = standard_frame(2)
    for a in forms:
        bf = frame.complexify(a)
        for r in (bf.form, bf.conj().form, frame.realify(bf)):
            _check(r)
        for part in bf.components().values():
            _check(part.form)
    ws = [random_bivector(rng, dim) for _ in range(2)]
    multi = _check(quantum_wedge_multi(base[1], base[1], ws))
    _check(multi + multi)
    _check(multi.specialize([1, -2]))
    _check(multi.specialize([0, 0]))


def _check_fields(rng):
    for model in (standard_symplectic(1), standard_symplectic(2),
                  torus(1, 1), lie_poisson_so3()):
        w = model.poisson
        fs = [random_fieldform(rng, model, nterms=3) for _ in range(2)]
        fn = random_fieldform(rng, model, nterms=1).terms.get(
            (0, 0), model.constant(3))
        for a in fs:
            for b in fs:
                for r in (a + b, a - b, a - a, wedge_field(a, b),
                          quantum_wedge_field(a, b, w)):
                    _check(r)
            for r in (-a, a * 0, a * 2, a * GaussRat(1, 1), a * fn,
                      a * HPoly({-1: 1, 2: 3}, laurent=True), a.grade(1),
                      a.h_shift(-2), a.h_coefficient(1), insert_coord(1, a),
                      contract_field(w, a), exterior_d(a), koszul_delta(a, w),
                      quantum_d(a, w)):
                _check(r)
        q = random_qform(rng, model.dim)
        _check(lift(q, model.fnring))
        if model.is_torus():
            top = random_fieldform(rng, model, degree=model.dim)
            _check(quantum_integral(top, model.omega, model))
        elif model.name == "flat":
            for part in bidegree_split(fs[0]).values():
                _check(part)
            for part in quantum_dolbeault_split(fs[1], w):
                _check(part)


def test_arithmetic_results_are_normalised():
    rng = Random(20240)
    for _ in range(3):
        _check_scalars(rng)
        _check_functions(rng)
        _check_forms(rng)
        _check_fields(rng)


def test_add_term_keeps_terms_zero_free():
    t = {}
    add_term(t, 1, Fraction(0))
    assert t == {}
    add_term(t, 1, Fraction(2))
    add_term(t, 1, Fraction(-2))
    assert t == {}
    add_term(t, 1, HPoly({0: 1}))
    add_term(t, 2, HPoly())
    assert t == {1: HPoly({0: 1})}


_FN = PoissonField(2, {(1, 2): PolyFn.coord(2, 1)})

MALFORMED = [
    (lambda: GaussRat(1.5), TypeError),
    (lambda: HPoly({-1: 1}), ValueError),
    (lambda: HPoly({0: 0.5}), TypeError),
    (lambda: HPolyMulti(2, {(1,): 1}), ValueError),
    (lambda: HPolyMulti(2, {(-1, 0): 1}), ValueError),
    (lambda: HPolyMulti(1, {(0,): 0.5}), TypeError),
    (lambda: TauNumber({0: 0.5}), TypeError),
    (lambda: PolyFn(2, {(1,): 1}), ValueError),
    (lambda: PolyFn(2, {(-1, 0): 1}), ValueError),
    (lambda: PolyFn(1, {(0,): 0.5}), TypeError),
    (lambda: FourierFn(2, {(1,): 1}), ValueError),
    (lambda: FourierFn(1, {(0,): 0.5}), TypeError),
    (lambda: QForm(2, {0b100: 1}), ValueError),
    (lambda: QForm(2, {0: 0.5}), TypeError),
    (lambda: QForm(2, {0: {-1: 1}}), ValueError),
    (lambda: MultiForm(2, 2, {0: {(1,): 1}}), ValueError),
    (lambda: FieldForm(2, PolyFn, {(0, 0b100): 1}), ValueError),
    (lambda: FieldForm(2, PolyFn, {(0, 0): 0.5}), TypeError),
    (lambda: insert_first({1: 0.5}, QForm.basis(2, (1,))), TypeError),
    (lambda: quantum_wedge(QForm.basis(2, (1,)), QForm.basis(2, (2,)), _FN),
     TypeError),
    (lambda: quantum_wedge_multi(QForm.basis(2, (1,)), QForm.basis(2, (2,)),
                                 [_FN]), TypeError),
    (lambda: quantum_wedge(QForm.basis(2, (1,)), QForm.basis(2, (2,)),
                           PairTensor(2, {(1, 2): HPoly({1: 1})})), TypeError),
]


@pytest.mark.parametrize("build, error", MALFORMED,
                         ids=[f"malformed{k}" for k in range(len(MALFORMED))])
def test_public_constructors_reject_malformed_input(build, error):
    with pytest.raises(error):
        build()
