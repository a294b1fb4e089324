"""The sparse-term core: every ring and form value that arithmetic builds
is what its public constructor would build from the same dict and holds
no zero coefficient and no bare int. No value carries a mode: negative
powers of h are plain data. The public constructors still reject
malformed outside input."""

import ast
import inspect
import textwrap
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from qdr.bigraded import conj, standard_frame
from qdr.cohomology import quantum_integral
from qdr.exterior import (
    Bivector,
    MultiForm,
    PairTensor,
    QForm,
    insert_first,
    quantum_wedge,
    quantum_wedge_multi,
    wedge,
)
from qdr.fields import (
    FieldForm,
    PoissonField,
    contract_field,
    exterior_d,
    insert_coord,
    koszul_delta,
    lift,
    partial_d,
    partial_dbar,
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
from qdr.scalars import (
    GaussRat,
    HPoly,
    HPolyMulti,
    PendingTerms,
    SparseRing,
    SparseTerms,
    TauNumber,
    add_term,
)
from qdr.symplectic import symplectic_star


def _rebuilt(x):
    """x's own dict fed back through its public constructor."""
    if isinstance(x, GaussRat):
        return GaussRat(x.re, x.im)
    if isinstance(x, HPoly):
        return HPoly(dict(x.terms))
    if isinstance(x, HPolyMulti):
        return HPolyMulti(x.nparams, dict(x.terms))
    if isinstance(x, TauNumber):
        return TauNumber(dict(x.terms))
    if isinstance(x, (PolyFn, FourierFn)):
        return type(x)(x.dim, dict(x.terms))
    if isinstance(x, QForm):
        return QForm(x.dim, dict(x.terms))
    if isinstance(x, MultiForm):
        # no public constructor: each coefficient is rebuilt through its own
        return MultiForm._make({m: _rebuilt(c) for m, c in x.terms.items()},
                               x.dim, x.nparams)
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
    for attr in ("dim", "nparams", "fnring"):
        if hasattr(x, attr):
            assert getattr(y, attr) == getattr(x, attr), attr
    for leaf in _leaves(x):
        assert type(leaf) is Fraction, f"{leaf!r} stored in {x!r}"
    return x


def _hpolys(rng):
    out = []
    for _ in range(2):
        # p, its Laurent shift, and p rebuilt by the public constructor
        p = random_hpoly(rng)
        out += [p, p.shift(-1), HPoly(dict(p.terms))]
    out.append(HPoly({0: random_gauss(rng), 1: random_fraction(rng) or 1}))
    out.append(HPoly())
    return out


def _check_scalars(rng):
    ps = _hpolys(rng)
    for a in ps:
        for b in ps:
            for r in (a + b, a - b, a * b, (a + b) - b):
                _check(r)
        for r in (-a, a * 3, a * 0, a * Fraction(2, 3), a * "1/2",
                  a * GaussRat(1, -2), a / 2, a / GaussRat(0, 3),
                  a / HPoly({2: 3}), a.shift(2), a.shift(-3), a.conj(),
                  a + 1, 1 - a, a + GaussRat(0, 1), a - a):
            _check(r)
        assert a - a == HPoly()
        assert a.shift(-3) == HPoly({e - 3: c for e, c in a.terms.items()})

    g, k = random_gauss(rng), random_gauss(rng) + GaussRat(0, 1)
    for r in (g + k, g - k, -g, g * k, g / k, g.conj(), g + 2, 3 * g, 1 - g,
              g - g):
        _check(r)

    m = [HPolyMulti(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                        random_fraction(rng) for _ in range(3)})
         for _ in range(2)] + [HPolyMulti(2, {(1, 0): Fraction(1)})]
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
        for r in (-a, a * 2, a / t[2], a + 1):
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
                      a * HPoly({1: 2}), a.partial(1), a + 1, 2 - a):
                _check(r)
        modes = [random_fourierfn(rng, dim) for _ in range(2)]
        for a in modes:
            for b in modes:
                for r in (a + b, a - b, a * b, a - a):
                    _check(r)
            for r in (-a, a * 0, a * GaussRat(0, 2), a * TauNumber.tau(),
                      a.partial(dim), a + 1):
                _check(r)


def _check_forms(rng):
    dim = 4
    w = random_bivector(rng, dim)
    base = [random_qform(rng, dim), random_qform(rng, dim, max_h=0)]
    forms = base + [base[0].h_shift(-1),
                    QForm(dim, dict(base[1].terms)), QForm.zero(dim)]
    for a in forms:
        for b in forms:
            for r in (a + b, a - b, wedge(a, b), quantum_wedge(a, b, w),
                      (a + b) - b):
                _check(r)
        for r in (-a, a * 0, a * 3, a * HPoly({1: 1}),
                  a * GaussRat(0, 1), a / 2, a / HPoly({1: 2}), a.h_shift(2),
                  a.h_shift(-1), insert_first(2, a),
                  insert_first([1, 0, HPoly({-1: 1}), 0], a),
                  symplectic_star(a), a - a):
            _check(r)
    frame = standard_frame(2)
    for a in forms:
        bf = frame.complexify(a)
        for r in (bf, conj(bf), frame.realify(bf)):
            _check(r)
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
                      a * HPoly({-1: 1, 2: 3}),
                      a.h_shift(-2), insert_coord(1, a),
                      contract_field(w, a), exterior_d(a), koszul_delta(a, w),
                      quantum_d(a, w)):
                _check(r)
        q = random_qform(rng, model.dim)
        _check(lift(q, model.fnring))
        if model.is_torus():
            top = random_fieldform(rng, model, degree=model.dim)
            _check(quantum_integral(top, model.omega, model))
        elif model.name == "flat":
            for part in (partial_d(fs[0]), partial_dbar(fs[0])):
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
    (lambda: HPoly({0.5: 1}), TypeError),
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
    (lambda: QForm(2, {0: {1.5: 3}}), TypeError),
    # quantum_wedge_multi alone builds a MultiForm: the class takes no
    # terms from outside
    (lambda: MultiForm(2, 2, {0: 1}), TypeError),
    (lambda: FieldForm(2, PolyFn, {(0, 0b100): 1}), ValueError),
    (lambda: FieldForm(2, PolyFn, {(0, 0): 0.5}), TypeError),
    (lambda: insert_first({1: 0.5}, QForm.basis(2, (1,))), TypeError),
    (lambda: quantum_wedge(QForm.basis(2, (1,)), QForm.basis(2, (2,)), _FN),
     TypeError),
    (lambda: quantum_wedge_multi(QForm.basis(2, (1,)), QForm.basis(2, (2,)),
                                 [_FN]), TypeError),
    (lambda: quantum_wedge(QForm.basis(2, (1,)), QForm.basis(2, (2,)),
                           PairTensor(2, {(1, 2): HPoly({1: 1})})), TypeError),
    # an exponent key is an int: never a float, never a bool
    (lambda: HPoly({True: 1}), TypeError),
    (lambda: HPolyMulti(2, {(1.5, 0): 1}), TypeError),
    (lambda: TauNumber({0.5: 1}), TypeError),
    (lambda: PolyFn(2, {(1.5, 0): 1}), TypeError),
    (lambda: FourierFn(2, {(0, 0.5): 1}), TypeError),
    (lambda: FieldForm(2, PolyFn, {(0.5, 0): 1}), TypeError),
]


@pytest.mark.parametrize("build, error", MALFORMED,
                         ids=[f"malformed{k}" for k in range(len(MALFORMED))])
def test_public_constructors_reject_malformed_input(build, error):
    with pytest.raises(error):
        build()


# ------------------------------------------------ the one arithmetic core
#
# The loops below are plain per-class sum, negation and convolution,
# kept as references: on every class the core must give the same terms
# in the same insertion order, the same space and the same hash().

_CLASSES = (HPoly, HPolyMulti, TauNumber, PolyFn, FourierFn, QForm,
            MultiForm, FieldForm)
_RINGS = (HPoly, HPolyMulti, TauNumber, PolyFn, FourierFn)


def _ref_sum(a, b, sign):
    t = dict(a.terms)
    for k, c in b.terms.items():
        add_term(t, k, c if sign > 0 else -c)
    return t


def _ref_neg(a):
    return {k: -c for k, c in a.terms.items()}


def _ref_convolve(a, b):
    tuple_keys = isinstance(a, (HPolyMulti, PolyFn, FourierFn))
    t = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = (tuple(x + y for x, y in zip(e1, e2)) if tuple_keys
                 else e1 + e2)
            add_term(t, e, c1 * c2)
    return t


def _ref_times_hpoly(form, p):
    # FieldForm * HPoly: every h power shifts the form's h exponent
    t = {}
    for (h, m), fn in form.terms.items():
        for e, c in p.terms.items():
            add_term(t, (h + e, m), fn * c)
    return t


def _ref_space(a):
    return {k: getattr(a, k) for k in ("dim", "nparams", "fnring")
            if hasattr(a, k)}


def _ref_hash(x):
    items = tuple(sorted(x.terms.items(), key=lambda t: t[0]))
    if isinstance(x, HPolyMulti):
        return hash((x.nparams, items))
    if isinstance(x, QForm):
        return hash((x.dim, items))
    return hash(items)


def _shape(x):
    """Type, space and terms in insertion order, all the way down."""
    if not hasattr(x, "terms"):
        return (type(x).__name__, x)
    space = {k: getattr(x, k) for k in ("dim", "nparams", "fnring")
             if hasattr(x, k)}
    return (type(x).__name__, space,
            [(k, _shape(c)) for k, c in x.terms.items()])


def _expect(result, cls, space, terms):
    assert type(result) is cls
    assert _shape(result) == (cls.__name__, space,
                              [(k, _shape(c)) for k, c in terms.items()])
    if cls in (HPoly, HPolyMulti, TauNumber, QForm):
        assert hash(result) == _ref_hash(result)
    else:
        with pytest.raises(TypeError):
            hash(result)


def _operands(rng):
    """Seeded operand lists, one per class, each on one space."""
    tau = [TauNumber({rng.randint(-1, 2): random_gauss(rng)
                      for _ in range(3)}) for _ in range(3)]
    multi = [HPolyMulti(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            random_fraction(rng) for _ in range(3)})
             for _ in range(3)]
    ws = [random_bivector(rng, 4) for _ in range(2)]
    qs = [random_qform(rng, 4, max_h=0) for _ in range(3)]
    model = (standard_symplectic(1), torus(1, 1))[rng.randint(0, 1)]
    return {
        HPoly: _hpolys(rng),
        HPolyMulti: multi + [HPolyMulti(2)],
        TauNumber: tau + [TauNumber()],
        PolyFn: [random_polyfn(rng, 2), random_polyfn(rng, 2,
                                                      complex_ok=True),
                 moyal_product(random_polyfn(rng, 2), random_polyfn(rng, 2),
                               random_bivector(rng, 2)), PolyFn.zero(2)],
        FourierFn: [random_fourierfn(rng, 2) for _ in range(3)],
        QForm: [qs[0], qs[1].h_shift(-1), QForm(4, dict(qs[2].terms)),
                QForm.zero(4)],
        MultiForm: [quantum_wedge_multi(qs[k], qs[k + 1], ws)
                    for k in range(2)],
        FieldForm: [random_fieldform(rng, model, nterms=3) for _ in range(3)],
    }


def test_core_matches_the_per_class_loops():
    rng = Random(88)
    for _ in range(3):
        for cls, values in _operands(rng).items():
            for a in values:
                _expect(-a, cls, _ref_space(a), _ref_neg(a))
                for b in values:
                    _expect(a + b, cls, _ref_space(a), _ref_sum(a, b, 1))
                    _expect(a - b, cls, _ref_space(a), _ref_sum(a, b, -1))
                    assert (a == b) == (a.terms == b.terms)
                    if cls in _RINGS:
                        _expect(a * b, cls, _ref_space(a),
                                _ref_convolve(a, b))
                if cls is FieldForm:
                    p = HPoly({-1: 2, 0: 1, 3: random_fraction(rng) or 1})
                    _expect(a * p, cls, _ref_space(a),
                            _ref_times_hpoly(a, p))


def test_scalar_multiples_match_and_keep_the_zero_short_cut():
    rng = Random(89)
    ops = _operands(rng)
    scalars = {HPoly: (3, Fraction(-2, 3)), HPolyMulti: (3, Fraction(1, 2)),
               TauNumber: (3, Fraction(1, 2)),
               PolyFn: (3, GaussRat(1, 1), HPoly({1: 2})),
               FourierFn: (3, GaussRat(0, 2), TauNumber.tau()),
               QForm: (3, GaussRat(0, 1), HPoly({1: 1})),
               FieldForm: (3, GaussRat(1, 1))}
    for cls, values in scalars.items():
        for a in ops[cls]:
            for s in values:
                space = _ref_space(a)
                _expect(a * s, cls, space,
                        {k: c * s for k, c in a.terms.items()})
                _expect(s * a, cls, space,
                        {k: c * s for k, c in a.terms.items()})
            _expect(a * 0, cls, _ref_space(a), {})


def _ref_times(c, s):
    """c * s by the loop the core ran before its short cut for 1 and -1:
    every value multiplied by s, all the way down to the leaves."""
    if isinstance(c, SparseTerms):
        return c._like({k: _ref_times(v, s) for k, v in c.terms.items()})
    return c * s


def test_unit_multiples_copy_or_negate_as_the_loop_multiplies():
    rng = Random(90)
    ops = _operands(rng)
    for cls in _CLASSES:
        for a in ops[cls]:
            for s in (1, -1, Fraction(1), Fraction(-1)):
                want = {k: _ref_times(c, s) for k, c in a.terms.items()}
                results = [a._scale(s)]
                if cls is not MultiForm:
                    results += [a * s, s * a]
                for r in results:
                    _expect(r, cls, _ref_space(a), want)
                    _check(r)
                    assert r.terms is not a.terms
                    if s == 1:
                        # nothing is multiplied: the values are a's own
                        assert all(r.terms[k] is c
                                   for k, c in a.terms.items())


def test_space_mismatch_raises_and_compares_unequal():
    pairs = [
        (HPolyMulti(2, {(1, 0): 1}), HPolyMulti(3, {(1, 0, 0): 1}), True),
        (PolyFn.coord(1, 1), PolyFn.coord(2, 1), True),
        (FourierFn.mode(1, (1,)), FourierFn.mode(2, (1, 0)), True),
        (QForm.basis(2, (1,)), QForm.basis(4, (1,)), False),
        (FieldForm.from_fn(PolyFn.constant(2, 1)),
         FieldForm.from_fn(FourierFn.constant(2, 1)), False),
        (MultiForm._make({0: HPolyMulti.constant(2, 1)}, 2, 2),
         MultiForm._make({0: HPolyMulti.constant(3, 1)}, 2, 3), False),
    ]
    for a, b, ring in pairs:
        ops = [lambda: a + b, lambda: a - b, lambda: b - a]
        if ring:
            ops.append(lambda: a * b)
        for op in ops:
            with pytest.raises(ValueError):
                op()
        assert a != b and not a == b
    # the free products check the two spaces as the core does
    w2 = Bivector.standard(2)
    e1 = QForm.basis(2, (1,))
    q4 = QForm.basis(4, (1,))
    f = FieldForm.from_fn(PolyFn.coord(2, 1), 0b1)
    g = FieldForm.from_fn(FourierFn.mode(2, (1, 0)), 0b10)
    for op in (lambda: quantum_wedge(e1, q4, w2),
               lambda: quantum_wedge(q4, e1, w2),
               lambda: wedge_field(f, g), lambda: wedge_field(g, f),
               lambda: quantum_wedge_field(f, g, PoissonField(2))):
        with pytest.raises(ValueError):
            op()
    # zero values on different spaces differ too
    assert PolyFn.zero(1) != PolyFn.zero(2)
    assert QForm.zero(2) != QForm.zero(4)


def test_scalars_combine_from_either_side():
    p = HPoly({0: 1, 2: 3})
    assert (1 - p).terms == {2: -3} and (p - 1).terms == {2: 3}
    assert (2 + p).terms == {0: 3, 2: 3}
    f = PolyFn.coord(2, 1)
    assert (1 - f) == PolyFn(2, {(0, 0): 1, (1, 0): -1})
    t = TauNumber.tau()
    assert (1 - t).terms == {0: GaussRat(1), 1: GaussRat(-1)}
    assert (3 * t).terms == {1: GaussRat(3)}
    q = QForm.basis(2, (1,))
    assert (2 - q) == QForm(2, {0: 2, (1,): -1})
    # as for Fraction, == parses no string
    for x in (HPoly({0: 1}), PolyFn.constant(2, 1), TauNumber(1),
              QForm.scalar(2, 1)):
        assert x != "1" and not x == "x"


def test_no_class_keeps_its_own_arithmetic():
    core = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__eq__", "__bool__", "is_zero", "_make", "_like", "_binop",
            "_coerce", "coerce", "_join", "_operand", "zero", "constant")
    for cls in _CLASSES:
        assert issubclass(cls, SparseTerms)
        own = [name for name in core if name in vars(cls)]
        if cls is TauNumber:
            # FourierFn coefficients go through TauNumber.coerce
            own.remove("coerce")
        assert not own, (cls.__name__, own)
    for cls in _RINGS:
        assert issubclass(cls, SparseRing)
        assert "__mul__" not in vars(cls) and "__rmul__" not in vars(cls)
    for cls in _CLASSES:
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (
                    cls is QForm and fn.name == "wedge"):
                continue
            for outer in ast.walk(fn):
                if not isinstance(outer, ast.For):
                    continue
                for inner in ast.walk(outer):
                    if inner is outer or not isinstance(inner, ast.For):
                        continue
                    calls = [n.func.id for n in ast.walk(inner)
                             if isinstance(n, ast.Call)
                             and isinstance(n.func, ast.Name)]
                    assert "add_term" not in calls, \
                        f"{cls.__name__}.{fn.name} keeps a product loop"


def test_only_pending_terms_carry_pending_state():
    # the core has no pending slot and no branch on a pending caller
    assert "_pending" not in SparseTerms.__slots__
    assert "_pending" in PendingTerms.__slots__
    for cls in _CLASSES:
        pending = issubclass(cls, PendingTerms)
        assert pending == (cls is QForm), cls.__name__
        assert hasattr(cls, "_pending") == pending, cls.__name__
        assert hasattr(cls, "__getattr__") == pending, cls.__name__
    assert not hasattr(HPoly(), "_pending")
    assert QForm.zero(2)._pending is None
    for name in ("__eq__", "__init_subclass__"):
        tree = ast.parse(textwrap.dedent(inspect.getsource(
            vars(SparseTerms)[name])))
        named = {n.attr if isinstance(n, ast.Attribute) else n.id
                 for n in ast.walk(tree)
                 if isinstance(n, (ast.Attribute, ast.Name))}
        assert not {"_settle", "_pending"} & named, name


def test_zero_and_constant_are_built_on_each_space():
    # zero(*space) and constant(*space, c) are those of the public
    # constructor, c on the unit term
    cases = [(HPoly, (), 0), (HPolyMulti, (3,), (0, 0, 0)),
             (TauNumber, (), 0), (PolyFn, (2,), (0, 0)),
             (FourierFn, (2,), (0, 0)), (QForm, (2,), 0),
             (MultiForm, (2, 3), 0), (FieldForm, (2, PolyFn), (0, 0))]
    for cls, space, unit in cases:
        zero = cls.zero(*space)
        if cls is MultiForm:
            # no public constructor, and no operand type it coerces
            _expect(zero, cls, {"dim": 2, "nparams": 3}, {})
            for c in (3, Fraction(-1, 2)):
                with pytest.raises(TypeError):
                    zero + c
            continue
        _expect(zero, cls, _ref_space(cls(*space)), {})
        for c in (3, Fraction(-1, 2)):
            one = cls(*space, {unit: c})
            _expect(cls.constant(*space, c), cls, _ref_space(one), one.terms)
            # an operand of a coerced type is that constant
            assert zero + c == one and c - zero == one
    assert QForm.scalar(2, 5) == QForm.constant(2, 5)


def test_no_value_carries_a_laurent_flag():
    # negative powers of h are plain data: no class of the package keeps
    # a laurent slot and no function takes a laurent parameter
    src = Path(__file__).resolve().parent.parent / "src" / "qdr"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign) and any(
                            isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)
                            and "laurent" in ast.literal_eval(stmt.value)):
                        found.append(f"{path.name}:{node.name}.__slots__")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p]
                if any(p.arg == "laurent" for p in params):
                    found.append(f"{path.name}:{node.name}")
    assert found == []
    assert HPoly.__slots__ == () and QForm.__slots__ == ("dim",)
