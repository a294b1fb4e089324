"""Differential calculus with function coefficients.

FieldForm carries forms whose coefficients live in a coordinate-function
ring (PolyFn or FourierFn) together with integer powers of h. Their
deformed product runs the product driver of exterior on the
coefficient functions cleared to int leaves over one denominator, and
divides each coefficient of the product once. The differential layer
provides d, the Koszul codifferential built from a bivector field, the
deformed differential d - h*delta, and the Dolbeault split of both on
flat models. The split has one complex structure, the standard one:
del is read off the covectors and vectors of the standard
bigraded.Frame, delbar is d - del from one exterior derivative, and the
J-invariance check comes from the same frame.
"""

from fractions import Fraction

from .bigraded import standard_frame
from .blades import (blade_degree, blade_str, indices_of_mask,
                     insert_first_mask, wedge_masks)
from .exterior import Bivector, QForm, product_numerators, wedge_terms
from .functions import FourierFn, PolyFn
from .scalars import (GaussRat, HPoly, SparseTerms, add_term, as_fraction,
                      clear_denominators, convolve, int_exponent, over)

_PLAIN = (int, GaussRat, str, Fraction)


class PoissonField(Bivector):
    """Bivector field w^{ij}(x); entries are functions or constants."""

    def __init__(self, dim: int, entries=None):
        super().__init__(dim, entries)
        self._jacobi = None
        self._mirror = None
        # the frame whose complex structure preserves this field, once
        # _dolbeault has checked it
        self._invariant_frame = None

    def fnring(self):
        for _, _, c in self.ordered_entries():
            if isinstance(c, (PolyFn, FourierFn)):
                return type(c)
        return None

    def entry_partial(self, i: int, j: int, q: int):
        c = self.entry(i, j)
        if isinstance(c, (PolyFn, FourierFn)):
            return c.partial(q)
        return Fraction(0)


class FieldForm(SparseTerms):
    """Form with function coefficients and explicit h exponents.

    Terms map (h exponent, blade mask) to a coefficient function; h
    exponents may be negative (the Laurent complexes need them). Total
    degree counts the blade degree plus twice the h exponent and ignores
    the function factor.
    """

    __slots__ = ("dim", "fnring")

    def __init__(self, dim: int, fnring, terms=None):
        self.dim = dim
        self.fnring = fnring
        self.terms = {}
        for (h, mask), fn in dict(terms or {}).items():
            if not 0 <= mask < (1 << dim):
                raise ValueError(f"blade mask {mask} out of range")
            if isinstance(fn, _PLAIN) or not isinstance(fn, fnring):
                fn = fnring.constant(dim, fn)
            add_term(self.terms, (int_exponent(h), mask), fn)

    _COERCE = _PLAIN
    _UNIT = (0, 0)

    @classmethod
    def from_fn(cls, fn, mask: int = 0, h_exp: int = 0) -> "FieldForm":
        return cls(fn.dim, type(fn), {(h_exp, mask): fn})

    def h_shift(self, k: int) -> "FieldForm":
        return self._like({(h + k, m): fn
                           for (h, m), fn in self.terms.items()})

    def __mul__(self, other):
        # exact-type tests first: isinstance against Fraction goes through
        # the slow ABC check
        t = type(other)
        if t is int or t is Fraction or t is self.fnring:
            return self._scale(other)
        if isinstance(other, str):
            other = as_fraction(other)
        if isinstance(other, HPoly):
            return self._like(convolve(self.terms, other.terms,
                                       lambda key, e: (key[0] + e, key[1])))
        if isinstance(other, _PLAIN) or isinstance(other, self.fnring):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def sorted_terms(self):
        keys = sorted(self.terms, key=lambda k: (
            -blade_degree(k[1]), indices_of_mask(k[1]), k[0]))
        return [(k, self.terms[k]) for k in keys]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (h, mask), fn in self.sorted_terms():
            pieces = []
            if h == 1:
                pieces.append("h")
            elif h:
                pieces.append(f"h^{h}")
            if not (fn.is_constant() and fn.constant_coeff() == 1):
                pieces.append(f"({fn})")
            if mask:
                pieces.append(blade_str(mask, "dx"))
            parts.append("*".join(pieces) if pieces else "1")
        return " + ".join(parts)

    __repr__ = __str__

    def serialize(self):
        out = {}
        for (h, mask), fn in self.sorted_terms():
            out.setdefault(blade_str(mask, "dx"), []).append(
                [h, fn.serialize()])
        return out


def lift(form: QForm, fnring) -> "FieldForm":
    """Constant-coefficient form as a FieldForm over the given ring."""
    t = {(e, mask): fnring.constant(form.dim, c)
         for mask, hp in form.terms.items() for e, c in hp.terms.items()}
    return FieldForm._make(t, form.dim, fnring)


def wedge_field(a: FieldForm, b: FieldForm) -> FieldForm:
    """The classical wedge: level 0 of the J-sum (exterior.wedge_terms)
    on the terms of both factors."""
    space = a._join(b)
    return FieldForm._make(wedge_terms(a.terms, b.terms), *space)


def quantum_wedge_field(a: FieldForm, b: FieldForm, w: PoissonField):
    """Pointwise deformed product; h bookkeeping as for constant forms.

    The coefficient functions go through exterior.product_numerators as
    numerators over one denominator each (scalars.clear_denominators),
    and each coefficient of the product is divided once (scalars.over)."""
    space = a._join(b)
    if w.dim != a.dim:
        raise ValueError("dimension mismatch")
    nums, den = product_numerators(*_numerators(a), *_numerators(b), w)
    return FieldForm._make({k: over(c, den) for k, c in nums.items()},
                           *space)


def _numerators(form: FieldForm):
    """form's coefficient functions over one denominator: terms
    {(h exponent, mask): numerator} and the denominator."""
    nums, den = clear_denominators(form.terms.values())
    return dict(zip(form.terms, nums)), den


def insert_coord(i: int, form: FieldForm) -> FieldForm:
    """Contraction with the coordinate frame vector e_i."""
    t = {}
    for (h, mask), fn in form.terms.items():
        s, m = insert_first_mask(i, mask)
        if s:
            add_term(t, (h, m), s * fn)
    return form._like(t)


def insert_vector_field(comps, form: FieldForm) -> FieldForm:
    """Contraction with a vector field given as {index: function}."""
    out = FieldForm.zero(form.dim, form.fnring)
    for j, fn in comps.items():
        if fn:
            out = out + insert_coord(j, form) * fn
    return out


def contract_field(w: PoissonField, form: FieldForm) -> FieldForm:
    """Insert the bivector field into the first two slots: e_i then e_j."""
    if w.dim != form.dim:
        raise ValueError("dimension mismatch")
    t = {}
    for i, j, c in w.upper_entries():
        for (h, mask), fn in form.terms.items():
            s1, m1 = insert_first_mask(i, mask)
            if not s1:
                continue
            s2, m2 = insert_first_mask(j, m1)
            if not s2:
                continue
            add_term(t, (h, m2), (fn * c) * (s1 * s2))
    return form._like(t)


def exterior_d(form: FieldForm) -> FieldForm:
    """d = sum_j e^j ^ d/dx^j; e^j moves past the blade's bits below j.
    Only the coordinates x^j that the coefficient holds (its variables
    mask) and the blade lacks are differentiated, in ascending order:
    every other partial is zero."""
    t = {}
    for (h, mask), fn in form.terms.items():
        todo = fn.variables() & ~mask
        while todo:
            bit = todo & -todo
            todo ^= bit
            p = fn.partial(bit.bit_length())
            if (mask & (bit - 1)).bit_count() & 1:
                p = -p
            add_term(t, (h, mask | bit), p)
    return form._like(t)


def d_and_delta(form: FieldForm, w: PoissonField):
    """(d form, delta form) from one exterior derivative of the form:
    delta = iota_w d - d iota_w contracts the d it returns, so a caller
    that needs both pays for d once.  koszul_delta, quantum_d and
    quantum_d_mirror are read off this pair."""
    df = exterior_d(form)
    return df, contract_field(w, df) - exterior_d(contract_field(w, form))


def koszul_delta(form: FieldForm, w: PoissonField) -> FieldForm:
    """delta = iota_w d - d iota_w; drops the form degree by one."""
    return d_and_delta(form, w)[1]


def quantum_d(form: FieldForm, w: PoissonField) -> FieldForm:
    """d - h delta; squares to zero exactly when w is Poisson."""
    df, delta = d_and_delta(form, w)
    return df - delta.h_shift(1)


def quantum_d_mirror(form: FieldForm, w: PoissonField) -> FieldForm:
    """d + h delta, the h -> -h specialization of quantum_d.

    Under the contraction normalization fixed here (first bivector index
    innermost), this operator is the graded derivation of the quantum
    product at parameter +h; equivalently quantum_d itself is a graded
    derivation of the product at -h.  The same-sign pairing fails by an
    exact cross term 2h w^{ij} (df part) against (e_j contraction): the
    two orientations of the nested contraction differ by a global sign,
    and the derivation property ties the product's orientation to the
    sign of the delta correction.
    """
    df, delta = d_and_delta(form, w)
    return df + delta.h_shift(1)


def lie_derivative(comps, form: FieldForm) -> FieldForm:
    """Cartan formula: L_X = d iota_X + iota_X d."""
    return exterior_d(insert_vector_field(comps, form)) + \
        insert_vector_field(comps, exterior_d(form))


def field_bracket(comps_x, comps_y, dim: int, fnring):
    """Commutator of two vector fields, componentwise."""
    out = {}
    for j in range(1, dim + 1):
        acc = fnring.zero(dim)
        for i in range(1, dim + 1):
            xi = comps_x.get(i)
            yi = comps_y.get(i)
            yj = comps_y.get(j)
            xj = comps_x.get(j)
            if xi and yj:
                acc = acc + xi * yj.partial(i)
            if yi and xj:
                acc = acc - yi * xj.partial(i)
        if acc:
            out[j] = acc
    return out


def jacobi_check(w: PoissonField):
    """Cyclic Jacobi sum for the bivector field; cached on the field.

    Returns (True, None) or (False, ((k, l, i), obstruction)) with the
    first nonzero cyclic sum in lexicographic triple order.
    """
    if w._jacobi is not None:
        return w._jacobi
    ring = w.fnring()
    if ring is None:
        w._jacobi = (True, None)
        return w._jacobi
    dim = w.dim
    result = (True, None)
    for k in range(1, dim + 1):
        for l in range(k + 1, dim + 1):
            for i in range(l + 1, dim + 1):
                acc = ring.zero(dim)
                for j in range(1, dim + 1):
                    for a, b, c in ((k, l, i), (l, i, k), (i, k, l)):
                        d = w.entry_partial(b, c, j)
                        if d:
                            acc = acc + w.entry(a, j) * d
                if acc:
                    result = (False, ((k, l, i), acc))
                    break
            if not result[0]:
                break
        if not result[0]:
            break
    w._jacobi = result
    return result


def delta_component_check(form: FieldForm, w: PoissonField):
    """Compare koszul_delta with the flat component formula.

    The candidate components are -w^{pq} d_q alpha_{p i2...ik}; the check
    finds the single constant c with koszul_delta = c * candidate and
    reports it. Requires a constant bivector.
    """
    if not w.is_constant():
        raise ValueError("component formula needs a constant bivector")
    lhs = koszul_delta(form, w)
    t = {}
    for (h, mask), fn in form.terms.items():
        for p in range(1, form.dim + 1):
            s, m = insert_first_mask(p, mask)
            if not s:
                continue
            # alpha_{p I} for I the increasing indices of m is s * fn
            for q in range(1, form.dim + 1):
                wpq = w.entry(p, q)
                if not wpq:
                    continue
                d = fn.partial(q)
                if not d:
                    continue
                add_term(t, (h, m), d * (-s * wpq))
    rhs = form._like(t)
    c = None
    for key, fn in rhs.terms.items():
        lfn = lhs.terms.get(key)
        if lfn is None:
            continue
        for mono, denom in fn.terms.items():
            num = lfn.terms.get(mono)
            try:
                c = Fraction(0) if num is None else num / denom
            except ValueError:
                continue
            break
        if c is not None:
            break
    if c is None:
        c = Fraction(0) if rhs.terms else Fraction(1)
    scaled = FieldForm(form.dim, form.fnring,
                       {k: fn * c for k, fn in rhs.terms.items()})
    if scaled != lhs:
        raise AssertionError("no constant matches the component formula")
    return {"c": c, "matched_terms": len(lhs.terms)}


def _standard_frame(dim: int):
    if dim % 2:
        raise ValueError("bidegree needs even dimension")
    return standard_frame(dim // 2)


def _d_halves(form: FieldForm):
    """(del, delbar): del = sum_a f^a ^ d_{V_a} over the frame covectors
    f^a (rows a <= n of _from_cx) and their dual vectors V_a (columns of
    _to_cx), and delbar = d - del.  The frame is constant, so d is
    sum_a (f^a ^ d_{V_a} + fbar^a ^ d_{Vbar_a}), and the first sum is the
    part that raises p by one."""
    frame = _standard_frame(form.dim)
    covecs = [[(1 << i, c) for i, c in enumerate(row) if c]
              for row in frame._from_cx[:frame.n]]
    vecs = [[(j + 1, c) for j, c in enumerate(col) if c]
            for col in list(zip(*frame._to_cx))[:frame.n]]
    zero = form.fnring.zero(form.dim)
    t = {}
    for (h, mask), fn in form.terms.items():
        held = fn.variables()
        for f, v in zip(covecs, vecs):
            dv = sum((fn.partial(j) * c for j, c in v if held >> (j - 1) & 1),
                     zero)
            for bit, c in f:
                s, m = wedge_masks(bit, mask)
                if s:
                    add_term(t, (h, m), dv * (c * s))
    d10 = form._like(t)
    return d10, exterior_d(form) - d10


def partial_d(form: FieldForm) -> FieldForm:
    """Type (1,0) piece of d for the standard complex structure."""
    return _d_halves(form)[0]


def partial_dbar(form: FieldForm) -> FieldForm:
    """Type (0,1) piece of d for the standard complex structure."""
    return _d_halves(form)[1]


def _dolbeault(form: FieldForm, w: PoissonField):
    """del and delbar of the form, then the type components of delta:
    (lowers p, lowers q).  The frame's J-invariance check runs once per
    field and frame; a field that fails it raises on every split."""
    frame = _standard_frame(form.dim)
    if not w.is_constant():
        raise ValueError("Dolbeault split needs a constant bivector")
    if w._invariant_frame is not frame:
        frame.check_invariance(w)
        w._invariant_frame = frame
    d_form, dbar_form = _d_halves(form)
    d_iota, dbar_iota = _d_halves(contract_field(w, form))
    d10 = contract_field(w, dbar_form) - dbar_iota
    d01 = contract_field(w, d_form) - d_iota
    return d_form, dbar_form, d10, d01


def dolbeault_deltas(form: FieldForm, w: PoissonField):
    """Type components of delta: (lowers p, lowers q), in that order."""
    return _dolbeault(form, w)[2:]


def quantum_dolbeault_split(form: FieldForm, w: PoissonField):
    """(del_h, delbar_h): deformed Dolbeault halves of quantum_d."""
    d_form, dbar_form, d10, d01 = _dolbeault(form, w)
    return d_form - d01.h_shift(1), dbar_form - d10.h_shift(1)
