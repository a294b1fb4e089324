"""Complexified quantum algebra on a compatible frame.

Real covectors pair into a holomorphic frame f^a = e^{2a-1} + i e^{2a}
(indices 1..n) and its conjugates (indices n+1..2n).  Forms over that
frame carry a bidegree in which the deformation parameter counts (1,1).
The Hermitian pairing contracts a product at parameter one and applies
an exact sign prefactor; the adjoint law relating it to the product is
derived from exhaustive evaluation rather than assumed.
"""

from fractions import Fraction

from .blades import blade_degree, wedge_masks
from .exterior import Bivector, QForm, quantum_wedge
from .fields import standard_J
from .linalg import bareiss_det, mat_inv, mat_mul, transpose
from .scalars import GaussRat, HPoly, I, add_term, as_fraction
from .symplectic import SymplecticForm, bivector_of

_HALF = Fraction(1, 2)


def i_pow(k: int) -> GaussRat:
    return (GaussRat(1), I, GaussRat(-1), -I)[k % 4]


def _h_at_one(c: HPoly) -> GaussRat:
    total = GaussRat()
    for v in c.terms.values():
        total = total + GaussRat.coerce(v)
    return total


def _swap_mask(mask: int, n: int):
    """Conjugation permutation on frame indices with its reordering sign."""
    imgs = []
    for i in range(2 * n):
        if mask >> i & 1:
            imgs.append((i + n) % (2 * n))
    sign = 1
    for a in range(len(imgs)):
        for b in range(a + 1, len(imgs)):
            if imgs[a] > imgs[b]:
                sign = -sign
    out = 0
    for i in imgs:
        out |= 1 << i
    return out, sign


class BigradedForm:
    """A form over the complex frame with bidegree bookkeeping."""

    __slots__ = ("n", "form")

    def __init__(self, n: int, form: QForm):
        if form.dim != 2 * n:
            raise ValueError("frame dimension mismatch")
        self.n = n
        self.form = form

    @classmethod
    def zero(cls, n: int) -> "BigradedForm":
        return cls(n, QForm(2 * n))

    @classmethod
    def monomial(cls, n: int, mask: int, coeff=1, h_exp: int = 0
                 ) -> "BigradedForm":
        c = HPoly({h_exp: coeff}, laurent=h_exp < 0)
        return cls(n, QForm(2 * n, {mask: c}, laurent=h_exp < 0))

    def _blade_bidegree(self, mask: int):
        holo = mask & ((1 << self.n) - 1)
        return blade_degree(holo), blade_degree(mask >> self.n)

    def components(self):
        """Pure-(p, q) parts; the deformation exponent adds (1, 1)."""
        out = {}
        for mask, c in self.form.terms.items():
            p0, q0 = self._blade_bidegree(mask)
            for e, v in c.terms.items():
                # each h power of one blade lands in its own (p, q)
                out.setdefault((p0 + e, q0 + e), {})[mask] = \
                    HPoly._make({e: v}, True)
        return {key: BigradedForm(self.n, QForm._make(terms, 2 * self.n,
                                                      True))
                for key, terms in sorted(out.items())}

    def bidegree(self):
        """The (p, q) of a pure form, None when mixed or zero."""
        parts = self.components()
        if len(parts) == 1:
            return next(iter(parts))
        return None

    def conj(self) -> "BigradedForm":
        out = {}
        for mask, c in self.form.terms.items():
            # the swap permutes the blades, so no two terms meet
            mask2, sign = _swap_mask(mask, self.n)
            out[mask2] = c.conj() * sign
        return BigradedForm(self.n, self.form._like(out))

    def is_zero(self) -> bool:
        return not self.form.terms

    def __add__(self, other: "BigradedForm") -> "BigradedForm":
        return BigradedForm(self.n, self.form + other.form)

    def __sub__(self, other: "BigradedForm") -> "BigradedForm":
        return BigradedForm(self.n, self.form - other.form)

    def __mul__(self, scalar) -> "BigradedForm":
        return BigradedForm(self.n, self.form * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, BigradedForm):
            return self.n == other.n and self.form == other.form
        return self.form == other

    def __hash__(self):
        return hash((self.n, tuple(sorted(
            (m, tuple(sorted(c.terms.items())))
            for m, c in self.form.terms.items()))))

    def blade_str(self, mask: int) -> str:
        parts = []
        for i in range(2 * self.n):
            if mask >> i & 1:
                parts.append(f"f{i + 1}" if i < self.n
                             else f"fb{i + 1 - self.n}")
        return "^".join(parts) if parts else "1"

    def __str__(self):
        if not self.form.terms:
            return "0"
        bits = []
        for mask in sorted(self.form.terms,
                           key=lambda m: (blade_degree(m), m)):
            c = self.form.terms[mask]
            coeff = f"({c})"
            bits.append(coeff if mask == 0
                        else f"{coeff}*{self.blade_str(mask)}")
        return " + ".join(bits)

    __repr__ = __str__

    def serialize(self) -> dict:
        out = {}
        for mask, c in self.form.terms.items():
            out[self.blade_str(mask)] = {
                str(e): str(v) for e, v in sorted(c.terms.items())}
        return out


class Frame:
    """Holomorphic covector frame over a compatible pair (omega, J).

    The input basis must be g-orthonormal and interleaved as
    {b_1, J b_1, ..., b_n, J b_n}; the constructor verifies this, the
    compatibility of J with omega, positivity of g, and the frozen
    pairing values of the frame covectors.
    """

    def __init__(self, omega: SymplecticForm, J=None, basis=None):
        dim = omega.dim
        self.n = omega.n
        self.omega = omega
        J = standard_J(dim) if J is None else \
            [[as_fraction(x) for x in row] for row in J]
        self.J = J
        ident = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
        if mat_mul(J, J) != [[-x for x in row] for row in ident]:
            raise ValueError("J does not square to minus the identity")
        Om = omega.matrix
        if mat_mul(transpose(J), mat_mul(Om, J)) != Om:
            raise ValueError("J is not compatible with the symplectic form")
        G = mat_mul(Om, J)
        if G != transpose(G):
            raise ValueError("the induced metric is not symmetric")
        for k in range(1, dim + 1):
            if bareiss_det([row[:k] for row in G[:k]]) <= 0:
                raise ValueError("the induced metric is not positive")
        if basis is None:
            basis = [[Fraction(i == j) for i in range(dim)]
                     for j in range(dim)]
        else:
            basis = [[as_fraction(x) for x in col] for col in basis]
        if len(basis) != dim:
            raise ValueError("basis must have one vector per dimension")
        for a in range(self.n):
            if _mat_vec(J, basis[2 * a]) != basis[2 * a + 1]:
                raise ValueError(
                    f"basis vector {2 * a + 2} is not J of vector "
                    f"{2 * a + 1}")
        for i in range(dim):
            for j in range(dim):
                gij = _dot(basis[i], _mat_vec(G, basis[j]))
                if gij != Fraction(i == j):
                    raise ValueError("basis is not orthonormal for the "
                                     "induced metric")
        B = transpose(basis)          # columns are the basis vectors
        invB = mat_inv(B)
        self._to_cx = self._covector_split(B)
        self._from_cx = self._frame_covectors(invB)
        self._wstd = bivector_of(omega)
        self._wcx_std = None
        self._verify_pairings(basis)

    def wcx(self) -> Bivector:
        """The symplectic bivector on the frame covectors, cached so the
        product kernel's pair memo stays warm across calls."""
        if self._wcx_std is None:
            self._wcx_std = self.pairing_cx(self._wstd)
        return self._wcx_std

    # e^i = sum_j B[i][j] kappa^j with kappa^{2a-1}, kappa^{2a} combining
    # into the holomorphic frame and its conjugate
    def _covector_split(self, B):
        return [self._covector_row(B, i) for i in range(2 * self.n)]

    def _covector_row(self, B, i):
        n = self.n
        row = [GaussRat() for _ in range(2 * n)]
        for a in range(n):
            c_odd = GaussRat.coerce(B[i][2 * a]) * _HALF
            c_even = GaussRat.coerce(B[i][2 * a + 1]) * _HALF
            row[a] = row[a] + c_odd - I * c_even
            row[n + a] = row[n + a] + c_odd + I * c_even
        return row

    # f^a = kappa^{2a-1} + i kappa^{2a} expressed in coordinate covectors
    def _frame_covectors(self, invB):
        n, dim = self.n, 2 * self.n
        out = []
        for a in range(n):
            out.append([GaussRat.coerce(invB[2 * a][i]) +
                        I * GaussRat.coerce(invB[2 * a + 1][i])
                        for i in range(dim)])
        for a in range(n):
            out.append([GaussRat.coerce(invB[2 * a][i]) -
                        I * GaussRat.coerce(invB[2 * a + 1][i])
                        for i in range(dim)])
        return out

    def _verify_pairings(self, basis):
        n = self.n
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
                        m = self.omega.matrix[i][j]
                        if m:
                            val = val + fvecs[a][i] * fvecs[b][j] * m
                holo_a, holo_b = a < n, b < n
                if holo_a and not holo_b:
                    want = half_i if b - n == a else GaussRat()
                elif holo_b and not holo_a:
                    want = -half_i if a - n == b else GaussRat()
                else:
                    want = GaussRat()
                if val != want:
                    raise ValueError("frame pairing values are off: "
                                     f"omega(f_{a + 1}, f_{b + 1}) = {val}")
        wcx = self.pairing_cx(bivector_of(self.omega))
        for i, j, c in wcx.upper_entries():
            want = two_i if (i < n + 1 <= j and j - i == n) else GaussRat()
            if c != want:
                raise ValueError("frame bivector values are off: "
                                 f"w({i}, {j}) = {c}")

    def pairing_cx(self, w: Bivector) -> Bivector:
        """The bivector's components on the frame covectors."""
        n = self.n
        entries = {}
        wm = [[GaussRat() for _ in range(2 * n)] for _ in range(2 * n)]
        for i, j, c in w.ordered_entries():
            wm[i - 1][j - 1] = GaussRat.coerce(c)
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                val = GaussRat()
                for i in range(2 * n):
                    fa = self._from_cx[a][i]
                    if not fa:
                        continue
                    for j in range(2 * n):
                        if wm[i][j]:
                            val = val + fa * self._from_cx[b][j] * wm[i][j]
                if val:
                    entries[(a + 1, b + 1)] = val
        return Bivector(2 * n, entries)

    def check_invariance(self, w: Bivector):
        """The complex structure must preserve the bivector."""
        n = self.n
        wm = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i, j, c in w.ordered_entries():
            wm[i - 1][j - 1] = as_fraction(c)
        jm = self.J
        jw = mat_mul(jm, mat_mul(wm, transpose(jm)))
        if jw != wm:
            raise ValueError("bivector is not preserved by J")

    def _expand(self, terms, rows):
        """terms with each frame covector i rewritten as the combination
        rows[i] of the other frame's covectors."""
        out = {}
        for mask, c in terms.items():
            expanded = {0: HPoly(1)}
            i = 0
            rest = mask
            while rest:
                if rest & 1:
                    nxt = {}
                    for m2, c2 in expanded.items():
                        for idx, cf in enumerate(rows[i]):
                            if not cf:
                                continue
                            sign, m3 = wedge_masks(m2, 1 << idx)
                            if not sign:
                                continue
                            add_term(nxt, m3, c2 * (cf * sign))
                    expanded = nxt
                rest >>= 1
                i += 1
            for m2, c2 in expanded.items():
                add_term(out, m2, c2 * c)
        return out

    def complexify(self, form: QForm) -> BigradedForm:
        out = self._expand(form.terms, self._to_cx)
        return BigradedForm(self.n, QForm._make(out, 2 * self.n, form.laurent))

    def realify(self, bform: BigradedForm) -> QForm:
        """Expand the frame covectors back out; coefficients must be real."""
        out = self._expand(bform.form.terms, self._from_cx)
        real_terms = {}
        for mask, c in out.items():
            clean = {}
            for e, v in c.terms.items():
                g = GaussRat.coerce(v)
                if not g.is_real():
                    raise ValueError("form does not descend to the real "
                                     f"frame: coefficient {g}")
                clean[e] = g.re
            real_terms[mask] = HPoly._make(clean, c.laurent)
        return bform.form._like(real_terms)


def _mat_vec(m, v):
    return [_dot(row, v) for row in m]


def _dot(u, v):
    total = None
    for x, y in zip(u, v):
        term = x * y
        total = term if total is None else total + term
    return total


_STD_FRAMES = {}


def standard_frame(n: int) -> Frame:
    if n not in _STD_FRAMES:
        _STD_FRAMES[n] = Frame(SymplecticForm(2 * n))
    return _STD_FRAMES[n]


def holomorphic_frame(omega: SymplecticForm, J=None, basis=None) -> Frame:
    return Frame(omega, J, basis)


def complexify(form: QForm, frame: Frame) -> BigradedForm:
    return frame.complexify(form)


def bidegree_components(bform: BigradedForm):
    return bform.components()


def quantum_wedge_cx(a: BigradedForm, b: BigradedForm, w: Bivector,
                     frame: Frame = None) -> BigradedForm:
    if a.n != b.n:
        raise ValueError("frame dimension mismatch")
    frame = standard_frame(a.n) if frame is None else frame
    # the frame's own bivector is J-invariant by construction
    if w == frame._wstd:
        wcx = frame.wcx()
    else:
        frame.check_invariance(w)
        wcx = frame.pairing_cx(w)
    return BigradedForm(a.n, quantum_wedge(a.form, b.form, wcx))


def hermitian_prefactor(p: int, q: int, variant: str = "derived") -> GaussRat:
    """Sign prefactor of the pairing.

    The printed exponent p + (p+q)(p+q-1)/2 makes half the frame
    monomials negative-norm; multiplying by (-1)^q, i.e. using
    (p+q)(p+q+1)/2, restores positivity and is the variant used here.
    """
    base = i_pow(p - q)
    if variant == "derived":
        return base * ((-1) ** (((p + q) * (p + q + 1) // 2) % 2))
    if variant == "printed":
        return base * ((-1) ** ((p + ((p + q) * (p + q - 1)) // 2) % 2))
    raise ValueError(f"unknown prefactor variant {variant!r}")


def hermitian_pairing(a: BigradedForm, b: BigradedForm,
                      omega: SymplecticForm = None, J=None,
                      variant: str = "derived") -> GaussRat:
    """Contract the product at parameter one and apply the prefactor of
    the first argument's bidegree.  Antilinear in the second argument."""
    if a.is_zero() or b.is_zero():
        return GaussRat()
    deg = a.bidegree()
    if deg is None:
        raise ValueError("first pairing argument has mixed bidegree")
    frame = standard_frame(a.n) if omega is None and J is None else \
        Frame(omega if omega is not None else SymplecticForm(2 * a.n), J)
    prod = quantum_wedge(a.form, b.conj().form, frame.wcx())
    scalar = _h_at_one(prod.coeff(0))
    return hermitian_prefactor(*deg, variant=variant) * scalar


def hermitian_gram(n: int, variant: str = "derived"):
    """Pairing values on all frame monomials: {(mask_a, mask_b): value}."""
    out = {}
    for ma in range(1 << (2 * n)):
        a = BigradedForm.monomial(n, ma)
        for mb in range(1 << (2 * n)):
            val = hermitian_pairing(a, BigradedForm.monomial(n, mb),
                                    variant=variant)
            if val:
                out[(ma, mb)] = val
    return out


def raw_pairing(a: BigradedForm, b: BigradedForm,
                frame: Frame = None) -> GaussRat:
    """The pairing without its sign prefactor: the scalar part of the
    product with the conjugate at parameter one."""
    frame = standard_frame(a.n) if frame is None else frame
    prod = quantum_wedge(a.form, b.conj().form, frame.wcx())
    return _h_at_one(prod.coeff(0))


def adjoint_check(a: BigradedForm, b: BigradedForm, g: BigradedForm) -> dict:
    """All readings of the adjoint property for one triple.

    The raw pairing moves the middle factor across exactly, picking up
    a conjugation.  The prefactored pairing then differs by the ratio
    of the prefactors of the two first arguments, so the plain
    prefactored statement only survives where that ratio is one.
    """
    n = a.n
    w = bivector_of(SymplecticForm(2 * n))
    ab = quantum_wedge_cx(a, b, w)
    bg = quantum_wedge_cx(b, g, w)
    bbar_g = quantum_wedge_cx(b.conj(), g, w)
    lhs = hermitian_pairing(ab, g) if not ab.is_zero() else GaussRat()
    rhs_printed = hermitian_pairing(a, bg)
    rhs_conj = hermitian_pairing(a, bbar_g)
    raw_lhs = raw_pairing(ab, g)
    raw_rhs = raw_pairing(a, bbar_g)
    da, db = a.bidegree(), b.bidegree()
    factor = None
    if da is not None and db is not None:
        factor = hermitian_prefactor(da[0] + db[0], da[1] + db[1]) / \
            hermitian_prefactor(*da)
    return {
        "lhs": lhs,
        "printed": rhs_printed,
        "conjugated": rhs_conj,
        "printed_holds": lhs == rhs_printed,
        "conjugated_holds": lhs == rhs_conj,
        "raw_holds": raw_lhs == raw_rhs,
        "factor": factor,
        "factor_holds": factor is None or lhs == factor * rhs_conj,
        "sector": b.bidegree(),
    }


def derive_adjoint_law(n: int, variant: str = "derived") -> dict:
    """Exhaustive adjoint scan over frame monomial triples.

    Asserts the derived law: the raw pairing satisfies
    raw(a wedge_w b, g) = raw(a, conj(b) wedge_w g) exactly, so the
    prefactored pairing obeys the same relation up to the prefactor
    ratio of the two first arguments.  On sectors where the middle
    factor has equal holomorphic and antiholomorphic degree s that
    ratio collapses to a constant: (-1)^s for the positive prefactor,
    one for the printed prefactor.  Returns the verdicts and the
    diagonal factor table.
    """
    w = bivector_of(SymplecticForm(2 * n))
    printed_all = True
    conjugated_all = True
    diagonal = {}
    masks = list(range(1 << (2 * n)))
    forms = [BigradedForm.monomial(n, m) for m in masks]
    for b in forms:
        s, t = b.bidegree()
        bbar = b.conj()
        middles = [(g, quantum_wedge_cx(b, g, w), quantum_wedge_cx(bbar, g, w))
                   for g in forms]
        for a in forms:
            ab = quantum_wedge_cx(a, b, w)
            p, q = a.bidegree()
            pref_ab = hermitian_prefactor(p + s, q + t, variant)
            pref_a = hermitian_prefactor(p, q, variant)
            factor = pref_ab / pref_a
            for g, bg, bbar_g in middles:
                raw_lhs = raw_pairing(ab, g)
                raw_rhs = raw_pairing(a, bbar_g)
                if raw_lhs != raw_rhs:
                    raise AssertionError(
                        "raw adjoint law fails at masks "
                        f"{a.form.terms}, {b.form.terms}, {g.form.terms}: "
                        f"{raw_lhs} vs {raw_rhs}")
                lhs = pref_ab * raw_lhs
                rhs_c = pref_a * raw_rhs
                rhs_p = pref_a * raw_pairing(a, bg)
                printed_all = printed_all and lhs == rhs_p
                conjugated_all = conjugated_all and lhs == rhs_c
                if lhs != factor * rhs_c:
                    raise AssertionError(
                        f"prefactor ratio law fails in sector {(s, t)}")
                if s == t and rhs_c:
                    prev = diagonal.get(s)
                    ratio = lhs / rhs_c
                    if prev is None:
                        diagonal[s] = ratio
                    elif prev != ratio:
                        raise AssertionError(
                            "diagonal-sector factor varies at s = "
                            f"{s}: {prev} vs {ratio}")
    return {
        "raw_all": True,
        "printed_all": printed_all,
        "conjugated_all": conjugated_all,
        "diagonal_factors": diagonal,
        "variant": variant,
    }
