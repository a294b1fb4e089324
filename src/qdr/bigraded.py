"""Complexified quantum algebra on the standard complex frame.

Real covectors pair into the holomorphic frame f^a = e^{2a-1} + i e^{2a}
(indices 1..n) and its conjugates (indices n+1..2n) of the standard
complex structure J(e_{2a-1}) = e_{2a}.  Frame is the one complex
structure of the package: its tables are one fixed change of basis, its
checks are products of exact matrices, and fields reads the Dolbeault
operator del off its covectors and vectors.  Forms over the frame carry
a bidegree in which the deformation parameter counts (1,1).
The Hermitian pairing contracts a product at parameter one and applies
an exact sign prefactor; the adjoint law relating it to the product is
derived from exhaustive evaluation rather than assumed.

The raw pairing (no prefactor) is sesquilinear and setting h = 1 is a
ring homomorphism, so its values on the frame monomials fix it: each n
has one sparse table {(mask_a, mask_b): GaussRat} of them, built on
first use, and every Hermitian function reads its forms at h = 1
against that table.

The sign prefactors are units fixed by bidegree, and only
hermitian_prefactor knows both conventions (the printed exponent and
the derived one every pairing uses).  The adjoint scan therefore checks
the raw law once per triple and reads every prefactored statement off
the bidegree sectors where the raw pairing is nonzero.
"""

from fractions import Fraction

from .blades import blade_degree
from .exterior import Bivector, QForm, quantum_wedge, substitute
from .linalg import mat_mul, transpose
from .scalars import GaussRat, HPoly, I, add_term
from .symplectic import SymplecticForm, bivector_of

_HALF = Fraction(1, 2)
# GaussRat values are never changed in place, so every sum and table
# starts from this one zero
_ZERO = GaussRat()


def i_pow(k: int) -> GaussRat:
    return (GaussRat(1), I, GaussRat(-1), -I)[k % 4]


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


def blade_bidegree(mask: int, n: int):
    """(p, q): the holomorphic and antiholomorphic factors of a frame blade."""
    return blade_degree(mask & ((1 << n) - 1)), blade_degree(mask >> n)


class BigradedForm:
    """A form over the complex frame with bidegree bookkeeping."""

    __slots__ = ("n", "form")

    def __init__(self, n: int, form: QForm):
        if form.dim != 2 * n:
            raise ValueError("frame dimension mismatch")
        self.n = n
        self.form = form

    @classmethod
    def monomial(cls, n: int, mask: int, coeff=1, h_exp: int = 0
                 ) -> "BigradedForm":
        return cls(n, QForm(2 * n, {mask: HPoly({h_exp: coeff})}))

    def components(self):
        """Pure-(p, q) parts; the deformation exponent adds (1, 1)."""
        out = {}
        for mask, c in self.form.terms.items():
            p0, q0 = blade_bidegree(mask, self.n)
            for e, v in c.terms.items():
                # each h power of one blade lands in its own (p, q)
                out.setdefault((p0 + e, q0 + e), {})[mask] = \
                    HPoly._make({e: v})
        return {key: BigradedForm(self.n, QForm._make(terms, 2 * self.n))
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


class Frame:
    """The standard holomorphic frame f^a = e^{2a-1} + i e^{2a} and its
    conjugates, whose tables are the fixed change of _frame_change; the
    constructor checks omega and its bivector on the frame against their
    frozen tables."""

    def __init__(self, omega: SymplecticForm):
        self.n = omega.n
        self.omega = omega
        self.J = standard_J(omega.dim)
        # row i of _to_cx is e^i on the frame covectors, row a of
        # _from_cx is f^a on the coordinate covectors; the columns of
        # _to_cx are the frame vectors dual to the f^a
        self._to_cx, self._from_cx = _frame_change(self.n)
        self._wstd = bivector_of(omega)
        self._wcx_std = self._verify_pairings()

    def wcx(self) -> Bivector:
        """The symplectic bivector on the frame covectors, checked
        against its frozen table once, when the frame is built."""
        return self._wcx_std

    def _verify_pairings(self) -> Bivector:
        """Check omega on the frame vectors and the bivector on the frame
        covectors against their frozen tables; return the bivector."""
        T = self._to_cx
        off = _first_off(mat_mul(transpose(T), mat_mul(self.omega.matrix, T)),
                         _conjugate_pairs(self.n, I * _HALF))
        if off:
            a, b, val = off
            raise ValueError("frame pairing values are off: "
                             f"omega(f_{a}, f_{b}) = {val}")
        wm = self._cx_matrix(self._wstd)
        off = _first_off(wm, _conjugate_pairs(self.n, I * 2))
        if off:
            i, j, c = off
            raise ValueError("frame bivector values are off: "
                             f"w({i}, {j}) = {c}")
        return _upper_bivector(wm)

    def _cx_matrix(self, w: Bivector):
        """F W F^T: the bivector's matrix on the frame covectors."""
        F = self._from_cx
        return mat_mul(F, mat_mul(_bivector_matrix(w), transpose(F)))

    def check_invariance(self, w: Bivector):
        """The complex structure must preserve the bivector."""
        wm = _bivector_matrix(w)
        if mat_mul(self.J, mat_mul(wm, transpose(self.J))) != wm:
            raise ValueError("bivector is not preserved by J")

    def complexify(self, form: QForm) -> BigradedForm:
        out = substitute(form.terms, self._to_cx)
        return BigradedForm(self.n, QForm._make(out, 2 * self.n))

    def realify(self, bform: BigradedForm) -> QForm:
        """Expand the frame covectors back out; coefficients must be real."""
        out = substitute(bform.form.terms, self._from_cx)
        real_terms = {}
        for mask, c in out.items():
            clean = {}
            for e, v in c.terms.items():
                g = GaussRat.coerce(v)
                if not g.is_real():
                    raise ValueError("form does not descend to the real "
                                     f"frame: coefficient {g}")
                clean[e] = g.re
            real_terms[mask] = HPoly._make(clean)
        return bform.form._like(real_terms)


def standard_J(dim: int):
    """Matrix of the standard complex structure J(e_{2a-1}) = e_{2a}."""
    if dim % 2:
        raise ValueError("complex structure needs even dimension")
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim // 2):
        rows[2 * a + 1][2 * a] = Fraction(1)
        rows[2 * a][2 * a + 1] = Fraction(-1)
    return rows


def _frame_change(n: int):
    """C and its inverse D on 2n covectors: kappa^j = sum_a C[j][a] f^a
    for the frame f^a = kappa^{2a-1} + i kappa^{2a} and its conjugate
    f^{n+a} = kappa^{2a-1} - i kappa^{2a}, which are the rows of D."""
    one, half = GaussRat(1), GaussRat(_HALF)
    C = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    D = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        D[a][2 * a], D[a][2 * a + 1] = one, I
        D[n + a][2 * a], D[n + a][2 * a + 1] = one, -I
        C[2 * a][a] = C[2 * a][n + a] = half
        C[2 * a + 1][a], C[2 * a + 1][n + a] = -I * _HALF, I * _HALF
    return C, D


def _bivector_matrix(w: Bivector):
    wm = [[Fraction(0)] * w.dim for _ in range(w.dim)]
    for i, j, c in w.ordered_entries():
        wm[i - 1][j - 1] = c
    return wm


def _upper_bivector(wm) -> Bivector:
    return Bivector(len(wm), {(a + 1, b + 1): wm[a][b]
                              for a in range(len(wm))
                              for b in range(a + 1, len(wm)) if wm[a][b]})


def _conjugate_pairs(n: int, val):
    """The 2n x 2n table with val at (a, n + a) and -val at (n + a, a)."""
    out = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        out[a][n + a], out[n + a][a] = val, -val
    return out


def _first_off(got, want):
    """(row, column, value), 1-based, of the first entry in row order
    where got differs from want; None when the tables agree."""
    for a, (got_row, want_row) in enumerate(zip(got, want)):
        for b, (g, w) in enumerate(zip(got_row, want_row)):
            if g != w:
                return a + 1, b + 1, g
    return None


_STD_FRAMES = {}
_RAW_GRAMS = {}


def standard_frame(n: int) -> Frame:
    if n not in _STD_FRAMES:
        _STD_FRAMES[n] = Frame(SymplecticForm(2 * n))
    return _STD_FRAMES[n]


def _raw_gram(n: int) -> dict:
    """The nonzero raw pairings of the frame monomials: the one place
    that expands a product to pair two forms."""
    gram = _RAW_GRAMS.get(n)
    if gram is None:
        wcx = standard_frame(n).wcx()
        monos = [BigradedForm.monomial(n, m) for m in range(1 << (2 * n))]
        conjs = [b.conj().form for b in monos]
        gram = {}
        for ma, a in enumerate(monos):
            for mb, bbar in enumerate(conjs):
                val = _at_one(quantum_wedge(a.form, bbar, wcx)).get(0)
                if val:
                    gram[(ma, mb)] = val
        _RAW_GRAMS[n] = gram
    return gram


def hermitian_prefactor(p: int, q: int, variant: str = "derived") -> GaussRat:
    """Sign prefactor of the pairing: the one place that knows both
    conventions.

    The printed exponent p + (p+q)(p+q-1)/2 makes half the frame
    monomials negative-norm; multiplying by (-1)^q, i.e. using
    (p+q)(p+q+1)/2, restores positivity and is the derived convention
    every pairing here uses.
    """
    base = i_pow(p - q)
    if variant == "derived":
        return base * ((-1) ** (((p + q) * (p + q + 1) // 2) % 2))
    if variant == "printed":
        return base * ((-1) ** ((p + ((p + q) * (p + q - 1)) // 2) % 2))
    raise ValueError(f"unknown prefactor variant {variant!r}")


def hermitian_pairing(a: BigradedForm, b: BigradedForm) -> GaussRat:
    """Contract the product at parameter one and apply the prefactor of
    the first argument's bidegree.  Antilinear in the second argument."""
    if a.is_zero() or b.is_zero():
        return _ZERO
    deg = a.bidegree()
    if deg is None:
        raise ValueError("first pairing argument has mixed bidegree")
    return hermitian_prefactor(*deg) * raw_pairing(a, b)


def hermitian_gram(n: int):
    """Pairing values on all frame monomials: {(mask_a, mask_b): value}."""
    return {(ma, mb): hermitian_prefactor(*blade_bidegree(ma, n)) * val
            for (ma, mb), val in _raw_gram(n).items()}


def raw_pairing(a: BigradedForm, b: BigradedForm) -> GaussRat:
    """The pairing without its sign prefactor: the scalar part of the
    product with the conjugate at parameter one, read off the monomial
    table."""
    if a.n != b.n:
        raise ValueError("frame dimension mismatch")
    return _pair_at_one(_at_one(a.form), _at_one(b.form), _raw_gram(a.n))


def _at_one(form: QForm) -> dict:
    """The form at parameter one: {mask: nonzero GaussRat}."""
    out = {}
    for mask, c in form.terms.items():
        for v in c.terms.values():
            add_term(out, mask, GaussRat.coerce(v))
    return out


def _pair_at_one(a1: dict, b1: dict, gram: dict) -> GaussRat:
    """The sum of a1[ma] conj(b1[mb]) G[ma, mb] over two forms at h = 1."""
    total = _ZERO
    for ma, ca in a1.items():
        for mb, cb in b1.items():
            g = gram.get((ma, mb))
            if g is not None:
                total = total + ca * cb.conj() * g
    return total


def derive_adjoint_law(n: int) -> dict:
    """Exhaustive adjoint scan over frame monomial triples.

    Asserts the raw law raw(a wedge_w b, g) = raw(a, conj(b) wedge_w g)
    on every triple, in the order b, a, g, and pairs through the
    monomial table; a failure raises AssertionError naming the first
    triple where it fails.  The scan takes each product of two frame
    monomials once, at parameter one, into a table it keeps for the
    call: a wedge b and b wedge g are entries, and conj(b) wedge g is
    the entry of the swapped monomial times its reordering sign.  The
    prefactors are units fixed by bidegree, so the prefactored pairing
    obeys the same law up to the ratio pref(p+s, q+t)/pref(p, q) for a
    of bidegree (p, q) and b of bidegree (s, t); every prefactored
    reading therefore follows from the live sectors (p, q, s, t), those
    of the triples where the raw pairing is nonzero.  Where s = t the
    ratio is constant in s: (-1)^s for the derived prefactor, one for
    the printed prefactor.
    Returns whether the printed statement holds and, for each
    convention, whether the conjugated law holds without a ratio and
    the diagonal factor table.  The printed statement, with b
    unconjugated, is read with the derived prefactor.
    """
    gram = _raw_gram(n)
    wcx = standard_frame(n).wcx()
    size = 1 << (2 * n)
    monos = [BigradedForm.monomial(n, m) for m in range(size)]
    forms = [x.form for x in monos]
    ones = [_at_one(f) for f in forms]
    degs = [blade_bidegree(m, n) for m in range(size)]
    # products[x][y]: monomial x wedge_w monomial y at parameter one
    products = [[_at_one(quantum_wedge(x, y, wcx)) for y in forms]
                for x in forms]
    live = set()
    printed_all = True
    for mb in range(size):
        s, t = degs[mb]
        swapped, sign = _swap_mask(mb, n)
        bbar = products[swapped]
        if sign < 0:
            bbar = [{m: -v for m, v in row.items()} for row in bbar]
        middles = [(mg, ones[mg], products[mb][mg], bbar[mg])
                   for mg in range(size)]
        for ma in range(size):
            p, q = degs[ma]
            a1 = ones[ma]
            ab = products[ma][mb]
            ratio = hermitian_prefactor(p + s, q + t) / \
                hermitian_prefactor(p, q)
            for mg, g1, bg, bbar_g in middles:
                raw = _pair_at_one(ab, g1, gram)
                raw_rhs = _pair_at_one(a1, bbar_g, gram)
                if raw != raw_rhs:
                    blade = monos[0].blade_str
                    raise AssertionError(
                        f"raw adjoint law fails at n = {n}, a = "
                        f"{blade(ma)}, b = {blade(mb)}, g = {blade(mg)}: "
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
                prev = diagonal.setdefault(s, ratio)
                if prev != ratio:
                    raise AssertionError(
                        f"{convention} diagonal-sector factor varies at "
                        f"s = {s}: {prev} vs {ratio}")
        law[convention] = {"conjugated_all": conjugated_all,
                           "diagonal_factors": diagonal}
    return law
