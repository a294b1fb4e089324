"""Symplectic linear algebra and the deformed Lefschetz operator family.

Conventions pinned here and used everywhere else:

  w = matrix inverse of the symplectic matrix (standard block gives
  w^{12} = -1); contraction by w inserts e_i then e_j into the first two
  slots and sums over i < j; the star operator solves b ^ *a =
  lambda(w)(b, a) v_w exactly and flips the sign of every h exponent;
  the deformed adjoint is L_h* = -(* L_h *).
"""

from __future__ import annotations

from fractions import Fraction

from .blades import blade_degree, indices_of_mask, masks_of_degree, \
    submasks_of_degree, wedge_masks
from .exterior import Bivector, QForm, insert_first, quantum_wedge, wedge
from .linalg import det_field, mat_inv, solve
from .scalars import HPoly, add_term, as_fraction


class SymplecticForm:
    """A nondegenerate antisymmetric matrix and its derived structures."""

    def __init__(self, dim: int, rows=None):
        if dim % 2:
            raise ValueError("symplectic form needs even dimension")
        self.dim = dim
        self.n = dim // 2
        if rows is None:
            rows = [[Fraction(0)] * dim for _ in range(dim)]
            for a in range(self.n):
                rows[2 * a][2 * a + 1] = Fraction(1)
                rows[2 * a + 1][2 * a] = Fraction(-1)
        else:
            rows = [[as_fraction(x) for x in row] for row in rows]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("matrix shape mismatch")
        for i in range(dim):
            for j in range(dim):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not antisymmetric")
        self.matrix = rows
        self._winv = mat_inv(rows)  # raises on singular input
        self._form = None
        self._bivector = None
        self._powers = None

    @property
    def form(self) -> QForm:
        """The plain form sum_{i<j} omega_ij e^i ^ e^j, built once."""
        if self._form is None:
            terms = {}
            for i in range(1, self.dim + 1):
                for j in range(i + 1, self.dim + 1):
                    c = self.matrix[i - 1][j - 1]
                    if c:
                        terms[(i, j)] = c
            self._form = QForm(self.dim, terms)
        return self._form

    @property
    def bivector(self) -> Bivector:
        if self._bivector is None:
            self._bivector = bivector_of(self)
        return self._bivector

    @property
    def powers(self) -> tuple:
        """The plain forms omega^k / k! for k = 0..n, worked out once."""
        if self._powers is None:
            form = self.form
            out = [QForm.constant(self.dim, 1)]
            for k in range(1, self.n + 1):
                out.append(wedge(out[-1], form) * Fraction(1, k))
            self._powers = tuple(out)
        return self._powers

    @property
    def volume(self) -> QForm:
        """The normalized volume form: n-th wedge power over n factorial."""
        return self.powers[-1]

    @property
    def volume_coeff(self) -> Fraction:
        top = (1 << self.dim) - 1
        return self.volume.coeff(top).constant_coeff()


def _coerce_symplectic(omega, dim=None) -> SymplecticForm:
    if isinstance(omega, SymplecticForm):
        return omega
    if omega is None:
        if dim is None:
            raise ValueError("no dimension to build a standard form from")
        return SymplecticForm(dim)
    return SymplecticForm(len(omega), omega)


def bivector_of(omega: SymplecticForm) -> Bivector:
    """The inverse-matrix pairing: w^{ij} ω_{jk} = δ^i_k."""
    return _upper_bivector(_coerce_symplectic(omega)._winv)


def _upper_bivector(wm) -> Bivector:
    """The bivector with the nonzero entries above the diagonal of wm."""
    return Bivector(len(wm), {(a + 1, b + 1): wm[a][b]
                              for a in range(len(wm))
                              for b in range(a + 1, len(wm)) if wm[a][b]})


def contract_bivector(w: Bivector, form: QForm) -> QForm:
    """Insert the pairing into the first two slots: i < j, e_i then e_j."""
    if w.dim != form.dim:
        raise ValueError("dimension mismatch")
    out = QForm.zero(form.dim)
    for i, j, c in w.upper_entries():
        out = out + c * insert_first(j, insert_first(i, form))
    return out


def lambda_pairing(w: Bivector, amask: int, bmask: int) -> Fraction:
    """The degree-k extension of the pairing: det [w(a_u, b_v)]."""
    ai = indices_of_mask(amask)
    bi = indices_of_mask(bmask)
    if len(ai) != len(bi):
        raise ValueError("pairing needs equal degrees")
    if not ai:
        return Fraction(1)
    rows = [[w.entry(a, b) for b in bi] for a in ai]
    return det_field(rows)


def symplectic_star(form: QForm, omega=None) -> QForm:
    """The star solving b ^ *a = lambda(w)(b, a) v_w, with *h = h^{-1}.

    The minor lambda(w)(a, m) of a blade m is taken only for the blades
    a inside m's row support (Bivector.row_support): any other a holds
    a row i with w^{ij} = 0 for every j in m, a zero row of the minor.
    The blades a run in ascending mask order, as over every blade of
    the degree, so the terms come in the same order."""
    omega = _coerce_symplectic(omega, form.dim)
    w = omega.bivector
    vol = omega.volume_coeff
    top = (1 << omega.dim) - 1
    out = {}
    for m, c in form.terms.items():
        flipped = HPoly._make({-e: q for e, q in c.terms.items()})
        k = blade_degree(m)
        for amask in submasks_of_degree(w.row_support(m), k):
            val = lambda_pairing(w, amask, m)
            if not val:
                continue
            cm = (top ^ amask)
            s, _ = wedge_masks(amask, cm)
            add_term(out, cm, flipped * (val * vol / s))
    return QForm._make(out, form.dim)


def apply_L(form: QForm, omega=None) -> QForm:
    omega = _coerce_symplectic(omega, form.dim)
    return wedge(omega.form, form)


def _require_homogeneous(form: QForm) -> int:
    degs = form.blade_degrees()
    if len(degs) > 1:
        raise ValueError("operator needs a blade-homogeneous form")
    return degs[0] if degs else 0


def apply_K(form: QForm, omega=None) -> QForm:
    """Degree counting operator, realized as sum of e^j ^ (e_j insertion)."""
    _require_homogeneous(form)
    out = QForm.zero(form.dim)
    for j in range(1, form.dim + 1):
        out = out + wedge(QForm.one_form(form.dim, j),
                          insert_first(j, form))
    return out


def apply_Lstar(form: QForm, omega=None) -> QForm:
    omega = _coerce_symplectic(omega, form.dim)
    return contract_bivector(omega.bivector, form)


def apply_A(form: QForm, omega=None) -> QForm:
    omega = _coerce_symplectic(omega, form.dim)
    k = _require_homogeneous(form)
    return form * (omega.n - k)


def apply_Lh(form: QForm, omega=None) -> QForm:
    omega = _coerce_symplectic(omega, form.dim)
    return quantum_wedge(omega.form, form, omega.bivector)


def apply_Lhstar(form: QForm, omega=None) -> QForm:
    omega = _coerce_symplectic(omega, form.dim)
    return -symplectic_star(apply_Lh(symplectic_star(form, omega), omega),
                            omega)


def apply_Ah(form: QForm, omega=None) -> QForm:
    """Counting operator on total degree: (n - deg - 2j) per h^j blade."""
    omega = _coerce_symplectic(omega, form.dim)
    out = {}
    for m, c in form.terms.items():
        k = blade_degree(m)
        acc = HPoly()
        for e, q in c.terms.items():
            acc = acc + HPoly({e: q * (omega.n - k - 2 * e)})
        if acc:
            out[m] = acc
    return QForm(form.dim, out)


def _fit(n: int, target, terms, what: str):
    """Constants c with target = sum_i c_i terms[i] on the blade basis.

    Each operator is called as op(form, omega) on every basis blade of
    dimension 2n; every (mask, h exponent) coefficient of the images is
    one linear equation. Raises if no constant solution fits.
    """
    omega = SymplecticForm(2 * n)
    cols = [[] for _ in terms]
    rhs = []
    for mask in range(1 << omega.dim):
        base = QForm(omega.dim, {mask: 1})
        lhs = target(base, omega)
        parts = [op(base, omega) for op in terms]
        keys = set()
        for f in (lhs, *parts):
            for m, c in f.terms.items():
                keys.update((m, e) for e in c.terms)
        for m, e in sorted(keys):
            for col, f in zip(cols, parts):
                col.append(f.coeff(m).coeff(e))
            rhs.append(lhs.coeff(m).coeff(e))
    sol = solve(cols, rhs)
    if sol is None:
        raise AssertionError(f"no {what} exists")
    return tuple(sol)


def decomposition_report(n: int):
    """Constants (c0, c1, c2) with L_h = c0 L + c1 h K + c2 h^2 (w-insertion).

    Solved over the full blade basis; raises if no constant solution fits.
    """
    return _fit(n, apply_Lh, (
        apply_L,
        lambda f, om: apply_K(f, om).h_shift(1),
        lambda f, om: apply_Lstar(f, om).h_shift(2),
    ), "constant decomposition")


def relation_report(n: int):
    """Constants (a, b) with L_h* = a h^-2 L_h + b h^-1 Id on the basis."""
    return _fit(n, apply_Lhstar, (
        lambda f, om: apply_Lh(f, om).h_shift(-2),
        lambda f, om: f.h_shift(-1),
    ), "affine relation")


def graded_window_basis(n: int, m: int):
    """Basis of the total-degree-m window: (h-exp p, mask) with
    deg + 2p = m and 0 <= deg <= 2n; ordered by blade degree ascending,
    then blade indices lexicographically."""
    out = []
    for k in range(0, 2 * n + 1):
        if (m - k) % 2:
            continue
        p = (m - k) // 2
        for mask in masks_of_degree(2 * n, k):
            out.append((p, mask))
    out.sort(key=lambda t: (blade_degree(t[1]), indices_of_mask(t[1])))
    return out


def window_matrix(op, n: int, m_from: int, m_to: int):
    """Matrix of op mapping the degree-m_from window into degree-m_to."""
    dim = 2 * n
    dom = graded_window_basis(n, m_from)
    cod = graded_window_basis(n, m_to)
    index = {key: i for i, key in enumerate(cod)}
    cols = []
    for p, mask in dom:
        image = op(QForm(dim, {mask: HPoly({p: 1})}))
        col = [Fraction(0)] * len(cod)
        for mk, c in image.terms.items():
            for e, v in c.terms.items():
                key = (e, mk)
                if key not in index:
                    raise AssertionError("image leaves the target window")
                col[index[key]] = v
        cols.append(col)
    return [[cols[j][i] for j in range(len(dom))] for i in range(len(cod))]


def lefschetz_matrix(n: int, parity):
    """The rows of the matrix of h^-1 (deformed L) on the parity window,
    over graded_window_basis(n, parity); rational entries."""
    if isinstance(parity, str):
        parity = {"even": 0, "odd": 1}.get(parity)
    if type(parity) is not int or parity not in (0, 1):
        raise ValueError("parity must be 0/'even' or 1/'odd'")
    omega = SymplecticForm(2 * n)

    def op(form):
        return apply_Lh(form, omega).h_shift(-1)

    return window_matrix(op, n, parity, parity)
