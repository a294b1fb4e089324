"""Quantum curvature on flat models: matrix-valued forms, the quantum
covariant derivative, gauge covariance, the Bianchi identity, and closed
characteristic forms.

The covariant derivative pairs d - h*delta with the quantum product at
the reflected deformation parameter.  Under the contraction orientation
fixed in this package the operator is a graded derivation of exactly
that product, and every identity below (curvature as the square of the
derivative, gauge conjugation, Bianchi, closed traces) is an algebraic
consequence of the derivation property, so the pairing is forced: with
the same-sign product the square of the derivative fails to act by any
single matrix.  Functions carry no frame indices, so multiplication by
function matrices (gauge transformations) is the same in both products.
"""

from fractions import Fraction
from math import factorial

from .blades import blade_degree
from .fields import (
    FieldForm,
    PoissonField,
    exterior_d,
    quantum_d,
    quantum_wedge_field,
    wedge_field,
)


def mirror_pairing(w: PoissonField) -> PoissonField:
    """-w, built once per field and cached on it."""
    if w._mirror is None:
        w._mirror = PoissonField(w.dim, {(i, j): -c
                                         for i, j, c in w.upper_entries()})
    return w._mirror


def bundle_wedge(a: FieldForm, b: FieldForm, w: PoissonField) -> FieldForm:
    """The module product differentiated by d - h*delta: the quantum
    product taken at the reflected parameter."""
    return quantum_wedge_field(a, b, mirror_pairing(w))


class MatrixForm:
    """A square array of forms over one model."""

    __slots__ = ("rank", "dim", "fnring", "entries")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        self.rank = len(rows)
        if any(len(row) != self.rank for row in rows):
            raise ValueError("matrix of forms must be square")
        first = rows[0][0]
        self.dim = first.dim
        self.fnring = first.fnring
        for row in rows:
            for e in row:
                if e.dim != self.dim or e.fnring is not self.fnring:
                    raise ValueError("matrix entries live on different "
                                     "models")
        self.entries = rows

    @classmethod
    def zero(cls, rank: int, model) -> "MatrixForm":
        return cls([[model.zero_form() for _ in range(rank)]
                    for _ in range(rank)])

    @classmethod
    def identity(cls, rank: int, model) -> "MatrixForm":
        rows = []
        for i in range(rank):
            rows.append([FieldForm.from_fn(model.constant(int(i == j)))
                         for j in range(rank)])
        return cls(rows)

    def map(self, fn) -> "MatrixForm":
        return MatrixForm([[fn(e) for e in row] for row in self.entries])

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._match(other)
        return MatrixForm([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        self._match(other)
        return MatrixForm([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def _match(self, other):
        if not isinstance(other, MatrixForm):
            raise TypeError("expected a matrix of forms")
        if self.rank != other.rank or self.dim != other.dim:
            raise ValueError("rank or dimension mismatch")

    def matmul(self, other: "MatrixForm", product) -> "MatrixForm":
        self._match(other)
        rows = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                acc = None
                for k in range(self.rank):
                    term = product(self.entries[i][k], other.entries[k][j])
                    acc = term if acc is None else acc + term
                row.append(acc)
            rows.append(row)
        return MatrixForm(rows)

    def qmul(self, other: "MatrixForm", w: PoissonField) -> "MatrixForm":
        return self.matmul(other, lambda a, b: bundle_wedge(a, b, w))

    def trace(self) -> FieldForm:
        acc = self.entries[0][0]
        for i in range(1, self.rank):
            acc = acc + self.entries[i][i]
        return acc

    def is_one_form(self) -> bool:
        for row in self.entries:
            for e in row:
                for (h, mask) in e.terms:
                    if h != 0 or blade_degree(mask) != 1:
                        return False
        return True

    def __eq__(self, other):
        return (isinstance(other, MatrixForm) and self.rank == other.rank
                and self.entries == other.entries)


def _fn_det(entries):
    if len(entries) == 1:
        return entries[0][0]
    acc = None
    for j in range(len(entries)):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * _fn_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class GaugeTransform:
    """An invertible matrix of functions with its exact inverse.

    Entries must have a nonzero constant determinant so the inverse
    stays inside the same function ring (unipotent matrices are the
    main case); the product with the inverse is verified entrywise.
    """

    __slots__ = ("rank", "dim", "fnring", "entries", "inverse")

    def __init__(self, model, entries):
        rows = [[self._lift(model, e) for e in row] for row in entries]
        self.rank = len(rows)
        if any(len(row) != self.rank for row in rows):
            raise ValueError("gauge matrix must be square")
        self.dim = model.dim
        self.fnring = model.fnring
        det = _fn_det(rows)
        if not det.is_constant() or det.is_zero():
            raise ValueError("gauge determinant must be a nonzero constant")
        scale = Fraction(1) / det.constant_coeff()
        inv = []
        for i in range(self.rank):
            inv.append([])
            for j in range(self.rank):
                minor = [row[:i] + row[i + 1:]
                         for k, row in enumerate(rows) if k != j]
                cof = _fn_det(minor) if minor else model.constant(1)
                if (i + j) % 2:
                    cof = -cof
                inv[i].append(cof * scale)
        self.entries = rows
        self.inverse = inv
        for i in range(self.rank):
            for j in range(self.rank):
                acc = None
                for k in range(self.rank):
                    term = rows[i][k] * inv[k][j]
                    acc = term if acc is None else acc + term
                if acc != model.constant(int(i == j)):
                    raise ValueError("gauge inverse does not multiply to "
                                     "the identity")

    @staticmethod
    def _lift(model, e):
        if isinstance(e, (int, Fraction, str)):
            return model.constant(e)
        return e

    def matrix(self) -> MatrixForm:
        return MatrixForm([[FieldForm.from_fn(e) for e in row]
                           for row in self.entries])

    def inverse_matrix(self) -> MatrixForm:
        return MatrixForm([[FieldForm.from_fn(e) for e in row]
                           for row in self.inverse])

    def d(self) -> MatrixForm:
        """Entrywise exterior derivative of the gauge matrix."""
        return self.matrix().map(exterior_d)

    def conjugate(self, m: MatrixForm) -> MatrixForm:
        """G^{-1} m G with pointwise function products."""
        left = self.inverse_matrix().matmul(m, wedge_field)
        return left.matmul(self.matrix(), wedge_field)


def _require_connection(theta: MatrixForm):
    if not theta.is_one_form():
        raise ValueError("connection matrix entries must be 1-forms")


def covariant_d(phi: MatrixForm, theta: MatrixForm,
                w: PoissonField) -> MatrixForm:
    """theta qmul phi plus the entrywise quantum differential."""
    _require_connection(theta)
    theta._match(phi)
    return theta.qmul(phi, w) + phi.map(lambda e: quantum_d(e, w))


def quantum_curvature(theta: MatrixForm, w: PoissonField) -> MatrixForm:
    _require_connection(theta)
    return theta.map(lambda e: quantum_d(e, w)) + theta.qmul(theta, w)


def gauge_transform(theta: MatrixForm, g: GaugeTransform) -> MatrixForm:
    """G^{-1} theta G + G^{-1} dG."""
    _require_connection(theta)
    if theta.rank != g.rank or theta.dim != g.dim:
        raise ValueError("rank or dimension mismatch")
    return g.conjugate(theta) + \
        g.inverse_matrix().matmul(g.d(), wedge_field)


def curvature_gauge_check(theta: MatrixForm, g: GaugeTransform,
                          w: PoissonField, curvature: MatrixForm) -> dict:
    """Asserts that the curvature of the transformed connection is the
    conjugated curvature. The caller supplies theta's curvature, as
    bianchi_check returns it."""
    prime = gauge_transform(theta, g)
    lhs = quantum_curvature(prime, w)
    rhs = g.conjugate(curvature)
    if lhs != rhs:
        raise AssertionError("curvature does not conjugate under the gauge "
                             "transformation")
    return {"theta_prime": prime, "curvature": lhs, "ok": True}


def form_bracket(a: MatrixForm, b: MatrixForm, w: PoissonField) -> MatrixForm:
    """[a qmul b]_{ij} = sum_k a_{ik} b_{kj} - b_{ik} a_{kj}."""
    return a.qmul(b, w) - b.qmul(a, w)


def bianchi_check(theta: MatrixForm, w: PoissonField) -> dict:
    """Asserts d_h Theta = [Theta qmul theta]."""
    curv = quantum_curvature(theta, w)
    lhs = curv.map(lambda e: quantum_d(e, w))
    rhs = form_bracket(curv, theta, w)
    if lhs != rhs:
        raise AssertionError("differentiated curvature does not equal the "
                             "bracket with the connection")
    return {"curvature": curv, "d_curvature": lhs, "ok": True}


CHAR_POLYNOMIALS = ("trace", "trace-of-quantum-square", "second-elementary")


def char_form(curv: MatrixForm, p: str, w: PoissonField) -> FieldForm:
    """Invariant polynomial of the curvature, asserted closed."""
    if p == "trace":
        out = curv.trace()
    elif p == "trace-of-quantum-square":
        out = curv.qmul(curv, w).trace()
    elif p == "second-elementary":
        tr = curv.trace()
        sq = curv.qmul(curv, w).trace()
        out = (bundle_wedge(tr, tr, w) - sq) * Fraction(1, 2)
    else:
        raise ValueError(f"unknown invariant polynomial {p!r}; "
                         f"choose from {CHAR_POLYNOMIALS}")
    if not quantum_d(out, w).is_zero():
        raise AssertionError(f"characteristic form {p} is not closed")
    return out


def chern_character(theta: MatrixForm, w: PoissonField, trunc: int):
    """Exponential series of the line-bundle curvature, truncated.

    The normalization carries one formal unit of sqrt(-1)/(2*pi) per
    series order; the returned form is the bare series and the unit
    bookkeeping stays symbolic.
    """
    if theta.rank != 1:
        raise ValueError("the character series is computed for rank one "
                         "only")
    curv = quantum_curvature(theta, w).entries[0][0]
    term = FieldForm.from_fn(theta.fnring.constant(theta.dim, 1))
    total = term
    for k in range(1, trunc + 1):
        term = bundle_wedge(term, curv, w)
        total = total + term * Fraction(1, factorial(k))
    return total
