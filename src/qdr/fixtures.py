"""Named models: flat symplectic space, tori, and low-dimensional
Poisson structures used across the test and CLI surfaces."""

from fractions import Fraction

from .exterior import QForm
from .fields import FieldForm, PoissonField, lift
from .functions import FourierFn, PolyFn
from .symplectic import SymplecticForm, bivector_of


class Model:
    """A coefficient ring, a bivector field, and optional symplectic data."""

    __slots__ = ("name", "dim", "fnring", "poisson", "omega",
                 "torus_n", "torus_N")

    def __init__(self, name, dim, fnring, poisson, omega=None,
                 torus_n=None, torus_N=None):
        self.name = name
        self.dim = dim
        self.fnring = fnring
        self.poisson = poisson
        self.omega = omega
        self.torus_n = torus_n
        self.torus_N = torus_N

    def is_torus(self) -> bool:
        return self.torus_n is not None

    def constant(self, c):
        return self.fnring.constant(self.dim, c)

    def zero_form(self) -> FieldForm:
        return FieldForm.zero(self.dim, self.fnring)

    def lift(self, form: QForm) -> FieldForm:
        return lift(form, self.fnring)

    def omega_form(self) -> FieldForm:
        if self.omega is None:
            raise ValueError(f"model {self.name} has no symplectic form")
        return self.lift(self.omega.form)

    def __str__(self):
        return f"{self.name}(dim={self.dim})"

    __repr__ = __str__


def standard_symplectic(n: int) -> Model:
    """R^{2n} with the standard constant symplectic structure."""
    omega = SymplecticForm(2 * n)
    w = bivector_of(omega)
    poisson = PoissonField(2 * n, dict(
        ((i, j), c) for i, j, c in w.upper_entries()))
    return Model("flat", 2 * n, PolyFn, poisson, omega)


def torus(n: int, N: int = 2) -> Model:
    """2n-torus with the standard symplectic form; N bounds mode sup-norm."""
    if N < 0:
        raise ValueError("truncation bound must be nonnegative")
    omega = SymplecticForm(2 * n)
    w = bivector_of(omega)
    poisson = PoissonField(2 * n, dict(
        ((i, j), c) for i, j, c in w.upper_entries()))
    return Model("torus", 2 * n, FourierFn, poisson, omega,
                 torus_n=n, torus_N=N)


def lie_poisson_so3() -> Model:
    """Linear bivector of so(3)*: w^{12} = x^3 and cyclic."""
    x = [PolyFn.coord(3, j) for j in (1, 2, 3)]
    poisson = PoissonField(3, {(1, 2): x[2], (2, 3): x[0], (3, 1): x[1]})
    return Model("lie_poisson_so3", 3, PolyFn, poisson)


def heisenberg() -> Model:
    """Degenerate linear bivector: w^{12} = x^3 only."""
    poisson = PoissonField(3, {(1, 2): PolyFn.coord(3, 3)})
    return Model("heisenberg", 3, PolyFn, poisson)


def non_poisson_example() -> Model:
    """Fails Jacobi: w^{12} = 1, w^{13} = x^1 on R^3."""
    poisson = PoissonField(3, {(1, 2): Fraction(1),
                               (1, 3): PolyFn.coord(3, 1)})
    return Model("non_poisson", 3, PolyFn, poisson)

