"""The deformed even ring generated by the symplectic form.

Ground truth is always direct expansion in the flat Darboux model: the
structure constants of omega-powers under the quantum product are read
off from full blade expansions, and the printed recursion is checked
against that table rather than assumed.
"""

from fractions import Fraction
from itertools import islice
from math import factorial

from .exterior import Bivector, QForm, quantum_powers, quantum_wedge, wedge
from .scalars import HPoly
from .symplectic import SymplecticForm


def _block_mask(j: int) -> int:
    # e^1 ^ e^2 ^ ... ^ e^{2j}: the first j coordinate pair blocks
    return (1 << (2 * j)) - 1


class CPnRing:
    """Structure constants of the quantum products of omega powers.

    Each product of two basis powers is stored as its expansion over
    the basis {1, omega, ..., omega^n} with h-polynomial coefficients.
    """

    __slots__ = ("n", "omega", "powers", "table")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("the ring needs n >= 1")
        self.n = n
        self.omega = SymplecticForm(2 * n).form
        powers = [QForm.constant(2 * n, 1)]
        for _ in range(n):
            powers.append(wedge(powers[-1], self.omega))
        self.powers = powers
        w = Bivector.standard(2 * n)
        self.table = {}
        for k in range(n + 1):
            for l in range(n + 1):
                prod = quantum_wedge(powers[k], powers[l], w)
                self.table[(k, l)] = self._decompose(prod, k, l)
        self._verify_symmetry_and_layers()

    def _decompose(self, form: QForm, k: int, l: int):
        """Express a balanced form over the basis powers, exactly."""
        # omega^j carries j! on each j-block marker blade
        coeffs = []
        for j in range(self.n + 1):
            c = form.coeff(_block_mask(j)) / Fraction(factorial(j))
            coeffs.append(c)
        rebuilt = QForm.zero(2 * self.n)
        for j, c in enumerate(coeffs):
            rebuilt = rebuilt + self.powers[j] * c
        if rebuilt != form:
            raise AssertionError(
                f"product of powers {k} and {l} leaves the span of the "
                "basis powers")
        lo, hi = abs(k - l), k + l
        for j, c in enumerate(coeffs):
            if c and not lo <= j <= hi:
                raise AssertionError(
                    f"product of powers {k} and {l} has a coefficient at "
                    f"power {j}, outside {lo}..{hi}")
        return tuple(coeffs)

    def _verify_symmetry_and_layers(self):
        for k in range(self.n + 1):
            for l in range(k, self.n + 1):
                if self.table[(k, l)] != self.table[(l, k)]:
                    raise AssertionError("even powers fail to commute")
                coeffs = self.table[(k, l)]
                for j, c in enumerate(coeffs):
                    classical = c.coeff(0)
                    want = Fraction(1) if (j == k + l <= self.n) else \
                        Fraction(0)
                    if classical != want:
                        raise AssertionError(
                            "classical layer of the table is not the "
                            "truncated polynomial ring")

    def entry(self, k: int, l: int):
        return self.table[(k, l)]

    def serialize(self):
        return {
            "n": self.n,
            "table": {
                f"{k},{l}": [{"power": j, "coeffs": cf.serialize()}
                             for j, cf in enumerate(coeffs) if cf]
                for (k, l), coeffs in sorted(self.table.items())
            },
        }


def cpn_structure_constants(n: int) -> CPnRing:
    if n > 5:
        raise ValueError("structure constants are tabulated for n <= 5")
    return CPnRing(n)


def verify_relation_17(n: int) -> dict:
    """(omega - n h) is nilpotent of order exactly n + 1, and the
    deformed form assembled from quantum products of the coordinate
    pairs literally equals omega - n h.

    The reported order is the first k <= n + 1 with (omega - n h)^k_h
    = 0, or None when even the (n + 1)-st power survives. Each power is
    the one before it times omega - n h, so the scan takes at most n + 1
    products, and it stops at the first zero power going upward, since a
    zero power stays zero under further products. ok says whether that
    order is n + 1.
    """
    if n > 4:
        raise ValueError("the nilpotency check is run for n <= 4")
    dim = 2 * n
    w = Bivector.standard(dim)
    omega = SymplecticForm(dim).form
    assembled = QForm.zero(dim)
    for a in range(1, n + 1):
        assembled = assembled + quantum_wedge(
            QForm.one_form(dim, 2 * a - 1), QForm.one_form(dim, 2 * a), w)
    shifted = omega + QForm.constant(dim, HPoly({1: -n}))
    if assembled != shifted:
        raise AssertionError("assembled deformed form is not omega - n h")
    order = None
    powers = islice(quantum_powers(shifted, w), 1, n + 2)
    for k, power in enumerate(powers, start=1):
        if power.is_zero():
            order = k
            break
    return {"n": n, "nilpotency_order": order, "ok": order == n + 1}


def derived_recursion_report(n: int) -> dict:
    """Extract the exact three-term recursion for multiplying by omega
    and compare its coefficients against both candidate formulas."""
    ring = cpn_structure_constants(n)
    rows = []
    for k in range(1, n + 1):
        coeffs = ring.entry(1, k)
        for j, c in enumerate(coeffs):
            inside = k - 1 <= j <= k + 1
            if c and not inside:
                raise AssertionError(
                    "multiplication by omega is not three-term at power "
                    f"{k}")
        lead = coeffs[k + 1] if k + 1 <= n else HPoly()
        if k + 1 <= n and lead != HPoly(1):
            raise AssertionError("leading coefficient is not one")
        a_poly = coeffs[k]
        b_poly = coeffs[k - 1]
        if set(a_poly.terms) - {1} or set(b_poly.terms) - {2}:
            raise AssertionError(
                "recursion coefficients are not pure h and h^2 terms")
        a_k = a_poly.coeff(1)
        b_k = b_poly.coeff(2)
        rows.append({
            "k": k,
            "a": a_k,
            "b": b_k,
            "printed": (Fraction(2 * k), Fraction(-k * n)),
            "derived": (Fraction(2 * k), Fraction(-k * (n - k + 1))),
            "matches_printed": (a_k, b_k) ==
                               (Fraction(2 * k), Fraction(-k * n)),
            "matches_derived": (a_k, b_k) ==
                               (Fraction(2 * k),
                                Fraction(-k * (n - k + 1))),
        })
    return {"n": n, "rows": rows}
