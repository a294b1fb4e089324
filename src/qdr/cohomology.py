"""Exact cohomology of the deformed complex on Fourier truncations.

The differentials preserve each Fourier mode, so every complex built here
splits into finite blocks indexed by the mode vector k.  On mode k every
entry of a d, delta or d_h block is i*tau*r with r rational (tau is the
formal circle period), and the blocks are linear in k:
block(k) = sum_j k_j * block(e_j).  So a complex builds the blocks of the
unit modes e_j once, divides out i*tau, and forms one Fraction block per
primitive direction up to sign; block(c*k) = c*block(k) has the same
rank, so a direction's rank counts once per mode on its line.  Total
degree counts the deformation parameter as degree 2.
"""

from fractions import Fraction
from itertools import product
from math import comb, gcd

from .blades import blade_degree, masks_of_degree, wedge_masks
from .exterior import QForm, insert_first, wedge
from .fields import (
    FieldForm,
    exterior_d,
    koszul_delta,
    quantum_d,
)
from .functions import FourierFn
from .linalg import matrix_rank
from .scalars import HPoly, TauNumber, add_term
from .symplectic import SymplecticForm, bivector_of, contract_bivector

_ZERO = Fraction(0)


def primitive_direction(kvec):
    """(direction, c) with kvec == c * direction, direction primitive and
    its first nonzero entry positive; the zero mode is its own direction
    with c = 0."""
    g = gcd(*kvec)
    if not g:
        return tuple(kvec), 0
    if next(k for k in kvec if k) < 0:
        g = -g
    return tuple(k // g for k in kvec), g


def _over_i_tau(coeff: TauNumber, label: str) -> Fraction:
    """r with coeff == i*tau*r."""
    if coeff.terms.keys() == {1}:
        g = coeff.terms[1]
        if not g.re:
            return g.im
    raise ValueError(f"{label} block entry {coeff} is not i*tau times a "
                     "rational")


class TruncatedComplex:
    """Per-direction block matrices of d, delta, and d_h on a torus
    truncation, with i*tau divided out.

    mode selects the coefficient window for the deformation exponent p at
    total degree m: "laurent" keeps every integer p with 0 <= m - 2p <= dim,
    "polynomial" additionally demands p >= 0.

    directions maps each primitive mode direction (up to sign) to the
    number of truncated modes on its line; the zero mode is its own
    direction.  Blocks are keyed by direction: the block of mode
    c * direction is c times the stored one.
    """

    def __init__(self, model, trunc: int, mode: str = "laurent",
                 max_degree: int = None):
        if mode not in ("laurent", "polynomial"):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if not model.is_torus():
            raise ValueError(
                f"cannot truncate {model}: coefficients are not periodic")
        self.model = model
        self.trunc = trunc
        self.mode = mode
        self.dim = model.dim
        self.n = model.dim // 2
        self.w = model.poisson
        self.max_degree = (self.dim + 2) if max_degree is None else max_degree
        self.fmodes = sorted(product(range(-trunc, trunc + 1),
                                     repeat=self.dim))
        self.directions = {}
        for kvec in self.fmodes:
            direction, _ = primitive_direction(kvec)
            self.directions[direction] = self.directions.get(direction, 0) + 1
        self._masks = {q: list(masks_of_degree(self.dim, q))
                       for q in range(self.dim + 1)}
        self._mask_pos = {mask: c for masks in self._masks.values()
                          for c, mask in enumerate(masks)}
        # pure blade-degree blocks of d (q -> q+1) and delta (q -> q-1)
        self._dblk = {}
        self._deltablk = {}
        # total-degree blocks of d_h (m -> m+1)
        self._dhblk = {}
        self._build_blade_blocks()
        self._build_dh_blocks()
        self._rank_cache = {}

    # -- basis bookkeeping -------------------------------------------------

    def slots(self, m: int):
        """(p, q) pairs contributing to total degree m."""
        out = []
        for q in range(self.dim + 1):
            if (m - q) % 2:
                continue
            p = (m - q) // 2
            if self.mode == "polynomial" and p < 0:
                continue
            out.append((p, q))
        return out

    def basis(self, m: int):
        """Ordered (p, mask) pairs of the degree-m piece, one per mode."""
        out = []
        for p, q in self.slots(m):
            for mask in self._masks[q]:
                out.append((p, mask))
        return out

    def space_dim(self, m: int) -> int:
        return len(self.basis(m)) * len(self.fmodes)

    def blade_space_dim(self, q: int) -> int:
        if q < 0 or q > self.dim:
            return 0
        return comb(self.dim, q) * len(self.fmodes)

    # -- block construction ------------------------------------------------

    def _mode_form(self, kvec, mask: int) -> FieldForm:
        fn = FourierFn.mode(self.dim, kvec)
        return FieldForm.from_fn(fn, mask)

    def _column(self, image: FieldForm, kvec, index, rows, col, label):
        for (p, mask), fn in image.terms.items():
            for kv, coeff in fn.terms.items():
                if kv != kvec:
                    raise ValueError(
                        f"truncation not closed under {label}: "
                        f"mode {kv} escaped from {kvec}")
                row = index.get((p, mask))
                if row is None:
                    raise ValueError(
                        f"truncation not closed under {label}: "
                        f"h^{p} blade {mask:b} is outside the window")
                rows[row][col] = _over_i_tau(coeff, label)

    def _unit_blocks(self, j: int):
        """d and delta blade blocks of the unit mode e_j, over i*tau."""
        kvec = tuple(int(i == j) for i in range(self.dim))
        dq = {}
        deltaq = {}
        for q in range(self.dim + 1):
            src = self._masks[q]
            dtgt = {(0, mask): r
                    for r, mask in enumerate(self._masks.get(q + 1, []))}
            deltatgt = {(0, mask): r for r, mask in
                        enumerate(self._masks[q - 1] if q else [])}
            drows = [[_ZERO] * len(src) for _ in dtgt]
            deltarows = [[_ZERO] * len(src) for _ in deltatgt]
            for c, mask in enumerate(src):
                elem = self._mode_form(kvec, mask)
                self._column(exterior_d(elem), kvec, dtgt, drows, c, "d")
                self._column(koszul_delta(elem, self.w), kvec, deltatgt,
                             deltarows, c, "delta")
            dq[q] = drows
            deltaq[q] = deltarows
        return dq, deltaq

    def _build_blade_blocks(self):
        units = [self._unit_blocks(j) for j in range(self.dim)]
        for direction in self.directions:
            dq = {}
            deltaq = {}
            for q in range(self.dim + 1):
                dq[q] = _combine(direction, [d[q] for d, _ in units])
                deltaq[q] = _combine(direction,
                                     [delta[q] for _, delta in units])
            self._dblk[direction] = dq
            self._deltablk[direction] = deltaq

    def _assemble_dh(self, direction, m: int):
        """d_h block at degree m from the blade blocks: d minus shifted
        delta, the shift raising the deformation exponent by one."""
        src = self.basis(m)
        tgt = {pm: r for r, pm in enumerate(self.basis(m + 1))}
        rows = [[_ZERO] * len(src) for _ in range(len(tgt))]
        dblk = self._dblk[direction]
        deltablk = self._deltablk[direction]
        for c, (p, mask) in enumerate(src):
            q = blade_degree(mask)
            col = self._mask_pos[mask]
            for r_local, mask2 in enumerate(self._masks.get(q + 1, [])):
                val = dblk[q][r_local][col]
                if val:
                    rows[tgt[(p, mask2)]][c] = val
            for r_local, mask2 in enumerate(self._masks[q - 1] if q else []):
                val = deltablk[q][r_local][col]
                if val and (p + 1, mask2) in tgt:
                    rows[tgt[(p + 1, mask2)]][c] = -val
                elif val:
                    raise ValueError(
                        "truncation not closed under d_h: shifted "
                        f"h^{p + 1} blade {mask2:b} is outside the window")
        return rows

    def _build_dh_blocks(self):
        for m in range(-1, self.max_degree + 1):
            for direction in self.directions:
                self._dhblk[(direction, m)] = self._assemble_dh(direction, m)

    # -- exact ranks ---------------------------------------------------------

    def _rank_sum(self, key, blocks) -> int:
        """Sum of multiplicity * rank over (multiplicity, block) pairs."""
        if key in self._rank_cache:
            return self._rank_cache[key]
        total = 0
        for mult, block in blocks:
            total += mult * matrix_rank(block)
        self._rank_cache[key] = total
        return total

    def d_rank(self, q: int) -> int:
        if q < 0 or q > self.dim:
            return 0
        return self._rank_sum(("d", q), [
            (mult, self._dblk[k][q]) for k, mult in self.directions.items()])

    def delta_rank(self, q: int) -> int:
        if q < 1 or q > self.dim:
            return 0
        return self._rank_sum(("delta", q), [
            (mult, self._deltablk[k][q])
            for k, mult in self.directions.items()])

    def dh_rank(self, m: int) -> int:
        if m < -1 or m > self.max_degree:
            return 0
        return self._rank_sum(("dh", m), [
            (mult, self._dhblk[(k, m)])
            for k, mult in self.directions.items()])


def _combine(kvec, blocks):
    """sum_j kvec[j] * blocks[j] over blocks of one shape."""
    out = [[_ZERO] * len(row) for row in blocks[0]]
    for k, block in zip(kvec, blocks):
        if not k:
            continue
        for orow, brow in zip(out, block):
            for c, x in enumerate(brow):
                if x:
                    orow[c] += k * x
    return out


class DimensionReport:
    """Per-degree dimension table with expected-vs-actual columns."""

    def __init__(self, label: str, rows):
        self.label = label
        self.rows = rows

    @property
    def dims(self):
        return tuple(r["dim_h"] for r in self.rows)

    def passed(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def serialize(self) -> dict:
        return {
            "label": self.label,
            "rows": [dict(r) for r in self.rows],
            "pass": self.passed(),
        }

    def __str__(self):
        head = f"{self.label}: degree dim ker im_prev dim_H expected ok"
        lines = [head]
        for r in self.rows:
            lines.append(
                "  {degree:>3} {dim!s:>5} {ker!s:>5} {im_prev!s:>7} "
                "{dim_h:>5} {expected!s:>8} {ok}".format(**r))
        return "\n".join(lines)


def _report_row(degree, dim, rank_out, rank_prev, expected):
    ker = dim - rank_out
    dim_h = ker - rank_prev
    return {
        "degree": degree,
        "dim": dim,
        "ker": ker,
        "im_prev": rank_prev,
        "dim_h": dim_h,
        "expected": expected,
        "ok": expected is None or dim_h == expected,
    }


def build_complex(model, trunc: int, mode: str = "laurent",
                  max_degree: int = None) -> TruncatedComplex:
    return TruncatedComplex(model, trunc, mode, max_degree)


def dr_cohomology_dims(c: TruncatedComplex) -> DimensionReport:
    """Ranks of d alone; the calibration oracle for the torus."""
    rows = []
    for q in range(c.dim + 1):
        rows.append(_report_row(q, c.blade_space_dim(q), c.d_rank(q),
                                c.d_rank(q - 1), comb(c.dim, q)))
    return DimensionReport("de_rham", rows)


def poisson_homology_dims(c: TruncatedComplex) -> DimensionReport:
    """ker delta / im delta per blade degree, against reversed Betti."""
    betti = dr_cohomology_dims(c).dims
    rows = []
    for q in range(c.dim + 1):
        rows.append(_report_row(q, c.blade_space_dim(q), c.delta_rank(q),
                                c.delta_rank(q + 1), betti[c.dim - q]))
    return DimensionReport("poisson_homology", rows)


def _window_prediction(c: TruncatedComplex, betti, m: int) -> int:
    total = 0
    for q in range(c.dim + 1):
        if (m - q) % 2:
            continue
        if c.mode == "polynomial" and (m - q) // 2 < 0:
            continue
        total += betti[q]
    return total


def quantum_cohomology_dims(c: TruncatedComplex) -> DimensionReport:
    """ker d_h / im d_h per total degree, against the E1 prediction."""
    betti = dr_cohomology_dims(c).dims
    rows = []
    for m in range(0, c.max_degree):
        rows.append(_report_row(m, c.space_dim(m), c.dh_rank(m),
                                c.dh_rank(m - 1),
                                _window_prediction(c, betti, m)))
    return DimensionReport(f"quantum_{c.mode}", rows)


def e1_dims(c: TruncatedComplex) -> DimensionReport:
    """First-page dimensions: Betti numbers summed over the h window."""
    betti = dr_cohomology_dims(c).dims
    rows = []
    for m in range(0, c.max_degree):
        val = _window_prediction(c, betti, m)
        rows.append({"degree": m, "dim": None, "ker": None, "im_prev": None,
                     "dim_h": val, "expected": None, "ok": True})
    return DimensionReport(f"e1_{c.mode}", rows)


def degeneracy_check(c: TruncatedComplex) -> dict:
    """Assert the computed quantum dimensions equal the E1 prediction."""
    quantum = quantum_cohomology_dims(c).dims
    e1 = e1_dims(c).dims
    if quantum != e1:
        raise AssertionError(
            f"dimension collapse fails: quantum {quantum} vs E1 {e1}")
    return {"quantum": quantum, "e1": e1, "degenerate": True}


# -- graded integral -------------------------------------------------------


def _omega_powers(omega: SymplecticForm):
    """omega^k / k! for k = 0..n as plain forms."""
    out = [QForm(omega.dim, {0: 1})]
    for k in range(1, omega.n + 1):
        out.append(wedge(out[-1], omega.form) * Fraction(1, k))
    return out


def _scalarize(t: TauNumber):
    terms = dict(t.terms)
    if set(terms) == {0}:
        g = terms[0]
        return g.re if g.is_real() else g
    return t


def quantum_integral(form: FieldForm, omega: SymplecticForm, model) -> HPoly:
    """Pair each even blade degree 2n-2k with omega^k/k! and keep the
    constant Fourier mode of the top coefficient; odd degrees integrate
    to zero and the deformation exponent passes through untouched."""
    if not model.is_torus():
        raise ValueError(
            f"integral normalization requires a torus model, got {model}")
    n = model.dim // 2
    powers = _omega_powers(omega)
    full = (1 << model.dim) - 1
    out = {}
    for (h, mask), fn in form.terms.items():
        j = blade_degree(mask)
        if j % 2:
            continue
        k = n - j // 2
        comp = full ^ mask
        cscale = powers[k].coeff(comp).coeff(0)
        if not cscale:
            continue
        sign = _wedge_sign(mask, comp)
        if sign == 0:
            continue
        add_term(out, h, fn.constant_coeff() * (cscale * sign))
    out = {h: _scalarize(v) for h, v in out.items()}
    return HPoly(out, laurent=any(h < 0 for h in out))


def _wedge_sign(a: int, b: int) -> int:
    sign, _ = wedge_masks(a, b)
    return sign


def stokes_check(form: FieldForm, model) -> dict:
    """The three integrals that must vanish: d, shifted delta, deformed d."""
    w = model.poisson
    omega = model.omega
    vals = {
        "d": quantum_integral(exterior_d(form), omega, model),
        "h_delta": quantum_integral(
            koszul_delta(form, w).h_shift(1), omega, model),
        "d_h": quantum_integral(quantum_d(form, w), omega, model),
    }
    for name, val in vals.items():
        if val != 0:
            raise AssertionError(f"integral of {name} is {val}, not zero")
    return {"ok": True, "integrals": {k: str(v) for k, v in vals.items()}}


# -- contraction constants of the power family -----------------------------


def _proportionality(lhs: QForm, rhs: QForm):
    """lhs == c * rhs with c exact, or None when rhs == 0 (then lhs must
    also vanish)."""
    ref = None
    for mask, coeff in rhs.terms.items():
        ref = (mask, coeff)
        break
    if ref is None:
        if lhs.terms:
            raise AssertionError("no proportionality: rhs is zero, lhs not")
        return None
    mask, coeff = ref
    num = lhs.coeff(mask).coeff(0)
    den = coeff.coeff(0)
    c = num / den
    if not (rhs * c) == lhs:
        raise AssertionError("contraction result is not a multiple "
                             "of the lower power")
    return c


def lemma62_check(n: int, k: int) -> dict:
    """Contraction constants of omega^{k+1}/(k+1)! on R^{2n}.

    Part one contracts by the full bivector and reports the multiple of
    omega^k/k!.  Part two pairs single contractions of a basis p-form
    and of the power, per degree p, and reports the constant relating
    the sum to beta ^ omega^k/k!.  Constancy across basis blades is
    asserted; the values themselves are reported for comparison.
    """
    omega = SymplecticForm(2 * n)
    w = bivector_of(omega)
    powers = _omega_powers(omega)
    hi = powers[k + 1] if k + 1 <= n else QForm(2 * n, {})
    lo = powers[k]
    part_i = _proportionality(contract_bivector(w, hi), lo)
    part_ii = {}
    for p in range(1, 2 * n + 1):
        seen = None
        for mask in masks_of_degree(2 * n, p):
            beta = QForm(2 * n, {mask: 1})
            acc = QForm(2 * n, {})
            for i, j, cw in w.ordered_entries():
                acc = acc + wedge(insert_first(i, beta),
                                  insert_first(j, hi)) * cw
            c = _proportionality(acc, wedge(beta, lo))
            if c is None:
                continue
            if seen is None:
                seen = c
            elif seen != c:
                raise AssertionError(
                    f"part two constant varies across degree-{p} blades: "
                    f"{seen} vs {c}")
        part_ii[p] = seen
    return {
        "n": n,
        "k": k,
        "part_i": {"multiple": part_i, "printed": Fraction(n + k)},
        "part_ii": {p: {"constant": c,
                        "printed": Fraction((-1) ** (p - 1) * p)}
                    for p, c in part_ii.items()},
    }
