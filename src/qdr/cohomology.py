"""Exact cohomology of the deformed complex on Fourier truncations.

The differentials preserve each Fourier mode, so every complex built here
splits into finite blocks indexed by the mode vector k.  On mode k every
entry of a d, delta or d_h block is i*tau*r with r rational (tau is the
formal circle period), and the blocks are linear in k:
A(k) = sum_j k_j * A_j over the blocks A_j of the unit modes e_j.  For
a constant bivector d and delta are first order and kill constants;
since d e_j = i*tau * e_j e^j and d x_j = e^j, A_j over i*tau is the
symbol read off d_and_delta(x_j * e^I), held as int numerators over one
denominator den per complex (the lcm of the entries' denominators); so
every identity below is checked in int arithmetic, with den in place of
1 (after Bareiss, Math. Comp. 22, 1968).  The zero mode's blocks are 0.

Every rank comes from an identity checked exactly on the unit blocks;
a failed identity raises AssertionError, naming the differential, the
degree and the first entry that is off.  For a constant bivector the
unit d_h block is A_j = eps(e^j) - h*delta_j with delta_j a contraction
(Brylinski, J. Differential Geom. 28, 1988), so with B_i = iota(e_i)
and H(k) = sum_i k_i B_i / |k|^2, a degree whose unit blocks satisfy
A_j B_i + B_i A_j = delta_ij I and A_i A_j + A_j A_i = 0 has A(k)H(k)
idempotent with image im A(k) for every k != 0; its trace,
t = tr(A_j B_j), is the d or d_h rank of every nonzero mode's block.
On the numerators the identities read den * delta_ij I, 0 and
t * den.  On a symplectic torus delta = (-1)^(q+1) * d * on degree q,
with * the symplectic star (Brylinski's identity), checked on every
unit block against star columns cleared to ints over their own
denominator; so the delta rank on degree q is the d rank on degree
dim - q.  Total degree counts the deformation parameter as degree 2.
"""

from fractions import Fraction
from itertools import product
from math import comb

from .blades import blade_degree, insert_first_mask, masks_of_degree, \
    wedge_masks
from .exterior import QForm, insert_first, wedge
from .fields import FieldForm, d_and_delta
from .functions import PolyFn
from .scalars import HPoly, TauNumber, add_term, clear_denominators, over
from .symplectic import SymplecticForm, bivector_of, contract_bivector, \
    symplectic_star


class TruncatedComplex:
    """Ranks of d, delta, and d_h on a torus truncation, over i*tau.

    mode selects the coefficient window for the deformation exponent p at
    total degree m: "laurent" keeps every integer p with 0 <= m - 2p <= dim,
    "polynomial" additionally demands p >= 0.

    fmodes lists the truncated mode vectors.  Unit blocks are sparse int
    columns over den, one {row: numerator} per basis element: an entry
    of the block over i*tau is numerator / den, with den the lcm of the
    denominators of every unit d and delta entry (the d_h blocks share
    it).
    """

    def __init__(self, model, trunc: int, mode: str = "laurent"):
        if mode not in ("laurent", "polynomial"):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if not model.is_torus():
            raise ValueError(
                f"cannot truncate {model}: coefficients are not periodic")
        # x_j * e^I gives the unit blocks of e_j over i*tau only for a
        # rational constant bivector
        for i, j, c in model.poisson.upper_entries():
            if type(c) is not Fraction:
                moved = hasattr(c, "is_constant") and not c.is_constant()
                raise ValueError(
                    f"bivector entry w^{i}{j} = {c} is not a rational "
                    "constant: " + ("delta's modes escaped their blocks"
                                    if moved else "delta's entries are "
                                    "not i*tau times a rational"))
        self.model = model
        self.trunc = trunc
        self.mode = mode
        self.dim = model.dim
        self.n = model.dim // 2
        self.w = model.poisson
        self.max_degree = self.dim + 2
        self.fmodes = sorted(product(range(-trunc, trunc + 1),
                                     repeat=self.dim))
        self._masks = {q: list(masks_of_degree(self.dim, q))
                       for q in range(self.dim + 1)}
        self._mask_pos = {mask: c for masks in self._masks.values()
                          for c, mask in enumerate(masks)}
        # kind -> degree -> one sparse block per unit mode e_j; the blade
        # blocks of d (q -> q+1) and delta (q -> q-1) are built here, the
        # total-degree blocks of d_h (m -> m+1) on first use
        self._units = {"d": {}, "delta": {}, "dh": {}}
        self.den = self._build_unit_blocks()
        self._rank_cache = {}
        self._stars = {}
        self._iotas = {}

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

    def _space(self, kind: str, g: int):
        """Basis of one mode's degree-g piece: (p, mask) pairs, p = 0 for
        the blade degrees of d and delta."""
        if kind == "dh":
            return self.basis(g)
        return [(0, mask) for mask in self._masks.get(g, ())]

    # -- block construction ------------------------------------------------

    def _column(self, image: FieldForm, index, label):
        col = {}
        for (p, mask), fn in image.terms.items():
            row = index.get((p, mask))
            if row is None:
                raise ValueError(
                    f"truncation not closed under {label}: "
                    f"h^{p} blade {mask:b} is outside the window")
            col[row] = fn.constant_coeff()
        return col

    def _build_unit_blocks(self) -> int:
        """d and delta blade blocks of every unit mode e_j over i*tau,
        read off one d_and_delta(x_j * e^I) per blade; the entries are
        cleared to ints and their common denominator returned."""
        cols = []
        for q in range(self.dim + 1):
            dtgt = {pm: r for r, pm in enumerate(self._space("d", q + 1))}
            deltatgt = {pm: r for r, pm in enumerate(self._space("d", q - 1))}
            dq = self._units["d"][q] = []
            deltaq = self._units["delta"][q] = []
            for j in range(1, self.dim + 1):
                x_j = PolyFn.coord(self.dim, j)
                dcols, deltacols = [], []
                for mask in self._masks[q]:
                    df, delta = d_and_delta(FieldForm.from_fn(x_j, mask),
                                            self.w)
                    dcols.append(self._column(df, dtgt, "d"))
                    deltacols.append(self._column(delta, deltatgt, "delta"))
                dq.append(dcols)
                deltaq.append(deltacols)
                cols += dcols
                cols += deltacols
        return _clear_columns(cols)

    def _assemble_dh(self, j: int, m: int):
        """Unit d_h block of e_j at degree m from its blade blocks: d
        minus shifted delta, the shift raising the deformation exponent
        by one."""
        tgt = {pm: r for r, pm in enumerate(self.basis(m + 1))}
        cols = []
        for p, mask in self.basis(m):
            q = blade_degree(mask)
            pos = self._mask_pos[mask]
            col = {}
            for r, val in self._units["d"][q][j][pos].items():
                col[tgt[(p, self._masks[q + 1][r])]] = val
            for r, val in self._units["delta"][q][j][pos].items():
                row = tgt.get((p + 1, self._masks[q - 1][r]))
                if row is None:
                    raise ValueError(
                        "truncation not closed under d_h: shifted "
                        f"h^{p + 1} blade {self._masks[q - 1][r]:b} is "
                        "outside the window")
                col[row] = -val
            cols.append(col)
        return cols

    def _unit(self, kind: str, g: int):
        """The sparse blocks of the unit modes at degree g, one per e_j."""
        blocks = self._units[kind]
        if g not in blocks:
            if kind == "dh":
                blocks[g] = [self._assemble_dh(j, g) for j in range(self.dim)]
            else:
                # a blade degree outside 0..dim: the space is zero
                blocks[g] = [[] for _ in range(self.dim)]
        return blocks[g]

    def _star(self, q: int):
        """(cols, E_q): the symplectic star on the degree-q blades as
        sparse int columns into degree dim - q, over their own
        denominator E_q; each degree's is built once per complex."""
        star = self._stars.get(q)
        if star is None:
            index = {mask: r
                     for r, mask in enumerate(self._masks[self.dim - q])}
            cols = []
            for mask in self._masks[q]:
                image = symplectic_star(QForm(self.dim, {mask: 1}),
                                        self.model.omega)
                cols.append({index[m]: c.coeff(0)
                             for m, c in image.terms.items()})
            star = self._stars[q] = (cols, _clear_columns(cols))
        return star

    # -- exact ranks ---------------------------------------------------------

    def _check_star(self, q: int):
        """Brylinski's identity delta_j = (-1)^(q+1) * S d_j S on the unit
        blocks of degree q, with S the symplectic star of the model's
        omega (the standard form when it has none).  On the int
        numerators, with the stars over E_q and E_(dim-q+1) and d and
        delta over the same den, it reads
        S_back d_j S = E_q * E_(dim-q+1) * (-1)^(q+1) * delta_j."""
        star, e = self._star(q)
        star_back, e_back = self._star(self.dim - q + 1)
        scale = (-1) ** (q + 1) * e * e_back
        units = zip(self._unit("d", self.dim - q), self._unit("delta", q))
        for j, (d_j, delta_j) in enumerate(units):
            for c, col in enumerate(star):
                mid, out = {}, {}
                _apply(d_j, col, mid)
                _apply(star_back, mid, out)
                if out != {r: scale * x for r, x in delta_j[c].items()}:
                    raise AssertionError(
                        f"delta degree {q}: delta is not (-1)^(q+1) * d * "
                        f"on unit mode e_{j + 1}, column {c}")

    def _rank(self, kind: str, g: int) -> int:
        """Sum of the ranks of every mode's degree-g block."""
        key = (kind, g)
        if key not in self._rank_cache:
            if kind == "delta":
                self._check_star(g)
                total = self.d_rank(self.dim - g)
            else:
                t = _homotopy_rank(
                    f"{kind} degree {g}", self.den,
                    self._unit(kind, g - 1), self._unit(kind, g),
                    self._iota(kind, g), self._iota(kind, g + 1))
                # t on every nonzero mode; the zero mode's block is 0
                total = t * (len(self.fmodes) - 1)
            self._rank_cache[key] = total
        return self._rank_cache[key]

    def _iota(self, kind: str, g: int):
        """iota(e_i) from degree g to g - 1 for each e_i, built once per
        (kind, degree) and complex."""
        if (kind, g) not in self._iotas:
            here, prev = self._space(kind, g), self._space(kind, g - 1)
            self._iotas[(kind, g)] = [_interior(here, prev, i)
                                      for i in range(self.dim)]
        return self._iotas[(kind, g)]

    def d_rank(self, q: int) -> int:
        if q < 0 or q > self.dim:
            return 0
        return self._rank("d", q)

    def delta_rank(self, q: int) -> int:
        if q < 1 or q > self.dim:
            return 0
        return self._rank("delta", q)

    def dh_rank(self, m: int) -> int:
        if m < -1 or m > self.max_degree:
            return 0
        return self._rank("dh", m)


def _interior(src, tgt, i: int):
    """iota(e_i) as sparse columns from basis src to basis tgt, both
    lists of (p, mask); the exponent p passes through."""
    index = {pm: r for r, pm in enumerate(tgt)}
    cols = []
    for p, mask in src:
        sign, rest = insert_first_mask(i + 1, mask)
        cols.append({index[(p, rest)]: sign} if sign else {})
    return cols


def _clear_columns(cols) -> int:
    """Scale sparse columns in place to int numerators over one
    denominator, the lcm of their entries' denominators; returns it."""
    nums, den = clear_denominators(x for col in cols for x in col.values())
    nums = iter(nums)
    for col in cols:
        for r in col:
            col[r] = next(nums)
    return den


def _apply(block, vec, acc):
    """acc += block @ vec over sparse columns, zero-free."""
    for r, x in vec.items():
        for s, y in block[r].items():
            add_term(acc, s, x * y)


def _homotopy_rank(label, den, a_prev, a, b, b_next) -> int:
    """t such that every nonzero A(k) = sum_j k_j a[j] / den has rank t.

    a_prev[j] and a[j] are the unit blocks into and out of one degree, as
    int numerators over den, and b[i] and b_next[i] the contractions
    iota(e_i) on that degree and the next, all sparse columns.  Checked
    exactly, in ints:
      (a) a_prev[j] b[i] + b_next[i] a[j] = den * delta_ij I on the
          degree,
      (b) a[i] a_prev[j] + a[j] a_prev[i] = 0 into the next degree.
    For k != 0, with H(k) = sum_i k_i b[i] / |k|^2 on the degree (b_next
    on the next), (a) gives A_prev(k)H(k) + H(k)A(k) = I and (b) gives
    A(k)A_prev(k) = 0.  So P = A(k)H(k) has P^2 = P and P A(k) = A(k):
    P projects onto im A(k), and rank A(k) = trace P = k^T T k / |k|^2
    with T_ij = trace(a[j] b_next[i]) / den.  Certified only when the
    numerator table is t * den * I for an integer t, so the rank is t on
    every nonzero mode.  A failed check raises AssertionError prefixed
    with label; a trace table is printed over den.
    """
    dim = len(a)
    for c in range(len(b[0])):
        for i in range(dim):
            for j in range(dim):
                acc = {}
                _apply(a_prev[j], b[i][c], acc)
                _apply(b_next[i], a[j][c], acc)
                if acc != ({c: den} if i == j else {}):
                    raise AssertionError(
                        f"{label}: A_j B_i + B_i A_j is not delta_ij I at "
                        f"(i, j) = ({i}, {j}), column {c}")
    for c in range(len(a_prev[0])):
        for i in range(dim):
            for j in range(i, dim):
                acc = {}
                _apply(a[i], a_prev[j][c], acc)
                _apply(a[j], a_prev[i][c], acc)
                if acc:
                    raise AssertionError(
                        f"{label}: A_i A_j + A_j A_i is not 0 at "
                        f"(i, j) = ({i}, {j}), column {c}")
    trace = [[sum(a[j][r].get(c, 0) * x
                  for c, col in enumerate(b_next[i]) for r, x in col.items())
              for j in range(dim)] for i in range(dim)]
    t, rem = divmod(trace[0][0], den)
    if rem or any(trace[i][j] != (trace[0][0] if i == j else 0)
                  for i in range(dim) for j in range(dim)):
        table = [[str(over(x, den)) for x in row] for row in trace]
        raise AssertionError(
            f"{label}: the trace table tr(A_j B_i) is not t*I for an "
            f"integer t: {table}")
    return int(t)


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


def build_complex(model, trunc: int, mode: str = "laurent"
                  ) -> TruncatedComplex:
    return TruncatedComplex(model, trunc, mode)


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
    return sum(betti[q] for _, q in c.slots(m))


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
    df, delta = d_and_delta(form, w)
    vals = {
        "d": quantum_integral(df, omega, model),
        "h_delta": quantum_integral(delta.h_shift(1), omega, model),
        "d_h": quantum_integral(df - delta.h_shift(1), omega, model),
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
