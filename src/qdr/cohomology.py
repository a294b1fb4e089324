"""Exact cohomology of the deformed complex on Fourier truncations.

The differentials preserve each Fourier mode, so every complex built here
splits into finite blocks indexed by the mode vector k.  On mode k every
entry of a d or delta block is i*tau*r with r rational (tau is the
formal circle period), and the blocks are linear in k:
A(k) = sum_j k_j * A_j over the blocks A_j of the unit modes e_j.  For
a constant bivector d and delta are first order and kill constants;
since d e_j = i*tau * e_j e^j and d x_j = e^j, A_j over i*tau is the
symbol read off d and delta of x_j * e^I.  All blades I come from one
d_and_delta call per unit mode, on the generating form
G_j = sum_I h^I * x_j * e^I, which holds blade I at the power of h equal
to I's mask.  d and delta never change the h exponent, and nothing else
in the build reads h, so h serves as a free tag: blade I's columns are
the terms of the two images at h^I.  The symbols are held as int
numerators over one denominator den per complex (the lcm of the
entries' denominators); so every identity below is checked in int
arithmetic, with den in place of 1 (after Bareiss, Math. Comp. 22,
1968).  The zero mode's blocks are 0.

Every rank comes from an identity checked exactly on the unit blocks;
a failed identity raises AssertionError, naming the differential, the
degree and the first entry that is off.  The unit d block is
A_j = eps(e^j), so with B_i = iota(e_i) and
H(k) = sum_i k_i B_i / |k|^2, a degree whose unit blocks satisfy
A_j B_i + B_i A_j = delta_ij I and A_i A_j + A_j A_i = 0 has A(k)H(k)
idempotent with image im A(k) for every k != 0; its trace,
t = tr(A_j B_j), is the d rank of every nonzero mode's block.  On the
numerators the identities read den * delta_ij I, 0 and t * den.

On a symplectic torus delta = (-1)^(q+1) * d * on degree q, with * the
symplectic star (Brylinski's identity, J. Differential Geom. 28, 1988),
checked on every unit block against star columns cleared to ints over
their own denominator; so the delta rank on degree q is the d rank on
degree dim - q.

The d_h = d - h*delta ranks come from the d ranks through the
intertwiner Phi = exp(h * iota_w), h raising the deformation exponent
by one.  With delta = [iota_w, d] (Koszul, Asterisque hors serie, 1985;
Brylinski, ibid.) and [iota_w, delta] = 0, Phi d_h Phi^-1 = d; both
brackets are checked on the unit blocks of each blade degree, against
iota_w columns cleared to ints over one denominator e_w, and being
linear in k they hold on every mode.  Total degree counts the
deformation parameter as degree 2.  Phi is unipotent, raises the
exponent and lowers the blade degree by 2, so it maps each total-degree
window onto itself; d keeps the exponent, so the d_h rank on degree m
is the sum of the d ranks over the blade degrees of the window.

Each table is built and each identity checked once per blade degree, on
its first read, so a failure names only the degrees that read it.
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
    columns over den, one {row: numerator} per blade, rows and columns
    numbering the blades of one degree (_masks, empty outside 0..dim),
    read off one d_and_delta call per unit mode e_j on the generating
    form sum_I h^I * x_j * e^I, with h tagging each blade I by its mask:
    an entry of the block over i*tau is numerator / den, with den the
    lcm of the denominators of every unit d and delta entry.  No d_h
    block is built: d_h ranks come from d ranks through
    Phi = exp(h * iota_w), with iota_w's columns int numerators over
    e_w, the lcm of the denominators of w's entries.  Tables, d ranks
    and checked identities sit in one memo keyed by degree.
    """

    def __init__(self, model, trunc: int, mode: str = "laurent"):
        if type(trunc) is not int or trunc < 0:
            raise ValueError("truncation bound must be nonnegative")
        if mode not in ("laurent", "polynomial"):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if not model.is_torus():
            raise ValueError(
                f"cannot truncate {model}: coefficients are not periodic")
        # the generating form of x_j gives the unit blocks of e_j over
        # i*tau only for a rational constant bivector
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
        # the blades of every degree an identity reads
        self._masks = {q: masks_of_degree(self.dim, q)
                       for q in range(-3, self.dim + 2)}
        # kind -> blade degree -> one sparse block per unit mode e_j: d
        # (q -> q+1) and delta (q -> q-1)
        self._units = {"d": {}, "delta": {}}
        self.den = self._build_unit_blocks()
        entries = self.w.upper_entries()
        nums, self.e_w = clear_denominators(c for _, _, c in entries)
        self._w_nums = [(i - 1, j - 1, x)
                        for (i, j, _), x in zip(entries, nums)]
        self._memo = {}

    def _once(self, key, build):
        """The value memoised under key, built on its first read; a build
        that raises stores nothing, so the next read raises again."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- basis bookkeeping -------------------------------------------------

    def slots(self, m: int):
        """(p, q) pairs contributing to total degree m."""
        return [((m - q) // 2, q) for q in range(self.dim + 1)
                if (m - q) % 2 == 0
                and (self.mode == "laurent" or m >= q)]

    def space_dim(self, m: int) -> int:
        return sum(comb(self.dim, q) for _, q in self.slots(m)) \
            * len(self.fmodes)

    def blade_space_dim(self, q: int) -> int:
        if q < 0 or q > self.dim:
            return 0
        return comb(self.dim, q) * len(self.fmodes)

    # -- block construction ------------------------------------------------

    def _build_unit_blocks(self) -> int:
        """d and delta blade blocks of every unit mode e_j over i*tau,
        read off one d_and_delta call per unit mode, on the generating
        form G_j = sum_I h^I * x_j * e^I.  G_j holds each blade I at the
        power of h equal to I's mask, and d and delta never change the h
        exponent, so blade I's d and delta columns are the terms of the
        two images at h^I: h serves as a free tag that keeps the blades
        apart.  The entries are cleared to ints and their common
        denominator returned."""
        dim = self.dim
        # a blade's column (or row) among the blades of its degree
        index = {mask: r for q in range(dim + 1)
                 for r, mask in enumerate(self._masks[q])}
        for blocks in self._units.values():
            for q in range(-2, dim + 1):
                blocks[q] = [[{} for _ in self._masks[q]]
                             for _ in range(dim)]
        for j in range(dim):
            x_j = PolyFn.coord(dim, j + 1)
            gen = FieldForm._make({(mask, mask): x_j
                                   for mask in range(1 << dim)}, dim, PolyFn)
            for kind, image in zip(("d", "delta"), d_and_delta(gen, self.w)):
                blocks = self._units[kind]
                for (h, b), fn in image.terms.items():
                    blocks[h.bit_count()][j][index[h]][index[b]] = \
                        fn.constant_coeff()
        return _clear_columns([col for blocks in self._units.values()
                               for per_j in blocks.values()
                               for cols in per_j for col in cols])

    def _star(self, q: int):
        """(cols, E_q): the symplectic star on the degree-q blades as
        sparse int columns into degree dim - q, over their own
        denominator E_q."""
        def build():
            index = {mask: r
                     for r, mask in enumerate(self._masks[self.dim - q])}
            cols = []
            for mask in self._masks[q]:
                image = symplectic_star(QForm(self.dim, {mask: 1}),
                                        self.model.omega)
                cols.append({index[m]: c.coeff(0)
                             for m, c in image.terms.items()})
            return cols, _clear_columns(cols)
        return self._once(("star", q), build)

    def _iota(self, q: int):
        """iota(e_i) from blade degree q to q - 1 for each e_i."""
        return self._once(("iota", q), lambda: [
            _interior(self._masks[q], self._masks[q - 1], i)
            for i in range(self.dim)])

    def _iota_w(self, q: int):
        """iota_w from blade degree q to q - 2 as sparse int columns over
        e_w: iota(e_i), then iota(e_j), weighted by the numerator of w^ij
        (i < j), as fields.contract_field inserts them."""
        def build():
            first, second = self._iota(q), self._iota(q - 1)
            cols = []
            for c in range(len(self._masks[q])):
                col = {}
                for i, j, x in self._w_nums:
                    _apply(second[j],
                           {r: x * s for r, s in first[i][c].items()}, col)
                cols.append(col)
            return cols
        return self._once(("iota_w", q), build)

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
        units = zip(self._units["d"][self.dim - q], self._units["delta"][q])
        for j, (d_j, delta_j) in enumerate(units):
            for c, col in enumerate(star):
                mid, out = {}, {}
                _apply(d_j, col, mid)
                _apply(star_back, mid, out)
                if out != {r: scale * x for r, x in delta_j[c].items()}:
                    raise AssertionError(
                        f"delta degree {q}: delta is not (-1)^(q+1) * d * "
                        f"on unit mode e_{j + 1}, column {c}")

    def _check_phi(self, m: int, q: int):
        """The brackets of iota_w with d and delta on the unit blocks of
        blade degree q.  With I the iota_w columns over e_w, and D_j and
        Delta_j the unit d and delta blocks over den, they read on the
        numerators
          (i)  I_(q+1) D_j,q - D_j,(q-2) I_q = e_w * Delta_j,q,
          (ii) I_(q-1) Delta_j,q - Delta_j,(q-2) I_q = 0,
        that is delta = [iota_w, d] and [iota_w, delta] = 0.  A failure
        raises AssertionError naming the total degree m being ranked."""
        up, down = self._iota_w(q + 1), self._iota_w(q - 1)
        d, d_low = self._units["d"][q], self._units["d"][q - 2]
        delta = self._units["delta"][q]
        delta_low = self._units["delta"][q - 2]
        for c, col in enumerate(self._iota_w(q)):
            minus = {r: -x for r, x in col.items()}
            for j in range(self.dim):
                acc = {}
                _apply(up, d[j][c], acc)
                _apply(d_low[j], minus, acc)
                if acc != {r: self.e_w * x for r, x in delta[j][c].items()}:
                    raise AssertionError(
                        f"dh degree {m}: iota_w d - d iota_w is not delta "
                        f"at blade degree {q}, unit mode e_{j + 1}, "
                        f"column {c}")
                acc = {}
                _apply(down, delta[j][c], acc)
                _apply(delta_low[j], minus, acc)
                if acc:
                    raise AssertionError(
                        f"dh degree {m}: iota_w delta - delta iota_w is not "
                        f"0 at blade degree {q}, unit mode e_{j + 1}, "
                        f"column {c}")

    def d_rank(self, q: int) -> int:
        """Sum of the ranks of every mode's degree-q d block: the
        homotopy rank t on every nonzero mode; the zero mode's block is
        0."""
        if q < 0 or q > self.dim:
            return 0
        return self._once(("d", q), lambda: _homotopy_rank(
            f"d degree {q}", self.den, self._units["d"][q - 1],
            self._units["d"][q], self._iota(q), self._iota(q + 1))
            * (len(self.fmodes) - 1))

    def delta_rank(self, q: int) -> int:
        """The d rank on degree dim - q, once the star identity holds."""
        if q < 1 or q > self.dim:
            return 0
        self._once(("star check", q), lambda: self._check_star(q))
        return self.d_rank(self.dim - q)

    def dh_rank(self, m: int) -> int:
        """Phi carries d_h on the degree-m window to d, slot by slot: the
        sum of the d ranks over the window, once the brackets hold on
        each of its blade degrees."""
        blades = [q for _, q in self.slots(m)]
        for q in blades:
            self._once(("phi check", q), lambda: self._check_phi(m, q))
        return sum(self.d_rank(q) for q in blades)


def _interior(src, tgt, i: int):
    """iota(e_i) as sparse columns from the blades src to the blades tgt,
    both lists of masks."""
    index = {mask: r for r, mask in enumerate(tgt)}
    cols = []
    for mask in src:
        sign, rest = insert_first_mask(i + 1, mask)
        cols.append({index[rest]: sign} if sign else {})
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


# -- graded integral -------------------------------------------------------


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
    powers = omega.powers
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
        sign, _ = wedge_masks(mask, comp)
        add_term(out, h, fn.constant_coeff() * (cscale * sign))
    out = {h: _scalarize(v) for h, v in out.items()}
    return HPoly(out)


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
    ref = next(iter(rhs.terms.items()), None)
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
    powers = omega.powers
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
