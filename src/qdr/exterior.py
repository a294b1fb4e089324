"""Constant-coefficient exterior algebra and the deformed wedge product.

The deformed product of two forms expands the exponential of the pairing
insertion operator exactly:

    a *_h b = sum_n h^n/n! sum w^{i1 j1} ... w^{in jn}
              (a -| e_{i1} -| ... ) ^ ( ... |- e_{j1} |- b)

where -| fills the last argument slot of a and |- fills the first slot
of b, innermost insertion first on both sides. Summed over i, column j
of the pairing is the vector w_j = sum_i w^{ij} e_i, and one pair
insertion is R_{w_j} (x) L_j: R_v fills the last slot of a with v and
L_j the first slot of b with e_j. The pair operators commute and square
to zero, so the n! orderings of one index set give equal terms, the
1/n! cancels, and

    a *_h b = sum_J h^|J| (R_{w_j1} ... R_{w_jn} a) ^ (L_j1 ... L_jn b)

over the sets J = {j1 < ... < jn}. Expanding each R_{w_j} into
sum_i w^{ij} R_i gives back the classical sum of signed minors
det w[I, J] over the index sets I of a and J of b.

The kernel, _contractions, walks the sets J depth first and keeps both
factors whole: A_J and B_J come from J's parent, J without its lowest
index, by one more contraction each. So blades of a that lose different
indices to the same remainder merge into one term before the next
contraction, and every blade of b that holds J shares one A_J. A term
of A_J is dropped the moment its sum reaches zero, so A_J is zero-free
as it is built, and a branch ends when A_J is empty: |J| never passes
the lower of the two top blade degrees and a zero column of w prunes
its branch. Everything is exact: coefficients are Laurent polynomials
in h over the rationals, or functions for fields.quantum_wedge_field.

The walk draws J from the blades of its right factor, so its cost
follows that factor. Reversal, e^{i1}^...^e^{ik} -> (-1)^(k(k-1)/2)
e^{i1}^...^e^{ik}, reverses the factors of a wedge and turns R_v into
L_v, so rev(a *_w b) = rev(b) *_{w^T} rev(a). When b's blades admit more
sets J than a's, counted as the sum of 2^k over the terms of blade
degree k, product_numerators walks the reversed product on the
pairing's row table, the column table of w^T, and reverses the result.

The kernel is fraction-free, after Bareiss (Math. Comp. 22, 1968). A
pairing keeps its nonzero entries as numerators over one common
denominator D, the lcm of the entries' denominators
(scalars.clear_denominators): ints for rational entries, Gaussian
rationals with int parts for Gaussian ones and PolyFns with int leaves
for polynomial ones. Each R_{w_j} then multiplies by numerators, so A_J
is D^|J| times its value. One driver, product_numerators, takes both
factors as numerators over their denominators da and db, lifts level n
by D^(top - n) for the lower top degree top, as it multiplies B_J into
the sum, and adds numerators over the one denominator da * db * D^top.
quantum_wedge checks that its factors share a space (SparseTerms._join)
and keeps product_numerators' int numerators pending: QForm is the one
PendingTerms class of the package, and its _pending slot holds them,
None on every value built from a terms dict. The first read of its
terms divides each once, into a Fraction or a Gaussian rational with
Fraction parts (scalars.over). Until then the numerators are read as
they are: a later quantum_wedge takes them with the denominator, ==
between two pending products cross-multiplies them, a rational multiple
scales them, the zero test asks whether there are any, and str reduces
each over the denominator by their gcd (Gaussian ones settle first). So
an associativity or supercommutativity check, and the zero test of a
deformed power, divide nothing. fields.quantum_wedge_field clears its
factors' coefficient functions to int leaves, calls the same driver and
divides each coefficient of the product once. A value with leaves that
clearing does not reach (a Moyal product's HPoly-valued PolyFn) goes
through as it is, over 1, and so do the HPolyMulti entries of the one
pairing W = sum_p t_p w_p on which quantum_wedge_multi runs the driver.
The classical wedge is level 0 of the J-sum: wedge_terms takes it
alone, for wedge and fields.wedge_field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

from .blades import (
    Blade,
    blade_str,
    indices_of_mask,
    insert_first_mask,
    mask_of_indices,
    wedge_masks,
)
from .scalars import (GaussRat, HPoly, HPolyMulti, PendingTerms,
                      SparseTerms, add_term, as_fraction, clear_denominators,
                      over)


# the entry of a pairing off its support, built once: Fractions are
# immutable, so every reader may share it
_ZERO = Fraction(0)


class PairTensor:
    """A bilinear deformation pairing phi^{ij}, not assumed antisymmetric."""

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self.entries = {}
        for (i, j), c in dict(entries or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("pairing index out of range")
            if isinstance(c, (int, str)):
                c = as_fraction(c)
            if c:
                self.entries[(i, j)] = c
        # entries are fixed from here on, so whatever depends on them
        # alone is worked out once
        self._ordered = [(i, j, c)
                         for (i, j), c in sorted(self.entries.items())]
        self._constant = all(isinstance(c, (Fraction, int, GaussRat))
                             for c in self.entries.values())
        # per column j, the (bit of i, i, num) of its nonzero entries,
        # num = D * w^{ij} over the common denominator D = self.den, and
        # per row i the (bit of j, j, num) of the same entries: the
        # column table of the transpose
        nums, self.den = clear_denominators(c for _, _, c in self._ordered)
        self._cols = [[] for _ in range(dim + 1)]
        self._rows = [[] for _ in range(dim + 1)]
        for (i, j, _), num in zip(self._ordered, nums):
            self._cols[j].append((1 << (i - 1), i, num))
            self._rows[i].append((1 << (j - 1), j, num))

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), _ZERO)

    def row_support(self, mask: int) -> int:
        """The mask of the rows i with w^{ij} != 0 for some j in mask:
        a minor of rows outside it and columns mask has a zero row."""
        out = 0
        for j in indices_of_mask(mask):
            for ibit, _, _ in self._cols[j]:
                out |= ibit
        return out

    def ordered_entries(self):
        return self._ordered

    def is_constant(self) -> bool:
        return self._constant

    def __eq__(self, other):
        return (isinstance(other, PairTensor) and self.dim == other.dim
                and self.entries == other.entries)

    def __str__(self):
        inner = ", ".join(f"w{i}{j}={c}" for i, j, c in self.ordered_entries())
        return f"pairing({self.dim}; {inner})"

    __repr__ = __str__


class Bivector(PairTensor):
    """Antisymmetric pairing w^{ij}; stored on i < j, looked up signed."""

    def __init__(self, dim: int, entries=None):
        upper = {}
        for (i, j), c in dict(entries or {}).items():
            if isinstance(c, (int, str)):
                c = as_fraction(c)
            if i == j:
                if c:
                    raise ValueError("diagonal entry in an antisymmetric pairing")
                continue
            if i > j:
                i, j, c = j, i, -c
            prev = upper.get((i, j))
            if prev is not None and prev != c:
                raise ValueError("inconsistent antisymmetric entries")
            upper[(i, j)] = c
        full = {}
        for (i, j), c in upper.items():
            if c:
                full[(i, j)] = c
                full[(j, i)] = -c
        super().__init__(dim, full)

    @staticmethod
    def standard(dim: int) -> "Bivector":
        """Pairing of the standard symplectic structure: w^{2a-1,2a} = -1."""
        if dim % 2:
            raise ValueError("standard pairing needs even dimension")
        return Bivector(dim, {(2 * a - 1, 2 * a): Fraction(-1)
                              for a in range(1, dim // 2 + 1)})

    def upper_entries(self):
        return [(i, j, c) for i, j, c in self.ordered_entries() if i < j]

    def scale(self, factor) -> "Bivector":
        return Bivector(self.dim, {(i, j): c * factor
                                   for i, j, c in self.upper_entries()})

    def __add__(self, other: "Bivector") -> "Bivector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = {}
        for i, j, c in self.upper_entries():
            out[(i, j)] = out.get((i, j), 0) + c
        for i, j, c in other.upper_entries():
            out[(i, j)] = out.get((i, j), 0) + c
        return Bivector(self.dim, out)


def _contractions(A: dict, B: dict, cols: list):
    """Every term of the J-sum of the module docstring, as (n, A_J, B_J).

    A and B are terms {(tag, mask): coefficient}; the tag passes through
    unchanged. cols is a pairing's column table: cols[j] lists the
    (bit of i, i, numerator of w^{ij}) of column j, over the pairing's
    denominator. A_J = R_{w_j1} ... R_{w_jn} A and B_J = L_j1 ... L_jn B
    for J = {j1 < ... < jn}, with R_{w_j} = sum_i w^{ij} R_i filling the
    last slot of A's blades and L_j the first slot of B's, each by its
    pairing numerator. The sets J come depth first: a child adds to its
    parent an index below the parent's lowest, so only the bits of B's
    blades below that index are tried. A_J drops a term as soon as its
    sum reaches zero, so it is zero-free as it is built, and a branch
    ends once it is empty. The dicts yielded are shared with the walk
    and must not be changed.
    """
    # the first limit lies above every index
    stack = [(0, A, B, 1 << len(cols))]
    while stack:
        n, A, B, limit = stack.pop()
        yield n, A, B
        avail = 0
        for _, m in B:
            avail |= m
        avail &= limit - 1
        while avail:
            bit = avail & -avail
            avail ^= bit
            col = cols[bit.bit_length()]
            if not col:
                continue
            A2 = {}
            for (t, m), c in A.items():
                for ibit, i, num in col:
                    if not m & ibit:
                        continue
                    key = (t, m ^ ibit)
                    p = c * num
                    prev = A2.get(key)
                    # last-slot sign: the bits of the blade above i
                    if prev is None:
                        A2[key] = -p if (m >> i).bit_count() & 1 else p
                        continue
                    p = prev - p if (m >> i).bit_count() & 1 else prev + p
                    if p:
                        A2[key] = p
                    else:
                        del A2[key]
            if not A2:
                continue
            # first-slot sign: the bits of the blade below j
            B2 = {(t, m ^ bit): -c if (m & (bit - 1)).bit_count() & 1 else c
                  for (t, m), c in B.items() if m & bit}
            stack.append((n + 1, A2, B2, bit))


def _wedge_into(acc: dict, n: int, A: dict, B: dict, lift=1) -> None:
    """acc[(ta + tb + n, ma | mb)] += sign * ca * cb * lift over the terms
    of A and B with disjoint blades, the sign that of concatenating the
    blades. acc may keep zero sums."""
    for (tb, mb), cb in B.items():
        tb += n
        if lift != 1:
            cb = cb * lift
        # bit k of par is the parity of the bits of mb below k, so the
        # concatenation sign of ma ^ mb is the parity of ma & par
        par = 0
        rest = mb
        while rest:
            low = rest & -rest
            rest ^= low
            par ^= -(low << 1)
        for (ta, ma), ca in A.items():
            if ma & mb:
                continue
            key = (ta + tb, ma | mb)
            p = ca * cb
            prev = acc.get(key)
            if (ma & par).bit_count() & 1:
                acc[key] = -p if prev is None else prev - p
            else:
                acc[key] = p if prev is None else prev + p


def wedge_terms(A: dict, B: dict) -> dict:
    """The classical wedge of terms {(tag, mask): c}, level 0 of the
    J-sum: zero-free, each key (ta + tb, ma | mb)."""
    acc = {}
    _wedge_into(acc, 0, A, B)
    return {k: c for k, c in acc.items() if c}


def expand_blade_pair(amask: int, bmask: int, pairing: PairTensor):
    """All contraction levels of one blade pair.

    Returns a tuple of (level n, result mask, numerator): the terms of
    the J-sum of the module docstring on two unit blades. The numerator
    of level n is D^n times the coefficient, D being pairing.den, so
    over(numerator, D**n) is the coefficient; it carries neither the
    h^n factor nor any 1/n! weight. Several terms may share a level and
    a mask.
    """
    out = []
    for n, A, B in _contractions({(0, amask): 1}, {(0, bmask): 1},
                                 pairing._cols):
        acc = {}
        _wedge_into(acc, n, A, B)
        out.extend((n, m, c) for (_, m), c in acc.items() if c)
    return tuple(out)


def _normalize_vector(v, dim: int):
    """Accepts a 1-based index, an index->coeff dict, or a coordinate list.

    Components are exact scalars or h-polynomials."""
    if isinstance(v, int):
        if not (1 <= v <= dim):
            raise ValueError("vector index out of range")
        return [(v, Fraction(1))]
    if isinstance(v, dict):
        comps = sorted(v.items())
    elif isinstance(v, (list, tuple)):
        if len(v) != dim:
            raise ValueError("coordinate vector length mismatch")
        comps = enumerate(v, start=1)
    else:
        raise TypeError(f"not a vector: {v!r}")
    return [(i, c if isinstance(c, (GaussRat, HPoly)) else as_fraction(c))
            for i, c in comps if c]


class QForm(PendingTerms):
    """A form with Laurent polynomial h coefficients on a fixed R^dim
    frame."""

    __slots__ = ("dim",)

    def __init__(self, dim: int, terms=None):
        out = {}
        for key, val in dict(terms or {}).items():
            if isinstance(key, Blade):
                mask = key.mask
            elif isinstance(key, tuple):
                mask = mask_of_indices(key)
            else:
                mask = int(key)
            if mask >> dim:
                raise ValueError("blade index exceeds dimension")
            c = val if isinstance(val, HPoly) else HPoly(val)
            add_term(out, mask, c)
        self.terms = out
        self._fill(self, dim)

    def _settle(self, nums, den):
        # the numerators of quantum_wedge, keyed (h exponent, mask): each
        # mask's h exponents in the numerators' order, every coefficient
        # over den
        out = {}
        for (e, m), c in nums.items():
            t = out.get(m)
            if t is None:
                t = out[m] = {}
            t[e] = over(c, den)
        return {m: HPoly._make(t) for m, t in out.items()}

    _COERCE = (int, HPoly, GaussRat, str, Fraction)
    # the benchmark's name for constant(dim, c)
    scalar = vars(SparseTerms)["constant"]

    @staticmethod
    def basis(dim: int, indices, coeff=1) -> "QForm":
        return QForm(dim, {tuple(indices): coeff})

    @staticmethod
    def one_form(dim: int, i: int, coeff=1) -> "QForm":
        return QForm(dim, {(i,): coeff})

    def __mul__(self, scalar):
        # exact-type tests first: isinstance against Fraction goes
        # through the slow ABC check
        t = type(scalar)
        if t is int or t is Fraction:
            pending = self._pending
            if pending is not None and scalar:
                # a pending product times p/q stays pending, as its
                # numerators times p over its denominator times q
                nums, den = pending
                p = scalar.numerator
                return QForm._make_pending({k: c * p for k, c in nums.items()},
                                           den * scalar.denominator,
                                           self.dim)
            if t is int:
                scalar = Fraction(scalar)
        elif t is not HPoly:
            if isinstance(scalar, QForm):
                raise TypeError("use wedge or quantum_wedge for form "
                                "products")
            if isinstance(scalar, (int, str)):
                scalar = as_fraction(scalar)
            if not isinstance(scalar, (Fraction, GaussRat, HPoly)):
                return NotImplemented
        return self._scale(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        # an h-monomial divisor shifts every exponent, below 0 too
        return self._like({m: c / scalar for m, c in self.terms.items()})

    def h_shift(self, k: int) -> "QForm":
        """Multiply by h^k."""
        return self._like({m: c.shift(k) for m, c in self.terms.items()})

    def coeff(self, key) -> HPoly:
        if isinstance(key, Blade):
            key = key.mask
        elif isinstance(key, tuple):
            key = mask_of_indices(key)
        c = self.terms.get(key)
        return HPoly._make({}) if c is None else c

    def blade_degrees(self):
        return sorted({m.bit_count() for m in self.terms})

    def __hash__(self):
        return hash((self.dim, tuple(sorted(
            (m, c) for m, c in self.terms.items()))))

    def classical(self) -> "QForm":
        """The h -> 0 limit; a negative power of h raises
        ZeroDivisionError."""
        out = {}
        for m, c in self.terms.items():
            if min(c.terms) < 0:
                raise ZeroDivisionError("h^-k at h=0")
            if 0 in c.terms:
                out[m] = HPoly._make({0: c.terms[0]})
        return self._like(out)

    def __str__(self):
        # a pending product prints from its int numerators, each reduced
        # over the denominator, and stays pending; Gaussian ones settle
        pending = self._pending
        if pending is not None:
            nums, den = pending
            rows = {}
            for (e, m), c in nums.items():
                if type(c) is not int:
                    break
                g = gcd(c, den)
                row = rows.get(m)
                if row is None:
                    row = rows[m] = []
                row.append((e, c // g, den // g))
            else:
                return format_terms(rows)
        return format_terms(
            {m: [(e, c, 1) if type(c) is GaussRat
                 else (e, c.numerator, c.denominator)
                 for e, c in hc.terms.items()]
             for m, hc in self.terms.items()})

    __repr__ = __str__

    def serialize(self):
        out = {}
        for m in sorted(self.terms,
                        key=lambda m: (m.bit_count(), indices_of_mask(m))):
            out[blade_str(m)] = self.terms[m].serialize()
        return out


def format_terms(rows) -> str:
    """Render rows {mask: [(h exponent, numerator, denominator)]} as
    'e1^e2 + (-1)*h': blades by descending degree, then by their
    indices, and each blade's h powers ascending. A rational coefficient
    comes as its numerator and denominator in lowest terms, the
    denominator positive, and any other scalar as itself over 1."""
    parts = []
    for mask in sorted(rows, key=lambda m: (-m.bit_count(),
                                            indices_of_mask(m))):
        blade = blade_str(mask) if mask else None
        for e, p, q in sorted(rows[mask]):
            pieces = []
            if q != 1:
                pieces.append(f"({p}/{q})")
            elif p == 1:
                if e == 0 and not mask:
                    pieces.append("1")
            else:
                s = str(p)
                pieces.append(s if s.isdigit() else f"({s})")
            if e == 1:
                pieces.append("h")
            elif e != 0:
                pieces.append(f"h^{e}")
            if blade:
                pieces.append(blade)
            if not pieces:
                pieces.append("1")
            parts.append("*".join(pieces))
    return " + ".join(parts) if parts else "0"


def insert_first(v, form: QForm) -> QForm:
    """Contract a vector into the first slot of each blade."""
    out = {}
    for i, ci in _normalize_vector(v, form.dim):
        for m, c in form.terms.items():
            s, m2 = insert_first_mask(i, m)
            if s:
                add_term(out, m2, c * (ci * s))
    return form._like(out)


def substitute(terms: dict, rows) -> dict:
    """terms {mask: coefficient} with each covector i (0-based) rewritten
    as the combination rows[i] of covectors, wedged out in index order.

    A blade's image is then the wedge of its rows, so the coefficient of
    e^A in the image of e^B is the minor det [rows[b][a]] (a in A,
    b in B)."""
    out = {}
    for mask, c in terms.items():
        expanded = {0: c}
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
            add_term(out, m2, c2)
    return out


def wedge(a: QForm, b: QForm) -> QForm:
    """The classical wedge, level 0 of the J-sum, pending over the
    product of the factors' denominators."""
    space = a._join(b)
    ta, da = _numerators(a)
    tb, db = _numerators(b)
    return QForm._make_pending(wedge_terms(ta, tb), da * db, *space)


def quantum_wedge(a: QForm, b: QForm, w: PairTensor) -> QForm:
    """The deformed wedge product a *_h b for a constant pairing w.

    The product is pending until its terms are read (see the module
    docstring); its coefficients are Laurent polynomials in h, as the
    operands' are."""
    space = a._join(b)
    if w.dim != a.dim:
        raise ValueError("dimension mismatch")
    if not w.is_constant():
        raise TypeError("quantum_wedge needs a constant pairing")
    nums, den = product_numerators(*_numerators(a), *_numerators(b), w)
    return QForm._make_pending(nums, den, *space)


def product_numerators(ta: dict, da, tb: dict, db, w: PairTensor):
    """The J-sum of two operands given as numerators {(h exponent,
    mask): numerator} over da and db: (nums, den), the product's
    zero-free numerators on the same keys over den = da * db * D^top.

    No contraction passes the lower top blade degree top of the two, so
    level n, whose A_J is D^n times its value, is lifted by D^(top - n)
    and every level adds into one sum. The walk draws its sets J from
    the blades of its right factor, so when b's blades admit more sets
    than a's, it runs on the reversed product rev(b) *_{w^T} rev(a),
    whose reversal is a *_w b."""
    top = min(max((m.bit_count() for _, m in ta), default=0),
              max((m.bit_count() for _, m in tb), default=0))
    cols = w._cols
    flip = _index_sets(tb) > _index_sets(ta)
    if flip:
        ta, tb, cols = _reversed(tb), _reversed(ta), w._rows
    den = w.den
    acc = {}
    for n, A, B in _contractions(ta, tb, cols):
        _wedge_into(acc, n, A, B, den ** (top - n))
    nums = {k: c for k, c in acc.items() if c}
    return _reversed(nums) if flip else nums, da * db * den ** top


def _index_sets(terms: dict) -> int:
    """The sum of 2^k over terms {(tag, mask): c} of blade degree k: a
    bound on the sets J the walk draws from them."""
    return sum(1 << m.bit_count() for _, m in terms)


def _reversed(terms: dict) -> dict:
    """Reversal, e^{i1}^...^e^{ik} -> (-1)^(k(k-1)/2) e^{i1}^...^e^{ik},
    on terms {(tag, mask): c}. It reverses the order of the factors of a
    wedge and swaps the first and last slots, so it turns a *_w b into
    rev(b) *_{w^T} rev(a)."""
    return {k: -c if k[1].bit_count() & 2 else c for k, c in terms.items()}


def _numerators(form: QForm):
    """form's coefficients over one denominator: terms {(h exponent,
    mask): numerator} and the denominator. A pending product gives the
    numerators it holds."""
    pending = form._pending
    if pending is not None:
        return pending
    keys = [(e, m) for m, hc in form.terms.items() for e in hc.terms]
    nums, den = clear_denominators(c for hc in form.terms.values()
                                   for c in hc.terms.values())
    return dict(zip(keys, nums)), den


def quantum_powers(a: QForm, w: PairTensor):
    """The deformed powers 1, a, a *_h a, ... without end: each is the
    one before it times a, one product each."""
    power = QForm.constant(a.dim, 1)
    while True:
        yield power
        power = quantum_wedge(power, a, w)


def quantum_power(a: QForm, k: int, w: PairTensor) -> QForm:
    """k-fold deformed product a *_h ... *_h a (k = 0 gives 1)."""
    if k < 0:
        raise ValueError("negative power")
    return next(islice(quantum_powers(a, w), k, None))


def quantum_exp(a: QForm, w: PairTensor, order: int) -> QForm:
    """Deformed exponential: sum of a^k_h / k! for series order k <= order.

    The order parameter truncates the exponential series itself; powers
    beyond it are dropped wholesale. (A filter on monomial degree would
    never terminate for arguments with a scalar part.)
    """
    if order < 0:
        raise ValueError("negative order")
    out = QForm.zero(a.dim)
    fact = Fraction(1)
    for k, power in zip(range(order + 1), quantum_powers(a, w)):
        if k:
            fact = fact * k
        out = out + power / fact
    return out


def total_degree(form: QForm):
    """Total degree (blade degree + 2 per power of h); 'mixed' if not pure."""
    degs = set()
    for m, c in form.terms.items():
        k = m.bit_count()
        for e in c.terms:
            degs.add(k + 2 * e)
    if not degs:
        return 0
    if len(degs) == 1:
        return degs.pop()
    return "mixed"


class MultiForm(SparseTerms):
    """A form whose coefficients are polynomials in several parameters."""

    __slots__ = ("dim", "nparams")

    def __init__(self, dim: int, nparams: int, terms=None):
        self.dim = dim
        self.nparams = nparams
        self.terms = {}
        for m, c in dict(terms or {}).items():
            if not isinstance(c, HPolyMulti):
                c = HPolyMulti(nparams, c)
            if c:
                self.terms[int(m)] = c

    def specialize(self, coeffs) -> QForm:
        """Substitute parameter j -> coeffs[j-1] * t, collapsing to QForm."""
        out = {}
        for m, c in self.terms.items():
            add_term(out, m, c.specialize(coeffs))
        return QForm._make(out, self.dim)

    def __str__(self):
        parts = []
        for m in sorted(self.terms, key=lambda m: (-m.bit_count(),
                                                   indices_of_mask(m))):
            c = self.terms[m]
            if not m:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*{blade_str(m)}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def quantum_wedge_multi(a: QForm, b: QForm, ws) -> MultiForm:
    """Deformed product with one parameter per pairing in ws.

    The per-pairing insertion operators commute, so the multi-parameter
    exponential is the single-parameter one of W = sum_p t_p w_p: level n
    of its J-sum has degree n in the t_p. Inputs must be classical
    (h-free) forms.
    """
    ws = list(ws)
    r = len(ws)
    if not r:
        raise ValueError("need at least one pairing")
    for w in ws:
        if w.dim != a.dim:
            raise ValueError("dimension mismatch")
        if not w.is_constant():
            raise TypeError("multi-parameter product needs constant pairings")
    for form in (a, b):
        for c in form.terms.values():
            if set(c.terms) - {0}:
                raise ValueError("multi-parameter product needs h-free inputs")
    entries = {}
    for p, w in enumerate(ws):
        t = (0,) * p + (1,) + (0,) * (r - p - 1)
        for i, j, c in w.ordered_entries():
            add_term(entries, (i, j), HPolyMulti._make({t: c}, r))
    # W's entries clear over D = 1, and the h-free operands' tags are 0,
    # so a key is (level, mask); level 0 alone is scalar
    nums, den = product_numerators(*_numerators(a), *_numerators(b),
                                   PairTensor(a.dim, entries))
    out = {}
    for (n, m), c in nums.items():
        c = over(c, den)
        add_term(out, m, c if n else HPolyMulti._make({(0,) * r: c}, r))
    return MultiForm._make(out, a.dim, r)
