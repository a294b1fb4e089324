"""The two-pass Dolbeault split, kept as the reference for qdr.fields.

A hand-typed expansion of each real blade on the frame covectors
f^a = e^{2a-1} + i e^{2a} and their conjugates, grouped by how many
holomorphic (p) and antiholomorphic (q) factors each term has and
expanded back to real covectors; del and delbar are the type (p+1, q)
and (p, q+1) parts of d of each type component.  Shared by the tests
that check the library's del against it.
"""

import json
from fractions import Fraction
from functools import lru_cache

from qdr.blades import blade_degree, wedge_masks
from qdr.fields import FieldForm, contract_field, exterior_d
from qdr.scalars import GaussRat, add_term


def _indices(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@lru_cache(maxsize=None)
def ref_halves(n, rmask):
    half = GaussRat(Fraction(1, 2))
    ihalf = GaussRat(0, Fraction(1, 2))
    state = {0: GaussRat(1)}
    for r in _indices(rmask):
        a = (r + 1) // 2
        if r % 2:
            options = ((a, half), (n + a, half))
        else:
            options = ((a, -ihalf), (n + a, ihalf))
        nxt = {}
        for cm, co in state.items():
            for idx, wgt in options:
                s, m2 = wedge_masks(cm, 1 << (idx - 1))
                if s:
                    add_term(nxt, m2, co * wgt * s)
        state = nxt
    low = (1 << n) - 1
    out = {}
    one = GaussRat(1)
    im = GaussRat(0, 1)
    for cmask, co in state.items():
        p = blade_degree(cmask & low)
        q = blade_degree(cmask >> n)
        back = {0: co}
        for idx in _indices(cmask):
            a = idx if idx <= n else idx - n
            iw = im if idx <= n else -im
            nxt = {}
            for rm, c in back.items():
                for rbit, wgt in (((2 * a - 1), one), ((2 * a), iw)):
                    s, m2 = wedge_masks(rm, 1 << (rbit - 1))
                    if s:
                        add_term(nxt, m2, c * wgt * s)
            back = nxt
        dest = out.setdefault((p, q), {})
        for rm, c in back.items():
            add_term(dest, rm, c)
    return {pq: sub for pq, sub in out.items() if sub}


def ref_bidegree_split(form):
    n = form.dim // 2
    comps = {}
    for (h, mask), fn in form.terms.items():
        for pq, sub in ref_halves(n, mask).items():
            dest = comps.setdefault(pq, {})
            for rm, c in sub.items():
                add_term(dest, (h, rm), fn * c)
    return {pq: form._like(t) for pq, t in comps.items() if t}


def _ref_project(form, p, q):
    return ref_bidegree_split(form).get(
        (p, q), FieldForm.zero(form.dim, form.fnring))


def ref_partial_d(form):
    out = FieldForm.zero(form.dim, form.fnring)
    for (p, q), comp in ref_bidegree_split(form).items():
        out = out + _ref_project(exterior_d(comp), p + 1, q)
    return out


def ref_partial_dbar(form):
    out = FieldForm.zero(form.dim, form.fnring)
    for (p, q), comp in ref_bidegree_split(form).items():
        out = out + _ref_project(exterior_d(comp), p, q + 1)
    return out


def ref_dolbeault_deltas(form, w):
    """The type components of delta: (lowers p, lowers q)."""
    d10 = contract_field(w, ref_partial_dbar(form)) - \
        ref_partial_dbar(contract_field(w, form))
    d01 = contract_field(w, ref_partial_d(form)) - \
        ref_partial_d(contract_field(w, form))
    return d10, d01


def ref_quantum_dolbeault_split(form, w):
    d10, d01 = ref_dolbeault_deltas(form, w)
    return (ref_partial_d(form) - d01.h_shift(1),
            ref_partial_dbar(form) - d10.h_shift(1))


def same_form(a, b):
    """Equal in value, in str and in serialize() bytes."""
    return (a == b and str(a) == str(b)
            and json.dumps(a.serialize()) == json.dumps(b.serialize()))


