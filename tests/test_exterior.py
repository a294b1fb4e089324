"""Deformed wedge product: frozen values first, then ring properties,
then the contraction kernel against slow reference paths."""

import ast
import inspect
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import pytest

from qdr import exterior, fields
from qdr.bigraded import Frame, standard_frame
from qdr.blades import (
    blade_degree,
    indices_of_mask,
    insert_first_mask,
    insert_last_mask,
    mask_of_indices,
    wedge_masks,
)
from qdr.exterior import (
    Bivector,
    MultiForm,
    PairTensor,
    QForm,
    _contractions,
    _wedge_into,
    expand_blade_pair,
    insert_first,
    quantum_exp,
    quantum_power,
    quantum_wedge,
    quantum_wedge_multi,
    total_degree,
    wedge,
)
from qdr.fixtures import (heisenberg, lie_poisson_so3, standard_symplectic,
                          torus)
from qdr.rand import (
    random_bivector,
    random_fieldform,
    random_fourierfn,
    random_gauss,
    random_pairing,
    random_polyfn,
    random_qform,
)
from qdr.functions import FourierFn, PolyFn, moyal_product
from qdr.scalars import (GaussRat, HPoly, HPolyMulti, SparseTerms, add_term,
                         clear_denominators, over)
from qdr.symplectic import SymplecticForm

E1 = QForm.one_form(2, 1)
E2 = QForm.one_form(2, 2)
E12 = QForm.basis(2, (1, 2))
W2 = Bivector.standard(2)          # w^{12} = -1
W4 = Bivector.standard(4)


def omega(dim):
    out = QForm.zero(dim)
    for a in range(1, dim // 2 + 1):
        out = out + QForm.basis(dim, (2 * a - 1, 2 * a))
    return out


def test_insertion_slots():
    assert insert_first(1, E12) == E2
    assert insert_first(2, E12) == -E1
    assert insert_first(1, E1) == QForm.scalar(2, 1)
    assert insert_first(2, E1).is_zero()


def test_insertion_general_vector():
    v = {1: Fraction(2), 2: Fraction(-3)}
    assert insert_first(v, E12) == 2 * E2 + 3 * E1
    assert insert_first([Fraction(2), Fraction(-3)], E12) == 2 * E2 + 3 * E1


def test_classical_wedge_signs():
    assert wedge(E1, E2) == E12
    assert wedge(E2, E1) == -E12
    assert wedge(E1, E1).is_zero()
    a = QForm.basis(4, (1, 3))
    b = QForm.basis(4, (2,))
    assert wedge(a, b) == -QForm.basis(4, (1, 2, 3))


def test_quantum_wedge_frozen_pair():
    # e1 *_h e2 = e1^e2 - h for the standard pairing
    out = quantum_wedge(E1, E2, W2)
    assert out == E12 - QForm.scalar(2, HPoly({1: 1}))
    assert str(out) == "e1^e2 + (-1)*h"


def test_quantum_wedge_omega_dim2():
    out = quantum_wedge(omega(2), omega(2), W2)
    assert out == QForm(2, {(1, 2): HPoly({1: 2}), 0: HPoly({2: -1})})


def test_quantum_wedge_omega_dim4():
    om = omega(4)
    om2 = wedge(om, om)
    assert om2 == 2 * QForm.basis(4, (1, 2, 3, 4))
    assert quantum_wedge(om, om, W4) == om2 + HPoly({1: 2}) * om \
        - QForm.scalar(4, HPoly({2: 2}))
    assert quantum_wedge(om, om2, W4) == HPoly({1: 4}) * om2 \
        - HPoly({2: 2}) * om
    p3 = quantum_power(om, 3, W4)
    assert p3 == HPoly({1: 6}) * om2 - QForm.scalar(4, HPoly({3: 4}))


def test_quantum_power_frozen():
    base = omega(2) - QForm.scalar(2, HPoly({1: 1}))
    assert quantum_power(base, 2, W2).is_zero()
    assert quantum_power(base, 0, W2) == QForm.scalar(2, 1)


def test_quantum_exp_frozen():
    out = quantum_exp(omega(2), W2, 2)
    want = QForm(2, {0: HPoly({0: 1, 2: Fraction(-1, 2)}),
                     (1, 2): HPoly({0: 1, 1: 1})})
    assert out == want


def test_negative_power_and_order_are_rejected():
    with pytest.raises(ValueError):
        quantum_power(E1, -1, W2)
    with pytest.raises(ValueError):
        quantum_exp(omega(2), W2, -3)
    assert quantum_exp(omega(2), W2, 0) == QForm.scalar(2, 1)


def test_quantum_wedge_multi_frozen():
    out = quantum_wedge_multi(E1, E2, (W2, W2))
    assert out.terms[0b11] == 1
    assert out.terms[0].terms == {(1, 0): Fraction(-1), (0, 1): Fraction(-1)}


def test_total_degree():
    assert total_degree(omega(2) - QForm.scalar(2, HPoly({1: 1}))) == 2
    assert total_degree(E1) == 1
    assert total_degree(E1 + E12) == "mixed"
    assert total_degree(QForm.zero(2)) == 0


def test_supercommutativity_random():
    rng = Random(101)
    for _ in range(60):
        dim = rng.choice([2, 4, 6])
        w = random_bivector(rng, dim)
        p = rng.choice(range(dim + 1))
        q = rng.choice(range(dim + 1))
        a = random_qform(rng, dim, nterms=2, degree=p)
        b = random_qform(rng, dim, nterms=2, degree=q)
        lhs = quantum_wedge(a, b, w)
        rhs = quantum_wedge(b, a, w)
        if (p * q) % 2:
            assert lhs == -rhs
        else:
            assert lhs == rhs


def test_associativity_random_including_general_pairing():
    rng = Random(202)
    for trial in range(40):
        dim = rng.choice([2, 4])
        w = random_pairing(rng, dim) if trial % 2 else random_bivector(rng, dim)
        a = random_qform(rng, dim, nterms=2)
        b = random_qform(rng, dim, nterms=2)
        c = random_qform(rng, dim, nterms=2)
        lhs = quantum_wedge(quantum_wedge(a, b, w), c, w)
        rhs = quantum_wedge(a, quantum_wedge(b, c, w), w)
        assert lhs == rhs


def test_classical_limit_is_plain_wedge():
    rng = Random(303)
    for _ in range(30):
        dim = rng.choice([2, 4, 6])
        w = random_bivector(rng, dim)
        a = random_qform(rng, dim, nterms=2, max_h=0)
        b = random_qform(rng, dim, nterms=2, max_h=0)
        assert quantum_wedge(a, b, w).classical() == wedge(a, b)
    # h -> 0 has no value on a negative power of h
    with pytest.raises(ZeroDivisionError):
        E1.h_shift(-1).classical()


def test_grading_h_counts_double():
    # pure blade inputs of degree p, q only produce terms with
    # blade degree + 2*(h power) == p + q
    rng = Random(404)
    for _ in range(30):
        dim = rng.choice([2, 4, 6])
        w = random_bivector(rng, dim)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        a = random_qform(rng, dim, nterms=2, max_h=0, degree=p)
        b = random_qform(rng, dim, nterms=2, max_h=0, degree=q)
        out = quantum_wedge(a, b, w)
        td = total_degree(out)
        assert out.is_zero() or td == p + q


def test_multiparameter_specialization_matches_single():
    rng = Random(505)
    for _ in range(25):
        dim = rng.choice([2, 4])
        ws = [random_bivector(rng, dim) for _ in range(rng.choice([2, 3]))]
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in ws]
        a = random_qform(rng, dim, nterms=2, max_h=0)
        b = random_qform(rng, dim, nterms=2, max_h=0)
        multi = quantum_wedge_multi(a, b, ws)
        total = ws[0].scale(coeffs[0])
        for w, c in zip(ws[1:], coeffs[1:]):
            total = total + w.scale(c)
        assert multi.specialize(coeffs) == quantum_wedge(a, b, total)


def test_multi_requires_classical_inputs():
    with pytest.raises(ValueError):
        quantum_wedge_multi(QForm.scalar(2, HPoly({1: 1})), E1, (W2,))


def test_blade_type():
    # a blade is its mask: bit i - 1 for the index i
    b = mask_of_indices((1, 3))
    assert b == 0b101
    assert blade_degree(b) == 2 and indices_of_mask(b) == (1, 3)
    s, m = wedge_masks(b, mask_of_indices((2,)))
    assert s == -1 and indices_of_mask(m) == (1, 2, 3)
    with pytest.raises(ValueError):
        QForm.basis(2, (1, 3))
    with pytest.raises(ValueError):
        mask_of_indices((2, 2))
    # QForm.coeff reads an index tuple as a blade in increasing order, and
    # a reordered or repeated one raises where its sign or vanishing
    # would be lost
    for bad in ((2, 1), (1, 1)):
        with pytest.raises(ValueError):
            QForm.basis(2, (1, 2)).coeff(bad)


# ------------------------------------------------- contraction kernel
#
# The references below expand every blade pair breadth first, one pair
# insertion per level with a 1/n! weight, and accumulate HPolys, field
# coefficients or one level loop per parameter: the slow paths the
# whole-form kernel replaced. They share no code with it.


def reference_expand_blade_pair(amask, bmask, pairing):
    entries = pairing.ordered_entries()
    state = {(amask, bmask): Fraction(1)}
    out = []
    n = 0
    factinv = Fraction(1)
    while state:
        for (a, b), c in state.items():
            s, m = wedge_masks(a, b)
            if s:
                out.append((n, m, c * (s * factinv)))
        nxt = {}
        for (a, b), c in state.items():
            if not a or not b:
                continue
            for i, j, wij in entries:
                sa, a2 = insert_last_mask(a, i)
                if not sa:
                    continue
                sb, b2 = insert_first_mask(j, b)
                if not sb:
                    continue
                add = (sa * sb) * c * wij
                prev = nxt.get((a2, b2))
                nxt[(a2, b2)] = add if prev is None else prev + add
        state = {k: v for k, v in nxt.items() if v}
        n += 1
        factinv = factinv / n
    return tuple(out)


def reference_quantum_wedge(a, b, w):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            base = ca * cb
            for n, m, q in reference_expand_blade_pair(ma, mb, w):
                add = (base * q).shift(n)
                prev = out.get(m)
                add = add if prev is None else prev + add
                if add:
                    out[m] = add
                else:
                    out.pop(m, None)
    return QForm(a.dim, out)


def reference_quantum_wedge_field(a, b, w):
    t = {}
    for (ha, ma), fa in a.terms.items():
        for (hb, mb), fb in b.terms.items():
            fab = fa * fb
            for n, m, q in reference_expand_blade_pair(ma, mb, w):
                add_term(t, (ha + hb + n, m), fab * q)
    return a._like(t)


def reference_quantum_wedge_multi(a, b, ws):
    ws = list(ws)
    r = len(ws)
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            state = {(ma, mb): HPolyMulti(
                r, ca.constant_coeff() * cb.constant_coeff())}
            for p, w in enumerate(ws, start=1):
                entries = w.ordered_entries()
                acc = {}
                level = state
                n = 0
                fact = Fraction(1)
                while level:
                    # the monomial h_p^n / n!
                    weight = HPolyMulti(r, {(0,) * (p - 1) + (n,)
                                            + (0,) * (r - p): 1 / fact})
                    for key, c in level.items():
                        add = c * weight
                        prev = acc.get(key)
                        acc[key] = add if prev is None else prev + add
                    nxt = {}
                    for (am, bm), c in level.items():
                        if not am or not bm:
                            continue
                        for i, j, wij in entries:
                            sa, a2 = insert_last_mask(am, i)
                            if not sa:
                                continue
                            sb, b2 = insert_first_mask(j, bm)
                            if not sb:
                                continue
                            add = c * (wij * sa * sb)
                            prev = nxt.get((a2, b2))
                            nxt[(a2, b2)] = add if prev is None else prev + add
                    level = {k: v for k, v in nxt.items() if v}
                    n += 1
                    fact = fact * n
                state = {k: v for k, v in acc.items() if v}
            for (am, bm), c in state.items():
                s, m = wedge_masks(am, bm)
                if not s:
                    continue
                add = c * s
                prev = out.get(m)
                add = add if prev is None else prev + add
                if add:
                    out[m] = add
                else:
                    out.pop(m, None)
    return MultiForm._make(out, a.dim, r)


def divided(expansion, w):
    """The kernel's level-n numerators over D^n: its coefficients."""
    return [(n, m, over(c, w.den ** n)) for n, m, c in expansion]


def summed(expansion):
    """(level, mask) -> (coefficient, its type), zero sums dropped."""
    acc = {}
    for n, m, c in expansion:
        acc[(n, m)] = c if (n, m) not in acc else acc[(n, m)] + c
    return {k: (c, type(c)) for k, c in acc.items() if c}


def assert_same_product(new, ref):
    assert new == ref
    assert new.serialize() == ref.serialize()


def test_kernel_matches_reference_on_random_pairings():
    rng = Random(611)
    for trial in range(300):
        dim = 2 + trial % 7
        w = (random_pairing(rng, dim) if trial % 2
             else random_bivector(rng, dim))
        a, b = rng.randrange(1 << dim), rng.randrange(1 << dim)
        assert summed(divided(expand_blade_pair(a, b, w), w)) == \
            summed(reference_expand_blade_pair(a, b, w))
    for trial in range(40):
        dim = 2 + trial % 5
        w = (random_pairing(rng, dim) if trial % 2
             else random_bivector(rng, dim))
        x = random_qform(rng, dim, nterms=3)
        y = random_qform(rng, dim, nterms=3)
        assert_same_product(quantum_wedge(x, y, w),
                            reference_quantum_wedge(x, y, w))


def test_kernel_matches_reference_on_gaussian_pairings():
    rng = Random(612)
    for frame in (standard_frame(1), standard_frame(2),
                  Frame(SymplecticForm(4))):
        w = frame.wcx()
        dim = w.dim
        for _ in range(30):
            a, b = rng.randrange(1 << dim), rng.randrange(1 << dim)
            assert summed(divided(expand_blade_pair(a, b, w), w)) == \
                summed(reference_expand_blade_pair(a, b, w))
        x = random_qform(rng, dim, nterms=3)
        y = random_qform(rng, dim, nterms=3)
        assert_same_product(quantum_wedge(x, y, w),
                            reference_quantum_wedge(x, y, w))


@pytest.mark.parametrize("build", [lie_poisson_so3, heisenberg,
                                   lambda: torus(1, 1), lambda: torus(2, 1)])
def test_field_product_matches_reference(build):
    model = build()
    rng = Random(613)
    pairs = [(random_fieldform(rng, model, nterms=2),
              random_fieldform(rng, model, nterms=2)) for _ in range(6)]
    assert_field_product_matches_reference(model.poisson, pairs)


def assert_field_product_matches_reference(w, pairs):
    new = [fields.quantum_wedge_field(x, y, w) for x, y in pairs]
    ref = [reference_quantum_wedge_field(x, y, w) for x, y in pairs]
    assert new == ref
    assert [f.serialize() for f in new] == [f.serialize() for f in ref]


def _x(dim, j, c=1):
    return PolyFn.coord(dim, j) * Fraction(c)


def _flat_rescaled(rng):
    # the flat model's pairing times 2/3, and one more entry: den 12
    model = standard_symplectic(2)
    entries = {(i, j): c * Fraction(2, 3)
               for i, j, c in model.poisson.upper_entries()}
    entries[(1, 3)] = Fraction(-3, 4)
    w = fields.PoissonField(4, entries)
    assert w.den == 12
    return w, [(random_fieldform(rng, model, nterms=3),
                random_fieldform(rng, model, nterms=3)) for _ in range(5)]


def _polyfn_fractions(rng):
    # PolyFn entries and coefficients over non-unit denominators, with h
    # exponents from -2 to 1
    w = fields.PoissonField(3, {(1, 2): _x(3, 3, Fraction(1, 2)),
                                (2, 3): _x(3, 1),
                                (3, 1): _x(3, 2, Fraction(-2, 5))})
    assert w.den == 10

    def form():
        return fields.FieldForm(3, PolyFn, {
            (rng.randint(-2, 1), rng.randrange(8)):
            random_polyfn(rng, 3) * Fraction(1, rng.choice([2, 3, 5, 7]))
            for _ in range(3)})
    return w, [(form(), form()) for _ in range(5)]


def _fourier_gauss(rng):
    # FourierFn coefficients with Gaussian-rational TauNumber values
    model = torus(1, 1)
    w = fields.PoissonField(2, {(1, 2): Fraction(-3, 4)})

    def form():
        return fields.FieldForm(2, FourierFn, {
            (rng.randint(-1, 1), rng.randrange(4)):
            random_fourierfn(rng, 2) * GaussRat(Fraction(1, 2),
                                                Fraction(-1, 5))
            for _ in range(3)})
    pairs = [(form(), form()) for _ in range(5)]
    pairs.append((random_fieldform(rng, model), model.zero_form()))
    return w, pairs


def _mixed_entries(rng):
    # a PoissonField with constant and PolyFn entries, complex and
    # rational coefficients
    model = lie_poisson_so3()
    w = fields.PoissonField(3, {(1, 2): Fraction(1, 2),
                                (2, 3): _x(3, 1, Fraction(2, 3)),
                                (1, 3): Fraction(-3)})
    assert w.den == 6 and not w.is_constant()
    return w, [(random_fieldform(rng, model, nterms=3, complex_ok=k % 2),
                random_fieldform(rng, model, nterms=3))
               for k in range(5)]


def _moyal_values(rng):
    # HPoly-valued PolyFn coefficients, which clearing leaves as they are
    w = fields.PoissonField(2, {(1, 2): Fraction(2, 3)})
    flat = Bivector.standard(2)

    def form():
        return fields.FieldForm(2, PolyFn, {
            (rng.randint(0, 1), rng.randrange(4)):
            moyal_product(random_polyfn(rng, 2), random_polyfn(rng, 2), flat)
            for _ in range(2)})
    return w, [(form(), form()) for _ in range(4)]


@pytest.mark.parametrize("build", [_flat_rescaled, _polyfn_fractions,
                                   _fourier_gauss, _mixed_entries,
                                   _moyal_values])
def test_field_product_matches_reference_on_denominators(build):
    w, pairs = build(Random(625))
    assert_field_product_matches_reference(w, pairs)


def test_field_product_divides_once_per_output_coefficient(monkeypatch):
    w, pairs = _polyfn_fractions(Random(626))
    divided, levels = [], []
    real_over, real_walk = fields.over, exterior._contractions

    def counting_over(num, den):
        divided.append(1)
        return real_over(num, den)

    def walk(A, B, cols):
        for level in real_walk(A, B, cols):
            # nothing is divided while the J-sum is walked
            assert not divided
            levels.append(level[0])
            yield level
    monkeypatch.setattr(fields, "over", counting_over)
    monkeypatch.setattr(exterior, "_contractions", walk)
    for x, y in pairs:
        divided.clear()
        out = fields.quantum_wedge_field(x, y, w)
        assert len(divided) == len(out.terms)
        assert out == reference_quantum_wedge_field(x, y, w)
    assert max(levels) >= 2


def test_fields_runs_no_kernel_of_its_own():
    tree = ast.parse(inspect.getsource(fields))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"_contractions", "_wedge_into"}
    assert {"product_numerators", "wedge_terms"} <= names


def test_kernel_matches_reference_on_omega_powers_dim10():
    w = Bivector.standard(10)
    om = omega(10)
    powers = [om, wedge(om, om), wedge(wedge(om, om), om)]
    for p in powers:
        for q in powers:
            for a in p.terms:
                for b in q.terms:
                    assert summed(divided(expand_blade_pair(a, b, w), w)) == \
                        summed(reference_expand_blade_pair(a, b, w))
    assert_same_product(quantum_wedge(powers[1], powers[2], w),
                        reference_quantum_wedge(powers[1], powers[2], w))


def permutation_det(rows):
    size = len(rows)
    total = Fraction(0)
    for perm in permutations(range(size)):
        inversions = sum(perm[u] > perm[v] for u in range(size)
                         for v in range(u + 1, size))
        term = Fraction((-1) ** inversions)
        for k in range(size):
            term *= rows[k][perm[k]]
        total += term
    return total


def minor_oracle(amask, bmask, w):
    """(n, a', b') -> sA * sB * det w[I, J] over all equal-size I, J."""
    out = {}
    a_idx, b_idx = indices_of_mask(amask), indices_of_mask(bmask)
    for n in range(min(len(a_idx), len(b_idx)) + 1):
        for rows in combinations(a_idx, n):
            sa, a2 = 1, amask
            for i in rows:
                s, a2 = insert_last_mask(a2, i)
                sa *= s
            for cols in combinations(b_idx, n):
                sb, b2 = 1, bmask
                for j in cols:
                    s, b2 = insert_first_mask(j, b2)
                    sb *= s
                det = permutation_det([[w.entry(i, j) for j in cols]
                                       for i in rows])
                if det:
                    out[(n, a2, b2)] = sa * sb * det
    return out


def contraction_minors(amask, bmask, w):
    """(n, a', b') -> coefficient of the pair e^a' (x) e^b' in the
    contractions of two unit blades: B_J is one signed blade, so each
    term of A_J times it is one signed minor."""
    out = {}
    for n, A, B in _contractions({(0, amask): 1}, {(0, bmask): 1},
                                 w._cols):
        [((_, b2), cb)] = B.items()
        for (_, a2), ca in A.items():
            assert (n, a2, b2) not in out
            out[(n, a2, b2)] = over(ca * cb, w.den ** n)
    return out


def test_level_coefficients_are_signed_minors():
    rng = Random(614)
    for trial in range(150):
        dim = 2 + trial % 5
        w = random_pairing(rng, dim, density=0.7) if trial % 2 \
            else random_bivector(rng, dim)
        a, b = rng.randrange(1 << dim), rng.randrange(1 << dim)
        assert contraction_minors(a, b, w) == minor_oracle(a, b, w)
    # e1^e2 against e1^e2: the 2x2 level is det [[w11, w12], [w21, w22]]
    w = PairTensor(2, {(1, 1): 2, (1, 2): 3, (2, 1): 5, (2, 2): 7})
    top = mask_of_indices((1, 2))
    assert contraction_minors(top, top, w)[(2, 0, 0)] == -(2 * 7 - 3 * 5)


def full_form(rng, dim, degree, coeff):
    """Every blade of one degree, with random nonzero coefficients."""
    return QForm(dim, {m: coeff(rng) for m in range(1 << dim)
                       if m.bit_count() == degree})


def test_merged_blades_match_reference():
    # full forms of degrees 3 and 4 at dim 6: blades of a that lose
    # different indices to one remainder merge before the next
    # contraction, and every blade of b that holds J shares one A_J
    rng = Random(621)
    general = random_pairing(rng, 6, density=0.7)
    zero_col = PairTensor(6, {(i, j): c for i, j, c in
                              random_pairing(rng, 6).ordered_entries()
                              if j != 3})
    assert not zero_col._cols[3]
    gauss = standard_frame(3).wcx()
    rational = lambda r: HPoly({r.randrange(2): Fraction(r.randint(1, 5),
                                                         r.randint(1, 4))})
    gaussian = lambda r: HPoly({r.randrange(2): random_gauss(r) or 1})
    for w, coeff in ((general, rational), (zero_col, rational),
                     (gauss, gaussian)):
        x, y = full_form(rng, 6, 3, coeff), full_form(rng, 6, 4, coeff)
        assert_same_product(quantum_wedge(x, y, w),
                            reference_quantum_wedge(x, y, w))


# --------------------------------------- numerators over one denominator


MIXED = PairTensor(2, {(1, 1): Fraction(1, 2), (1, 2): Fraction(2, 3),
                       (2, 1): Fraction(5, 4)})
GAUSS = PairTensor(2, {(1, 2): GaussRat(Fraction(1, 2), Fraction(-1, 3)),
                       (2, 1): GaussRat(0, Fraction(3, 4)),
                       (2, 2): Fraction(2, 5)})


def numerators(w):
    """{(i, j): numerator of w^{ij}} from the pairing's column lists."""
    out = {}
    for j, col in enumerate(w._cols):
        for bit, i, num in col:
            assert bit == 1 << (i - 1)
            out[(i, j)] = num
    return out


def test_pairing_keeps_numerators_over_one_denominator():
    assert MIXED.den == 12
    assert numerators(MIXED) == {(1, 1): 6, (1, 2): 8, (2, 1): 15}
    assert GAUSS.den == 60
    nums = numerators(GAUSS)
    assert nums == {(1, 2): GaussRat(30, -20), (2, 1): GaussRat(0, 45),
                    (2, 2): 24}
    assert [type(nums[k].re) for k in ((1, 2), (2, 1))] == [int, int]
    # a PolyFn entry is cleared too: x1/3 is the int-leaf x1 over 3
    x1 = PolyFn.coord(2, 1)
    fn = fields.PoissonField(2, {(1, 2): x1 * Fraction(1, 3)})
    assert fn.den == 3
    nums = numerators(fn)
    assert nums == {(1, 2): x1, (2, 1): -x1}
    assert [type(c) for k in ((1, 2), (2, 1))
            for c in nums[k].terms.values()] == [int, int]
    # an HPoly-valued PolyFn entry, as moyal_product builds, leaves every
    # entry as it is, over 1: the rational one too
    moyal = moyal_product(x1, PolyFn.coord(2, 2), W2)
    assert {type(c) for c in moyal.terms.values()} == {HPoly}
    hw = PairTensor(2, {(1, 2): moyal, (2, 1): Fraction(1, 2)})
    assert hw.den == 1
    nums = numerators(hw)
    assert nums == hw.entries
    assert all(nums[k] is hw.entries[k] for k in nums)


def test_pairing_entry_reads_one_shared_zero_off_its_support():
    w = PairTensor(3, {(1, 2): Fraction(2, 3), (3, 1): GaussRat(0, 1)})
    assert w.entry(1, 2) == Fraction(2, 3)
    assert w.entry(1, 2) is w.entries[(1, 2)]
    assert w.entry(3, 1) == GaussRat(0, 1)
    zero = w.entry(2, 1)
    assert zero == 0 and type(zero) is Fraction
    # a miss builds nothing: every one reads the same zero
    assert w.entry(1, 1) is zero and W4.entry(1, 3) is zero
    assert W4.entry(1, 2) == -1 and W4.entry(2, 1) == 1


def test_mixed_denominators_match_reference_with_laurent_flags():
    # the e1^e2 sum of x *_h y meets several denominators and cancels on
    # the way to its value
    x = QForm(2, {0b01: HPoly({0: Fraction(2, 3)}),
                  0b10: HPoly({0: Fraction(1, 2)}),
                  0b11: HPoly({0: Fraction(1, 5)})})
    y = QForm(2, {0b10: Fraction(3, 4), 0b01: 1, 0: 7})
    out = quantum_wedge(x, y, MIXED)
    assert out.coeff(0b11) == HPoly({0: Fraction(7, 5)})
    assert_same_product(out, reference_quantum_wedge(x, y, MIXED))
    rng = Random(617)
    units = [HPoly({0: Fraction(2, 3)}), HPoly({1: Fraction(-5, 4)}),
             HPoly({-1: Fraction(3, 7)}), HPoly({0: Fraction(-2, 3)}),
             HPoly({0: Fraction(2, 3)})]
    for _ in range(60):
        x, y = (QForm(2, {rng.randrange(4): rng.choice(units)
                          for _ in range(3)}) for _ in range(2))
        assert_same_product(quantum_wedge(x, y, MIXED),
                            reference_quantum_wedge(x, y, MIXED))


def test_gaussian_denominators_match_reference():
    rng = Random(618)
    for a in range(4):
        for b in range(4):
            assert summed(divided(expand_blade_pair(a, b, GAUSS), GAUSS)) \
                == summed(reference_expand_blade_pair(a, b, GAUSS))
    for _ in range(30):
        x = random_qform(rng, 2, nterms=3)
        y = QForm(2, {rng.randrange(4): HPoly({rng.randrange(2):
                                               random_gauss(rng)})
                      for _ in range(3)})
        assert_same_product(quantum_wedge(x, y, GAUSS),
                            reference_quantum_wedge(x, y, GAUSS))
        assert_same_product(quantum_wedge(y, x, GAUSS),
                            reference_quantum_wedge(y, x, GAUSS))


def test_rational_poisson_field_matches_reference():
    w = fields.PoissonField(4, {(1, 2): Fraction(2, 3), (3, 4): Fraction(5, 4),
                                (1, 3): Fraction(-1, 2)})
    assert w.is_constant() and w.den == 12
    rng = Random(619)
    pairs = []
    for _ in range(6):
        x, y = (random_qform(rng, 4, nterms=3) for _ in range(2))
        assert_same_product(quantum_wedge(x, y, w),
                            reference_quantum_wedge(x, y, w))
        assert fields.quantum_wedge_field(
            fields.lift(x, PolyFn), fields.lift(y, PolyFn), w) == \
            fields.lift(quantum_wedge(x, y, w), PolyFn)
        pairs.append(tuple(
            fields.FieldForm(4, PolyFn, {(rng.randrange(2), rng.randrange(16)):
                                         random_polyfn(rng, 4)
                                         for _ in range(2)})
            for _ in range(2)))
    assert_field_product_matches_reference(w, pairs)


def leaves(value):
    """The innermost scalars of a value: Fraction parts and the like."""
    if isinstance(value, SparseTerms):
        for c in value.terms.values():
            yield from leaves(c)
    elif isinstance(value, GaussRat):
        yield value.re
        yield value.im
    else:
        yield value


def test_only_fractions_leave_the_kernel():
    rng = Random(620)
    x, y = (random_qform(rng, 2, nterms=4) for _ in range(2))
    z = QForm(2, {0b01: random_gauss(rng), 0b10: 1, 0b11: HPoly({1: 2})})
    std = fields.PoissonField(2, {(1, 2): 1})
    # Gaussian integers all through: every denominator is 1
    gint = PairTensor(2, {(1, 2): GaussRat(0, 1), (2, 1): 2})
    zint = QForm(2, {0b01: GaussRat(1, 2), 0b10: GaussRat(0, -1)})
    assert gint.den == 1
    products = [quantum_wedge(x, y, MIXED), quantum_wedge(z, y, MIXED),
                quantum_wedge(x, y, GAUSS), quantum_wedge(z, z, GAUSS),
                quantum_wedge(zint, zint, gint),
                quantum_wedge(x, y, W2), quantum_wedge(E1, E2, std),
                quantum_wedge_multi(x.classical(), y.classical(),
                                    (MIXED, W2)),
                fields.quantum_wedge_field(fields.lift(x, PolyFn),
                                           fields.lift(y, PolyFn), std),
                fields.quantum_wedge_field(fields.lift(x, PolyFn),
                                           fields.lift(z, PolyFn), std)]
    assert all(products)
    for p in products:
        assert {type(c) for c in leaves(p)} == {Fraction}, p
    for w in (MIXED, GAUSS, gint, std):
        for a in range(4):
            for b in range(4):
                for _, _, c in divided(expand_blade_pair(a, b, w), w):
                    assert {type(v) for v in leaves(c)} == {Fraction}


def test_multi_matches_reference_level_loop():
    rng = Random(615)
    for trial in range(25):
        dim = rng.choice([2, 4])
        ws = [random_pairing(rng, dim) if (trial + k) % 2
              else random_bivector(rng, dim)
              for k in range(rng.choice([1, 2, 3]))]
        a = random_qform(rng, dim, nterms=3, max_h=0)
        b = random_qform(rng, dim, nterms=3, max_h=0)
        assert quantum_wedge_multi(a, b, ws) == \
            reference_quantum_wedge_multi(a, b, ws)


def test_quantum_wedge_keeps_laurent_flags():
    laurent = HPoly({-1: 1})
    a = QForm(4, {(1,): laurent, (3,): HPoly({0: 1})})
    e2 = QForm.one_form(4, 2)
    out = quantum_wedge(a, e2, W4)
    # the h^-1 of a's e1 coefficient meets the h of one contraction in
    # the scalar part
    assert out == QForm(4, {(1, 2): laurent, 0: -1, (2, 3): -1})
    assert_same_product(out, reference_quantum_wedge(a, e2, W4))
    # the e1^e2 sum cancels on the way to its value
    one = HPoly({0: 1})
    x = QForm(2, {0b01: one, 0b10: one, 0b11: one})
    y = QForm(2, {0b10: 1, 0b01: 1, 0: 1})
    out = quantum_wedge(x, y, W2)
    assert out.coeff(0b11) == one
    assert_same_product(out, reference_quantum_wedge(x, y, W2))
    rng = Random(616)
    units = [HPoly({0: 1}), HPoly({0: -1}), HPoly({1: 1}), HPoly({-1: 1}),
             HPoly({0: 1}), HPoly({0: -1})]
    for _ in range(60):
        dim = rng.choice([2, 4])
        w = random_bivector(rng, dim, span=1)
        x, y = (QForm(dim, {rng.randrange(1 << dim): rng.choice(units)
                            for _ in range(3)}) for _ in range(2))
        assert_same_product(quantum_wedge(x, y, w),
                            reference_quantum_wedge(x, y, w))


# ------------------------------------- pending products against division
#
# quantum_wedge leaves its integer numerators pending over one
# denominator; reading terms divides them. eager_quantum_wedge is the
# loop that divided every coefficient as it left the kernel, always
# drawing the sets J from b, kept as the reference for the values and
# coefficient types a pending product settles to.


def eager_quantum_wedge(a, b, w):
    def cleared(form):
        keys = [(e, m) for m, hc in form.terms.items() for e in hc.terms]
        nums, den = clear_denominators(c for hc in form.terms.values()
                                       for c in hc.terms.values())
        return dict(zip(keys, nums)), den
    ta, da = cleared(a)
    tb, db = cleared(b)
    top = min(max((m.bit_count() for m in a.terms), default=0),
              max((m.bit_count() for m in b.terms), default=0))
    acc = {}
    for n, A, B in _contractions(ta, tb, w._cols):
        _wedge_into(acc, n, A, B, w.den ** (top - n))
    den = da * db * w.den ** top
    out = {}
    for (e, m), c in acc.items():
        if c:
            out.setdefault(m, {})[e] = over(c, den)
    return QForm._make({m: HPoly._make(t) for m, t in out.items()}, a.dim)


def layout(form):
    """Space and terms in insertion order, each coefficient's terms in
    insertion order with their types."""
    return (form.dim,
            [(m, [(e, v, type(v)) for e, v in c.terms.items()])
             for m, c in form.terms.items()])


def typed(form):
    """Space and {(mask, h exponent): (coefficient, its type)}, in no
    order."""
    return (form.dim, {(m, e): (v, type(v)) for m, c in form.terms.items()
                       for e, v in c.terms.items()})


def settled_by_hand(form):
    """The layout a pending form settles to: its numerators in their
    order, grouped by mask in order of first appearance, each over the
    denominator."""
    nums, den = form._pending
    out = {}
    for (e, m), c in nums.items():
        v = over(c, den)
        out.setdefault(m, []).append((e, v, type(v)))
    return form.dim, list(out.items())


def pending(form):
    return form._pending is not None


def settled(form):
    form.terms
    assert not pending(form)
    return form


def fast_path_cases(rng):
    """(a, b, c, w): random operands at dims 2 to 8, some Laurent, some
    Gaussian, some whose products vanish."""
    lau = HPoly({-1: Fraction(2, 3), 1: 1})
    cases = []
    for trial in range(70):
        dim = 2 + trial % 7
        w = (random_pairing(rng, dim) if trial % 2
             else random_bivector(rng, dim))
        a, b, c = (random_qform(rng, dim, nterms=2 + (dim < 6))
                   for _ in range(3))
        if trial % 5 == 1:
            a = a + QForm(dim, {rng.randrange(1 << dim): lau})
        if trial % 5 == 2:
            b = b + QForm(dim, {rng.randrange(1 << dim):
                                HPoly({0: random_gauss(rng)})})
        cases.append((a, b, c, w))
    for x, y in ((E1, E1), (E12, E12), (E12, E1), (QForm.zero(2), E2)):
        cases.append((x, y, E2, W2))
    gx = QForm(2, {0b01: GaussRat(1, 2), 0b11: HPoly({1: random_gauss(rng)})})
    cases.append((gx, gx, gx, GAUSS))
    cases.append((gx, E2, E1, MIXED))
    return cases


def test_pending_product_settles_as_the_eager_loop():
    rng = Random(921)
    zeros = 0
    for a, b, _, w in fast_path_cases(rng):
        p = quantum_wedge(a, b, w)
        assert pending(p) and p.dim == a.dim
        by_hand = settled_by_hand(p)
        eager = eager_quantum_wedge(a, b, w)
        assert layout(settled(p)) == by_hand
        assert p == eager and typed(p) == typed(eager)
        zeros += p.is_zero()
        # a second read divides nothing more
        assert p.terms is p.terms
    assert zeros >= 3


def test_pending_product_prints_scales_and_tests_zero_from_numerators():
    rng = Random(925)
    seen = set()
    for a, b, _, w in fast_path_cases(rng):
        p = quantum_wedge(a, b, w)
        ref = settled(quantum_wedge(a, b, w))
        gauss = any(type(c) is not int for c in p._pending[0].values())
        assert p.is_zero() == ref.is_zero() and bool(p) == bool(ref)
        for s in (-1, Fraction(2, 3), -7):
            q = p * s
            assert pending(q) and pending(s * p)
            assert layout(settled(q)) == layout(ref * s)
        assert pending(p)
        text = str(p)
        assert text == str(ref) == repr(p)
        # Gaussian numerators settle to print
        assert pending(p) == (not gauss)
        for term in text.split(" + "):
            seen.add("zero" if text == "0"
                     else "-1" if term.startswith("(-1)*")
                     else "unit" if term[0] in "eh"
                     else "int" if term[0].isdigit()
                     else "gauss" if "i)" in term
                     else "parenthesised")
            seen.update(("laurent",) if "h^-" in term else ())
    assert seen == {"zero", "-1", "unit", "int", "gauss", "parenthesised",
                    "laurent"}


def test_minus_one_coefficients_print_the_same_settled_or_pending():
    # a coefficient -1 prints as (-1) alone, before h, before a blade and
    # before both; a pairing entry w^{11} = -1 gives e1 *_h e1 = -h
    w = PairTensor(2, {(1, 1): -1})
    h = HPoly({1: 1})
    for a, b, settled_form, text in (
            (E1, E1, QForm(2, {0: -h}), "(-1)*h"),
            (QForm.scalar(2, -1), E1, -E1, "(-1)*e1"),
            (QForm.scalar(2, -1), QForm.scalar(2, 1), QForm.scalar(2, -1),
             "(-1)"),
            (E1 * h, E2 * -h, QForm(2, {0b11: HPoly({2: -1})}),
             "(-1)*h^2*e1^e2")):
        product = quantum_wedge(a, b, w)
        assert pending(product)
        assert str(product) == str(settled_form) == text
        assert pending(product)
        assert str(settled(product)) == text


def assert_same_settled(new, ref):
    # a pending operand hands over its numerators in the kernel's order,
    # not mask by mask, so only the terms' order may differ
    assert_same_product(settled(new), settled(ref))
    assert {type(v) for v in leaves(new)} <= {Fraction}


def test_product_of_a_pending_operand_equals_that_of_its_divided_copy():
    rng = Random(922)
    for a, b, c, w in fast_path_cases(rng):
        ref = settled(quantum_wedge(a, b, w))
        for left in (True, False):
            p = quantum_wedge(a, b, w)
            out = quantum_wedge(p, c, w) if left else quantum_wedge(c, p, w)
            assert pending(p)
            assert_same_settled(out, quantum_wedge(ref, c, w) if left
                                else quantum_wedge(c, ref, w))
        if a.dim > 5:
            continue
        # both operands pending, and a product with itself
        p, q = quantum_wedge(a, b, w), quantum_wedge(b, c, w)
        assert_same_settled(quantum_wedge(p, q, w), quantum_wedge(
            ref, settled(quantum_wedge(b, c, w)), w))
        assert_same_settled(quantum_wedge(p, p, w),
                            quantum_wedge(ref, ref, w))


def pending_pairs(a, b, c, w, m):
    """Builders of pending forms, in pairs: equal values over different
    denominators, then values that differ in one coefficient, one key,
    the dimension, or in the order of the factors."""
    dim = a.dim
    one = QForm.scalar(dim, 1)
    zero = PairTensor(dim)

    def copy(form):
        return quantum_wedge(one, form, zero)
    bump = QForm(dim, {m: HPoly({1: Fraction(1, 7)})})
    new_key = QForm(dim, {m: HPoly({5: 1})})
    return [
        (lambda: quantum_wedge(quantum_wedge(a, b, w), c, w),
         lambda: quantum_wedge(a, quantum_wedge(b, c, w), w)),
        (lambda: copy(a), lambda: quantum_wedge(one * 3, a / 3, zero)),
        (lambda: copy(a), lambda: copy(a + bump)),
        (lambda: copy(a), lambda: copy(a + new_key)),
        (lambda: copy(a),
         lambda: quantum_wedge(QForm.scalar(dim + 1, 1),
                               QForm(dim + 1, dict(a.terms)),
                               PairTensor(dim + 1))),
        (lambda: quantum_wedge(a, b, w), lambda: quantum_wedge(b, a, w)),
    ]


def test_equality_of_pending_forms_agrees_with_divided_copies():
    rng = Random(923)
    pairs = []
    for a, b, c, w in fast_path_cases(rng):
        pairs += pending_pairs(a, b, c, w, rng.randrange(1 << a.dim))
    outcomes = set()
    for make_x, make_y in pairs:
        x, y = make_x(), make_y()
        same = x == y
        assert pending(x) and pending(y)
        assert (y == x) == same and (x != y) == (not same)
        assert same == (settled(make_x()) == settled(make_y()))
        # one side divided goes through the terms dicts
        assert same == (settled(make_x()) == make_y())
        outcomes.add(same)
    assert outcomes == {True, False}


def test_associativity_check_clears_only_its_three_operands(monkeypatch):
    rng = Random(924)
    w = random_pairing(rng, 6)
    u, v, t = (random_qform(rng, 6, nterms=3) for _ in range(3))
    calls = []
    real = exterior.clear_denominators

    def counting(values):
        calls.append(1)
        return real(values)
    monkeypatch.setattr(exterior, "clear_denominators", counting)
    left = quantum_wedge(quantum_wedge(u, v, w), t, w)
    right = quantum_wedge(u, quantum_wedge(v, t, w), w)
    # u, v and t once per product that reads them; the pending u *_h v
    # and v *_h t hand over their numerators
    assert len(calls) == 6
    assert left == right
    assert pending(left) and pending(right)
    assert len(calls) == 6
    # printing reads the numerators and divides none
    divided = []
    real_over = exterior.over

    def counting_over(num, den):
        divided.append(1)
        return real_over(num, den)
    monkeypatch.setattr(exterior, "over", counting_over)
    text = str(left)
    assert pending(left) and not divided
    assert text == str(settled(right)) and divided


# ------------------------------------------------ orientation of the walk
#
# The walk draws its sets J from the blades of its right factor. Reversal
# e^I -> (-1)^(k(k-1)/2) e^I, k = |I|, reverses the factors of a wedge
# and swaps the first and last slots, so rev(a *_w b) = rev(b) *_{w^T}
# rev(a): product_numerators walks that product instead when b's blades
# admit more sets than a's.


def reversal_sign(mask):
    k = mask.bit_count()
    return (-1) ** (k * (k - 1) // 2)


def reversed_form(form):
    if isinstance(form, QForm):
        return QForm(form.dim, {m: c * reversal_sign(m)
                                for m, c in form.terms.items()})
    return fields.FieldForm(form.dim, form.fnring,
                            {(e, m): c * reversal_sign(m)
                             for (e, m), c in form.terms.items()})


def transposed(w):
    return PairTensor(w.dim, {(j, i): c for i, j, c in w.ordered_entries()})


def index_sets(terms):
    return sum(2 ** m.bit_count() for _, m in terms)


def forced_walk(ta, da, tb, db, w, reverse):
    """(nums, den) of the product from the kernel's pieces, the sets J
    drawn from b's blades, or from a's through the reversed product.
    Every A_J the walk yields is checked to be zero-free."""
    top = min(max((m.bit_count() for _, m in ta), default=0),
              max((m.bit_count() for _, m in tb), default=0))

    def rev(terms):
        return {(t, m): c * reversal_sign(m) for (t, m), c in terms.items()}
    cols = w._cols
    if reverse:
        ta, tb, cols = rev(tb), rev(ta), w._rows
    acc = {}
    for n, A, B in _contractions(ta, tb, cols):
        assert all(A.values())
        _wedge_into(acc, n, A, B, w.den ** (top - n))
    nums = {k: c for k, c in acc.items() if c}
    return rev(nums) if reverse else nums, da * db * w.den ** top


def orientation_cases():
    """(a, b, w, the module's _numerators): the fast-path operands in
    both orders, and FieldForm pairs over pairings with PolyFn
    entries."""
    cases = [(x, y, w, exterior._numerators)
             for a, b, _, w in fast_path_cases(Random(926))
             for x, y in ((a, b), (b, a))]
    rng = Random(927)
    for model in (lie_poisson_so3(), heisenberg()):
        for _ in range(8):
            x, y = (random_fieldform(rng, model, nterms=rng.randint(1, 4))
                    for _ in range(2))
            cases.append((x, y, model.poisson, fields._numerators))
    return cases


def test_both_orientations_give_the_same_numerators(monkeypatch):
    real_walk = exterior._contractions
    right = []

    def walk(A, B, cols):
        right.append(B)
        return real_walk(A, B, cols)
    monkeypatch.setattr(exterior, "_contractions", walk)
    flips = set()
    for a, b, w, numerators in orientation_cases():
        ta, da = numerators(a)
        tb, db = numerators(b)
        right.clear()
        got = exterior.product_numerators(ta, da, tb, db, w)
        assert got == forced_walk(ta, da, tb, db, w, False) \
            == forced_walk(ta, da, tb, db, w, True)
        # the walk's right factor is the one with fewer sets J, b on a tie
        flip = index_sets(tb) > index_sets(ta)
        assert index_sets(right[0]) == min(index_sets(ta), index_sets(tb))
        assert set(right[0]) == set(ta if flip else tb)
        flips.add(flip)
    assert flips == {True, False}


def test_reversal_turns_a_product_into_the_transposed_one():
    for a, b, w, _ in orientation_cases():
        product = (quantum_wedge if isinstance(a, QForm)
                   else fields.quantum_wedge_field)
        left = reversed_form(product(a, b, w))
        right = product(reversed_form(b), reversed_form(a), transposed(w))
        assert left == right
        assert left.serialize() == right.serialize()


def test_a_sum_through_zero_and_back_is_exact():
    # column 4 holds w^{14} = w^{24} = w^{54} = 1, so R_{w_4} takes e1^e3,
    # e2^e3 and e3^e5 to e3 with the signs -, - and +: the e3 sum reaches
    # zero at the second term and the third brings it back
    w = PairTensor(5, {(1, 4): 1, (2, 4): 1, (5, 4): 1})
    A = {(0, 0b00101): 1, (0, 0b00110): -1, (0, 0b10100): 2}
    e4 = {(0, 0b01000): 1}
    levels = [(n, dict(A_J)) for n, A_J, _ in _contractions(A, e4, w._cols)]
    assert levels == [(0, A), (1, {(0, 0b00100): 2})]
    # without the third term the sum stays at zero and the branch ends
    del A[(0, 0b10100)]
    assert [n for n, _, _ in _contractions(A, e4, w._cols)] == [0]
    a = QForm(5, {(1, 3): 1, (2, 3): -1, (3, 5): 2})
    b = QForm.one_form(5, 4)
    out = quantum_wedge(a, b, w)
    assert out == wedge(a, b) + QForm(5, {(3,): HPoly({1: 2})})
    assert_same_product(out, reference_quantum_wedge(a, b, w))
    # the other order walks the reversed product, where column 4 of the
    # transpose is empty
    assert_same_product(quantum_wedge(b, a, w), wedge(b, a))


# ------------------------------------------ every product on the one kernel
#
# The loops that the classical wedges and the multiparameter product ran
# before they moved onto the kernel, kept as references: wedge and
# wedge_field multiplied every pair of terms, and quantum_wedge_multi
# walked the J-sum once per pairing, one after the other, from every
# state the pairing before it left.


def pairwise_wedge(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            s, m = wedge_masks(ma, mb)
            if s:
                add_term(out, m, ca * cb * s)
    return a._like(out)


def pairwise_wedge_field(a, b):
    t = {}
    for (ha, ma), fa in a.terms.items():
        for (hb, mb), fb in b.terms.items():
            s, m = wedge_masks(ma, mb)
            if s:
                add_term(t, (ha + hb, m), (fa * fb) * s)
    return a._like(t)


def state_loop_quantum_wedge_multi(a, b, ws):
    r = len(ws)
    states = [((0,) * r,
               {(0, m): c.constant_coeff() for m, c in a.terms.items()},
               {(0, m): c.constant_coeff() for m, c in b.terms.items()})]
    for p, w in enumerate(ws):
        nxt = []
        for e, A, B in states:
            for n, A2, B2 in _contractions(A, B, w._cols):
                if n and w.den != 1:
                    B2 = {k: over(c, w.den ** n) for k, c in B2.items()}
                nxt.append((e[:p] + (e[p] + n,) + e[p + 1:], A2, B2))
        states = nxt
    acc = {}
    for e, A, B in states:
        t = {}
        _wedge_into(t, 0, A, B)
        for (_, m), c in t.items():
            add_term(acc.setdefault(m, {}), e, c)
    return MultiForm._make({m: HPolyMulti._make(t, r)
                            for m, t in acc.items() if t}, a.dim, r)


def multi_typed(form):
    """{(mask, exponent tuple): (coefficient, its type)}, in no order."""
    return {(m, e): (v, type(v)) for m, c in form.terms.items()
            for e, v in c.terms.items()}


def test_wedge_matches_the_pairwise_loop():
    # rational, Gaussian and Laurent coefficients at dims 2 to 8, products
    # that vanish, and a pending operand; the result is pending and prints
    # alike before and after it settles
    rng = Random(931)
    for a, b, c, w in fast_path_cases(rng):
        for x, y in ((a, b), (b, c), (quantum_wedge(a, c, w), b)):
            got = wedge(x, y)
            assert pending(got)
            want = pairwise_wedge(x, y)
            assert str(got) == str(want)
            assert got == want and typed(got) == typed(want)
            assert got.serialize() == want.serialize()
            assert str(got) == str(want)


@pytest.mark.parametrize("build", [_flat_rescaled, _polyfn_fractions,
                                   _fourier_gauss, _mixed_entries,
                                   _moyal_values])
def test_wedge_field_matches_the_pairwise_loop(build):
    # PolyFn and FourierFn coefficients, rational and Gaussian leaves, h
    # exponents from -2 up, and HPoly-valued Moyal products
    _, pairs = build(Random(932))
    for x, y in pairs:
        for a, b in ((x, y), (y, x), (x, x)):
            got = fields.wedge_field(a, b)
            want = pairwise_wedge_field(a, b)
            assert got == want and str(got) == str(want)
            assert got.serialize() == want.serialize()


def gaussian_form(rng, dim):
    return QForm(dim, {rng.randrange(1 << dim): rng.choice(
        [random_gauss(rng), Fraction(rng.randint(-3, 3), 2)])
        for _ in range(3)})


def test_multi_matches_the_state_loop():
    # one to three general and antisymmetric pairings at dims 2 to 6,
    # rational and Gaussian coefficients and Gaussian pairings
    rng = Random(933)
    gaussian = {2 * n: standard_frame(n).wcx() for n in (1, 2, 3)}
    for trial in range(60):
        dim = 2 + trial % 5
        ws = [random_pairing(rng, dim) if (trial + k) % 2
              else random_bivector(rng, dim)
              for k in range(1 + trial % 3)]
        if trial % 4 == 3 and dim in gaussian:
            ws[0] = gaussian[dim]
        a, b = (gaussian_form(rng, dim) if trial % 3 == 1
                else random_qform(rng, dim, nterms=3, max_h=0)
                for _ in range(2))
        got = quantum_wedge_multi(a, b, ws)
        want = state_loop_quantum_wedge_multi(a, b, ws)
        assert got == want and str(got) == str(want)
        assert multi_typed(got) == multi_typed(want)


def test_multi_str_is_pinned():
    # two blades of degree 2, blades of degrees 0 to 3, exponents 1 and 2,
    # coefficients 1, -1, other ints and fractions, and a -1 term after
    # the first of its polynomial
    a = QForm(3, {(1, 2): 1, (2, 3): Fraction(1, 2), (1,): -1})
    b = QForm(3, {(1, 2): 1, (3,): 2})
    w1 = Bivector(3, {(1, 2): 1, (2, 3): -1})
    w2 = PairTensor(3, {(1, 1): 2, (2, 3): -1, (3, 2): Fraction(1, 3)})
    assert str(quantum_wedge_multi(a, b, [w1, w2])) == (
        "(2)*e1^e2^e3 + ((1/6)*h2 + (-3/2)*h1)*e1^e2 + (-2)*e1^e3"
        " + ((-1/2)*h1)*e2^e3 + ((-2)*h2 - h1)*e1 + ((-2)*h2)*e2"
        " + (h2 + h1)*e3 + ((1/6)*h1*h2 + (-1/2)*h1^2)")


def test_wedges_and_the_multi_product_run_on_the_kernel(monkeypatch):
    # wedge and wedge_field take level 0 of the J-sum from wedge_terms,
    # and the multiparameter product walks the J-sum once, through the
    # driver, however many pairings it has
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)
    for module, name in ((exterior, "wedge_terms"), (fields, "wedge_terms"),
                         (exterior, "product_numerators"),
                         (exterior, "_contractions")):
        counting(module, name)
    assert wedge(E1, E2) == E12 and calls == ["wedge_terms"]
    calls.clear()
    f1, f2 = (fields.lift(e, PolyFn) for e in (E1, E2))
    assert fields.wedge_field(f1, f2) == fields.lift(E12, PolyFn)
    assert calls == ["wedge_terms"]
    calls.clear()
    out = quantum_wedge_multi(E12, E12, (W2, MIXED, W2))
    assert out == state_loop_quantum_wedge_multi(E12, E12, (W2, MIXED, W2))
    assert calls == ["product_numerators", "_contractions"]


def test_only_the_driver_and_the_blade_pair_view_walk_the_kernel():
    # every product of forms goes through product_numerators or
    # wedge_terms; no other function of the package names the kernel
    names = {"_contractions": set(), "_wedge_into": set()}
    for path in sorted(Path(exterior.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in names:
                    names[node.id].add(f"{path.stem}.{fn.name}")
    assert names == {
        "_contractions": {"exterior.product_numerators",
                          "exterior.expand_blade_pair"},
        "_wedge_into": {"exterior.product_numerators",
                        "exterior.expand_blade_pair",
                        "exterior.wedge_terms"}}
    assert not hasattr(QForm, "wedge")
