"""Truncated-complex ranks, the graded integral, and the contraction
constants of the symplectic power family. Frozen dimension tables first."""

import sys
from fractions import Fraction
from math import factorial, gcd, lcm
from random import Random

import pytest

from qdr import cohomology, fields, linalg
from qdr.blades import blade_degree, masks_of_degree
from qdr.cohomology import (
    build_complex,
    dr_cohomology_dims,
    e1_dims,
    lemma62_check,
    poisson_homology_dims,
    quantum_cohomology_dims,
    quantum_integral,
    stokes_check,
)
from qdr.exterior import QForm
from qdr.fields import (
    FieldForm,
    PoissonField,
    exterior_d,
    koszul_delta,
    quantum_d,
)
from qdr.fixtures import Model, standard_symplectic, torus
from qdr.functions import FourierFn, PolyFn
from qdr.linalg import matrix_rank
from qdr.rand import random_fieldform
from qdr.scalars import GaussRat, HPoly, TauNumber
from qdr.symplectic import SymplecticForm, bivector_of

T2 = torus(1, 1)
T2W = torus(1, 2)


def test_build_rejects_non_torus():
    with pytest.raises(ValueError):
        build_complex(standard_symplectic(1), 1)


def test_build_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_complex(T2, 1, "formal")


def _basis(c, m):
    """Ordered (p, mask) pairs of the degree-m window of one mode: the
    reference basis of the assembled d_h blocks."""
    return [(p, mask) for p, q in c.slots(m) for mask in c._masks[q]]


def test_laurent_degree_zero_slots():
    c = build_complex(T2, 1, "laurent")
    assert c.slots(0) == [(0, 0), (-1, 2)]
    assert [p for p, _ in _basis(c, 0)] == [0, -1]


def test_polynomial_slots_drop_negative_exponents():
    c = build_complex(T2, 1, "polynomial")
    assert c.slots(0) == [(0, 0)]
    assert c.slots(2) == [(1, 0), (0, 2)]
    assert c.slots(-1) == []


def test_de_rham_dims_torus2():
    for trunc in (0, 1, 2):
        c = build_complex(torus(1, trunc), trunc, "laurent")
        rep = dr_cohomology_dims(c)
        assert rep.dims == (1, 2, 1)
        assert rep.passed()


def test_poisson_homology_duality_torus2():
    c = build_complex(T2, 1, "laurent")
    rep = poisson_homology_dims(c)
    assert rep.dims == (1, 2, 1)
    assert rep.passed()


def test_constants_only_truncation():
    # with only the zero mode both differentials vanish
    c = build_complex(torus(1, 0), 0, "laurent")
    assert dr_cohomology_dims(c).dims == (1, 2, 1)
    ph = poisson_homology_dims(c)
    assert ph.dims == (1, 2, 1)
    assert all(r["ker"] == r["dim"] for r in ph.rows)
    q = quantum_cohomology_dims(c)
    assert all(r["dim_h"] == r["dim"] for r in q.rows)
    assert q.dims == (2, 2, 2, 2)


def test_truncation_must_be_a_nonnegative_int():
    # a negative bound has no modes at all, so its ranks would read -1
    for trunc in (-1, True, 1.0):
        with pytest.raises(ValueError, match="truncation bound must be "
                                             "nonnegative"):
            build_complex(torus(1, 1), trunc)


def test_quantum_dims_torus2_laurent():
    c = build_complex(T2W, 2, "laurent")
    rep = quantum_cohomology_dims(c)
    assert rep.dims == (2, 2, 2, 2)
    assert rep.passed()
    # multiplication by h shifts total degree by two and is an isomorphism
    for m in range(len(rep.dims) - 2):
        assert rep.dims[m] == rep.dims[m + 2]


def test_quantum_dims_torus2_polynomial():
    c = build_complex(T2W, 2, "polynomial")
    rep = quantum_cohomology_dims(c)
    assert rep.dims == (1, 2, 2, 2)
    assert rep.passed()


def test_degeneracy_reports():
    for mode in ("laurent", "polynomial"):
        c = build_complex(T2W, 2, mode)
        assert quantum_cohomology_dims(c).dims == e1_dims(c).dims


def test_report_serialization():
    c = build_complex(T2, 1, "laurent")
    data = dr_cohomology_dims(c).serialize()
    assert data["pass"] is True
    assert data["label"] == "de_rham"
    assert [r["expected"] for r in data["rows"]] == [1, 2, 1]
    assert [r["dim_h"] for r in data["rows"]] == [1, 2, 1]


def test_torus4_dimension_tables():
    t4 = torus(2, 1)
    c = build_complex(t4, 1, "laurent")
    assert dr_cohomology_dims(c).dims == (1, 4, 6, 4, 1)
    ph = poisson_homology_dims(c)
    assert ph.dims == (1, 4, 6, 4, 1)
    assert ph.passed()
    rep = quantum_cohomology_dims(c)
    assert rep.dims == (8, 8, 8, 8, 8, 8)
    assert rep.passed()
    assert quantum_cohomology_dims(c).dims == e1_dims(c).dims


# -- per-direction blocks against the per-mode FieldForm build -------------

I_TAU = TauNumber.tau(1, GaussRat(0, 1))


def _symplectic_torus(omega, n, N):
    w = bivector_of(omega)
    poisson = PoissonField(2 * n, {(i, j): c for i, j, c in w.upper_entries()})
    return Model("torus", 2 * n, FourierFn, poisson, omega,
                 torus_n=n, torus_N=N)


def _darboux_torus(seed, n, N):
    """Torus whose constant symplectic form pairs shuffled coordinates,
    pair a scaled by 2/3, -3/2, 2/3, ...; distinct scales tell d - h*delta
    apart from d - h*c*delta."""
    dim = 2 * n
    perm = list(range(dim))
    Random(seed).shuffle(perm)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(n):
        i, j = perm[2 * a], perm[2 * a + 1]
        c = (Fraction(2, 3), Fraction(-3, 2))[a % 2]
        rows[i][j], rows[j][i] = c, -c
    return _symplectic_torus(SymplecticForm(dim, rows), n, N)


def _dense_torus(seed, n, N):
    """Torus whose constant symplectic form has every entry above the
    diagonal nonzero, so its star is no signed permutation of blades."""
    rng = Random(seed)
    dim = 2 * n
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            rows[i][j], rows[j][i] = c, -c
    return _symplectic_torus(SymplecticForm(dim, rows), n, N)


def _over_i_tau(t):
    q = t / I_TAU
    assert set(q.terms) <= {0}, t
    g = q.terms.get(0, GaussRat())
    assert g.is_real(), t
    return g.re


def _reference_block(images, kvec, targets, ncols):
    """Matrix of FieldForm images (one per column) with i*tau divided
    out; targets maps (h exponent, mask) to a row."""
    rows = [[Fraction(0)] * ncols for _ in targets]
    for col, image in enumerate(images):
        for key, fn in image.terms.items():
            for kv, coeff in fn.terms.items():
                assert kv == kvec
                rows[targets[key]][col] = _over_i_tau(coeff)
    return rows


def _scaled(c, block):
    return [[c * x for x in row] for row in block]


def _masks(dim, q):
    return list(masks_of_degree(dim, q)) if 0 <= q <= dim else []


def _primitive_direction(kvec):
    """(direction, c) with kvec == c * direction, direction primitive and
    its first nonzero entry positive; the zero mode is its own direction
    with c = 0."""
    g = gcd(*kvec)
    if not g:
        return tuple(kvec), 0
    if next(k for k in kvec if k) < 0:
        g = -g
    return tuple(k // g for k in kvec), g


def _directions(c):
    """Each primitive mode direction (up to sign) with the number of
    truncated modes on its line."""
    counts = {}
    for kvec in c.fmodes:
        direction, _ = _primitive_direction(kvec)
        counts[direction] = counts.get(direction, 0) + 1
    return counts


# degree step of each differential: d and d_h raise the degree, delta
# lowers the blade degree
_STEP = {"d": 1, "delta": -1, "dh": 1}


def _assemble_dh(c, j: int, m: int):
    """Unit d_h block of e_j at degree m from its blade blocks: d
    minus shifted delta, the shift raising the deformation exponent
    by one."""
    tgt = {pm: r for r, pm in enumerate(_basis(c, m + 1))}
    cols = []
    for p, mask in _basis(c, m):
        q = blade_degree(mask)
        pos = c._masks[q].index(mask)
        col = {}
        for r, val in c._units["d"][q][j][pos].items():
            col[tgt[(p, c._masks[q + 1][r])]] = val
        for r, val in c._units["delta"][q][j][pos].items():
            row = tgt.get((p + 1, c._masks[q - 1][r]))
            if row is None:
                raise ValueError(
                    "truncation not closed under d_h: shifted "
                    f"h^{p + 1} blade {c._masks[q - 1][r]:b} is "
                    "outside the window")
            col[row] = -val
        cols.append(col)
    return cols


def _space(c, kind, g):
    """Basis of one mode's degree-g piece: total degree for d_h, blade
    degree for d and delta."""
    return _basis(c, g) if kind == "dh" else c._masks[g]


def _units(c, kind, g):
    """The unit blocks of kind at degree g, one per e_j; d_h's are
    assembled by the reference above."""
    if kind == "dh":
        return [_assemble_dh(c, j, g) for j in range(c.dim)]
    return c._units[kind][g]


def _block(c, kind, direction, g):
    """Dense block of the mode `direction` at degree g, rows over the
    target degree: sum_j direction[j] * (unit block of e_j), the unit
    blocks' numerators divided by the complex's den."""
    ncols = len(_space(c, kind, g))
    rows = [[Fraction(0)] * ncols
            for _ in _space(c, kind, g + _STEP[kind])]
    for k, cols in zip(direction, _units(c, kind, g)):
        for col_index, col in enumerate(cols):
            for r, x in col.items():
                rows[r][col_index] += Fraction(k * x, c.den)
    return rows


COMPARED = {"torus(1,2)": torus(1, 2), "torus(2,1)": torus(2, 1),
            "darboux(2,1)": _darboux_torus(3, 2, 1),
            "dense(2,1)": _dense_torus(11, 2, 1)}


@pytest.mark.parametrize("model", COMPARED.values(), ids=COMPARED.keys())
def test_direction_blocks_match_fieldform_blocks(model):
    c = build_complex(model, model.torus_N, "laurent")
    dim = c.dim
    for kvec in c.fmodes:
        direction, scale = _primitive_direction(kvec)
        assert tuple(scale * x for x in direction) == kvec
        for q in range(dim + 1):
            src = _masks(dim, q)
            elems = [FieldForm.from_fn(FourierFn.mode(dim, kvec), mask)
                     for mask in src]
            d_ref = _reference_block(
                [exterior_d(e) for e in elems], kvec,
                {(0, m): r for r, m in enumerate(_masks(dim, q + 1))},
                len(src))
            delta_ref = _reference_block(
                [koszul_delta(e, c.w) for e in elems], kvec,
                {(0, m): r for r, m in enumerate(_masks(dim, q - 1))},
                len(src))
            assert d_ref == _scaled(scale, _block(c, "d", direction, q))
            assert delta_ref == _scaled(scale,
                                        _block(c, "delta", direction, q))
        for m in range(-1, c.max_degree + 1):
            src = _basis(c, m)
            images = [quantum_d(FieldForm.from_fn(
                FourierFn.mode(dim, kvec), mask, p), c.w)
                for p, mask in src]
            dh_ref = _reference_block(
                images, kvec,
                {pm: r for r, pm in enumerate(_basis(c, m + 1))}, len(src))
            assert dh_ref == _scaled(scale, _block(c, "dh", direction, m))


# -- certified ranks against elimination -----------------------------------

def _degrees(c, kind):
    if kind == "dh":
        return range(-3, c.dim + 5)
    return range(c.dim + 1)


def _eliminated(c, kind, g):
    """Sum over directions of multiplicity * rank, every block eliminated."""
    return sum(mult * matrix_rank(_block(c, kind, direction, g))
               for direction, mult in _directions(c).items())


def _rank(c, kind, g):
    return {"d": c.d_rank, "delta": c.delta_rank, "dh": c.dh_rank}[kind](g)


@pytest.mark.parametrize("mode", ("laurent", "polynomial"))
@pytest.mark.parametrize("model", COMPARED.values(), ids=COMPARED.keys())
def test_certified_ranks_match_elimination(model, mode):
    c = build_complex(model, model.torus_N, mode)
    zero = (0,) * c.dim
    nonzero = len(c.fmodes) - 1
    for kind in ("d", "delta", "dh"):
        for g in _degrees(c, kind):
            total = _rank(c, kind, g)
            # every nonzero mode has one rank; the zero mode has 0
            for direction in _directions(c):
                rank = matrix_rank(_block(c, kind, direction, g))
                assert rank * nonzero == (total if direction != zero else 0), \
                    (kind, g, direction)
            assert total == _eliminated(c, kind, g), (kind, g)


def _all_ranks(c):
    return {(kind, g): _rank(c, kind, g)
            for kind in ("d", "delta", "dh") for g in _degrees(c, kind)}


def test_flipped_contraction_fails_the_identity(monkeypatch):
    real = cohomology._interior

    def flipped(src, tgt, i):
        cols = real(src, tgt, i)
        if i == 0:
            cols = [{r: -x for r, x in col.items()} for col in cols]
        return cols
    monkeypatch.setattr(cohomology, "_interior", flipped)
    c = build_complex(torus(2, 1), 1)
    for kind in ("d", "dh"):
        for g in _degrees(c, kind):
            if _space(c, kind, g):
                with pytest.raises(AssertionError,
                                   match=f"^{kind} degree {g}: "):
                    _rank(c, kind, g)


def _delta_positions(c):
    """(q, j, column, row) of every entry of the unit delta blocks."""
    return [(q, j, col, row)
            for q in range(c.dim + 1) for j in range(c.dim)
            for col in range(len(c._masks[q]))
            for row in range(len(c._masks[q - 1]))]


@pytest.mark.parametrize(
    "model", (torus(1, 2), _darboux_torus(5, 2, 1), _dense_torus(2, 2, 1)),
    ids=("torus(1,2)", "darboux(2,1)", "dense(2,1)"))
def test_perturbed_delta_entry_fails_the_identities(model):
    # a perturbed entry of Delta_j,q breaks delta = [iota_w, d] on blade
    # degree q, so every d_h degree whose window holds q raises and the
    # others keep their rank; the star check rejects it on degree q
    positions = _delta_positions(build_complex(model, model.torus_N))
    if model.dim > 2:
        positions = Random(7).sample(positions, 8)
    for q, j, col, row in positions:
        c = build_complex(model, model.torus_N)
        entries = c._units["delta"][q][j][col]
        entries[row] = entries.get(row, 0) + 1
        with pytest.raises(AssertionError, match=f"^delta degree {q}: "):
            c.delta_rank(q)
        failed = []
        for m in _degrees(c, "dh"):
            try:
                rank = c.dh_rank(m)
            except AssertionError as ex:
                assert str(ex).startswith(f"dh degree {m}: "), ex
                failed.append(m)
                continue
            # a degree whose identity holds keeps its rank
            assert rank == _eliminated(c, "dh", m), (q, j, col, m)
        assert failed == [m for m in _degrees(c, "dh")
                          if any(b == q for _, b in c.slots(m))], \
            (q, j, col, row)


@pytest.mark.parametrize("mode", ("laurent", "polynomial"))
def test_uniform_delta_rescale_fails_the_dh_and_delta_identities(mode):
    # d - c*h*delta is conjugate to d - h*delta by h^p -> c^p h^p and has
    # the same ranks, but a rescaled delta is no longer [iota_w, d]: every
    # d_h degree whose window reaches a nonzero delta block raises, and
    # the others keep their rank.  The star check ties delta to omega,
    # so every delta rank of the rescaled complex raises too.
    model = _darboux_torus(3, 2, 1)
    ref = build_complex(model, 1, mode)
    for scale in (Fraction(3), Fraction(-2, 5)):
        c = build_complex(model, 1, mode)
        for per_j in c._units["delta"].values():
            for cols in per_j:
                for col in cols:
                    for row in col:
                        col[row] *= scale
        failed = []
        for m in _degrees(c, "dh"):
            if any(col for _, q in c.slots(m)
                   for cols in c._units["delta"][q] for col in cols):
                with pytest.raises(AssertionError,
                                   match=f"^dh degree {m}: iota_w d - d "
                                   "iota_w is not delta at blade degree"):
                    c.dh_rank(m)
                failed.append(m)
            else:
                assert c.dh_rank(m) == ref.dh_rank(m)
        # every window but the polynomial ones of degree <= 0
        assert failed == list(range(-3 if mode == "laurent" else 1,
                                    c.dim + 5))
        for q in range(1, c.dim + 1):
            with pytest.raises(AssertionError, match=f"^delta degree {q}: "):
                c.delta_rank(q)


def test_delta_bracketed_from_a_perturbed_d_fails_the_second_bracket():
    # delta recomputed as [iota_w, d] from a perturbed unit d block passes
    # bracket (i) by construction; [iota_w, delta] = 0 catches it
    c = build_complex(torus(2, 1), 1)
    assert c.e_w == 1
    c._units["d"][0][0][0][0] += 1
    for q in range(c.dim + 1):
        for j in range(c.dim):
            bracket = []
            for col, iota in enumerate(c._iota_w(q)):
                acc = {}
                cohomology._apply(c._iota_w(q + 1), c._units["d"][q][j][col],
                                  acc)
                cohomology._apply(c._units["d"][q - 2][j],
                                  {r: -x for r, x in iota.items()}, acc)
                bracket.append(acc)
            c._units["delta"][q][j] = bracket
    with pytest.raises(AssertionError, match="^dh degree 0: iota_w delta - "
                       "delta iota_w is not 0 at blade degree 4, unit mode "
                       "e_1, column 0$"):
        c.dh_rank(0)


def _dense(cols, nrows):
    rows = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, x in col.items():
            rows[r][c] = Fraction(x)
    return rows


def _matmul(a, b):
    return [[sum(x * b[k][c] for k, x in enumerate(row))
             for c in range(len(b[0]) if b else 0)] for row in a]


def _phi_plus(c, m):
    """Phi_+ = sum_k h^k / k! * iota_w^k on the degree-m basis, iota_w
    applied by contract_field to constant unit forms."""
    basis = _basis(c, m)
    index = {pm: r for r, pm in enumerate(basis)}
    cols = []
    for p, mask in basis:
        col = {}
        term = FieldForm.from_fn(PolyFn.constant(c.dim, 1), mask, p)
        k = 0
        while term.terms:
            for (e, image), fn in term.terms.items():
                col[index[(e + k, image)]] = \
                    fn.constant_coeff() / factorial(k)
            term = fields.contract_field(c.w, term)
            k += 1
        cols.append(col)
    return _dense(cols, len(basis))


def _d_on_total_degree(c, j, m):
    """Unit d block of e_j from degree m to m + 1, slot by slot."""
    tgt = {pm: r for r, pm in enumerate(_basis(c, m + 1))}
    cols = []
    for p, mask in _basis(c, m):
        q = blade_degree(mask)
        col = c._units["d"][q][j][c._masks[q].index(mask)]
        cols.append({tgt[(p, c._masks[q + 1][r])]: x
                     for r, x in col.items()})
    return cols


@pytest.mark.parametrize("mode", ("laurent", "polynomial"))
@pytest.mark.parametrize("model", COMPARED.values(), ids=COMPARED.keys())
def test_phi_conjugates_assembled_dh_blocks_to_d(model, mode):
    # Phi_+ A_dh,j = A_d,j Phi_+ on the reference d_h blocks of every
    # degree, Phi_+ built from contract_field, not from the complex
    c = build_complex(model, model.torus_N, mode)
    checked = 0
    for m in _degrees(c, "dh"):
        rows = len(_basis(c, m + 1))
        phi, phi_next = _phi_plus(c, m), _phi_plus(c, m + 1)
        for j in range(c.dim):
            dh = _dense(_assemble_dh(c, j, m), rows)
            d = _dense(_d_on_total_degree(c, j, m), rows)
            assert _matmul(phi_next, dh) == _matmul(d, phi), (m, j)
            checked += any(any(row) for row in dh)
    assert checked


def test_cohomology_keeps_one_rank_path():
    for name in ("primitive_direction", "_STEP", "matrix_rank"):
        assert not hasattr(cohomology, name), name
    for name in ("_block", "_rank", "_space", "_unit", "_column", "basis"):
        assert not hasattr(cohomology.TruncatedComplex, name), name
    assert not hasattr(build_complex(T2, 1), "directions")


# -- what each report builds -----------------------------------------------


def test_de_rham_and_poisson_reports_assemble_no_dh_block(monkeypatch):
    # d_h ranks come through Phi from the d ranks: no report ranks a d_h
    # block by the homotopy identity, and no d_h block is assembled
    assert not hasattr(cohomology.TruncatedComplex, "_assemble_dh")
    labels = []
    real = cohomology._homotopy_rank

    def recording(label, *args):
        labels.append(label)
        return real(label, *args)
    monkeypatch.setattr(cohomology, "_homotopy_rank", recording)
    for mode in ("laurent", "polynomial"):
        c = build_complex(torus(2, 1), 1, mode)
        assert dr_cohomology_dims(c).passed()
        assert poisson_homology_dims(c).passed()
        assert quantum_cohomology_dims(c).passed()
        assert quantum_cohomology_dims(c).dims == e1_dims(c).dims
        assert set(c._units) == {"d", "delta"}
    assert labels
    assert all(label.startswith("d degree ") for label in labels), labels


def test_reports_eliminate_no_block(monkeypatch):
    ranked = []
    real_rank = linalg.matrix_rank

    def rank(rows):
        ranked.append(rows)
        return real_rank(rows)
    # every qdr namespace that holds the function, as a tracer would
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("qdr")
                and getattr(module, "matrix_rank", None) is real_rank):
            monkeypatch.setattr(module, "matrix_rank", rank)
    expected = {"laurent": (8,) * 6, "polynomial": (1, 4, 7, 8, 8, 8)}
    for mode, dims in expected.items():
        c = build_complex(torus(2, 1), 1, mode)
        assert quantum_cohomology_dims(c).dims == dims
        assert dr_cohomology_dims(c).passed()
        assert poisson_homology_dims(c).passed()
        assert quantum_cohomology_dims(c).dims == e1_dims(c).dims
    assert ranked == []


def test_torus6_dimension_tables():
    c = build_complex(torus(3, 1), 1)
    assert len(c.fmodes) == 729
    assert dr_cohomology_dims(c).dims == (1, 6, 15, 20, 15, 6, 1)
    rep = quantum_cohomology_dims(c)
    assert rep.dims == (32,) * 8
    assert rep.passed()


def test_complex_builds_unit_blocks_once(monkeypatch):
    # one d_and_delta per unit mode, however many modes, each on the
    # generating form sum_I h^I * x_j * e^I (one PolyFn term x_j per
    # blade, at the power of h equal to the blade's mask), and two
    # exterior derivatives in each: d of the form, d of iota_w
    calls = []
    real = cohomology.d_and_delta

    def counting(form, w):
        calls.append(form)
        return real(form, w)
    monkeypatch.setattr(cohomology, "d_and_delta", counting)
    derivatives = []
    real_d = fields.exterior_d

    def counting_d(form):
        derivatives.append(form)
        return real_d(form)
    # every qdr namespace that holds the function, as a tracer would
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("qdr")
                and getattr(module, "exterior_d", None) is real_d):
            monkeypatch.setattr(module, "exterior_d", counting_d)
    c = build_complex(torus(2, 1), 1)
    assert len(c.fmodes) == 81
    assert len(calls) == c.dim == 4
    for j, form in enumerate(calls, 1):
        assert form.fnring is PolyFn
        assert len(form.terms) == 2 ** c.dim
        assert all(h == mask for h, mask in form.terms)
        x_j = PolyFn.coord(c.dim, j)
        assert all(fn == x_j for fn in form.terms.values())
    assert len(derivatives) == 2 * c.dim == 8


def _reference_unit_blocks(c):
    """(units, den) as the complex built them one blade at a time: one
    d_and_delta(x_j * e^I) per unit mode e_j and blade I, the columns
    cleared to ints over the lcm of their denominators."""
    units = {"d": {}, "delta": {}}
    cols = []
    coords = [PolyFn.coord(c.dim, j) for j in range(1, c.dim + 1)]
    for q in range(-2, c.dim + 1):
        dtgt = {mask: r for r, mask in enumerate(c._masks[q + 1])}
        deltatgt = {mask: r for r, mask in enumerate(c._masks[q - 1])}
        dq = units["d"][q] = []
        deltaq = units["delta"][q] = []
        for x_j in coords:
            dcols, deltacols = [], []
            for mask in c._masks[q]:
                df, delta = fields.d_and_delta(FieldForm.from_fn(x_j, mask),
                                               c.w)
                dcols.append({dtgt[b]: fn.constant_coeff()
                              for (_, b), fn in df.terms.items()})
                deltacols.append({deltatgt[b]: fn.constant_coeff()
                                  for (_, b), fn in delta.terms.items()})
            dq.append(dcols)
            deltaq.append(deltacols)
            cols += dcols
            cols += deltacols
    return units, cohomology._clear_columns(cols)


def _shuffled_torus(seed, n, N):
    """Torus shaped like the benchmark's: a constant symplectic form in
    shuffled Darboux position, each pair scaled by +-2/3 or +-3/2."""
    rng = Random(seed)
    dim = 2 * n
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(n):
        i, j = perm[2 * a], perm[2 * a + 1]
        c = rng.choice((-1, 1)) * rng.choice((Fraction(2, 3), Fraction(3, 2)))
        rows[i][j], rows[j][i] = c, -c
    return _symplectic_torus(SymplecticForm(dim, rows), n, N)


def _ordered(units):
    """units with each column as its (row, entry) list, so == also
    compares the order of the rows."""
    return {kind: {q: [[list(col.items()) for col in cols] for cols in per_j]
                   for q, per_j in blocks.items()}
            for kind, blocks in units.items()}


BLOCK_MODELS = {"torus(1,1)": torus(1, 1), "torus(1,2)": torus(1, 2),
                "torus(1,3)": torus(1, 3), "torus(2,1)": torus(2, 1),
                "darboux(2,1)": _darboux_torus(3, 2, 1),
                "dense(2,1)": _dense_torus(11, 2, 1),
                "shuffled(2,1)": _shuffled_torus(4099, 2, 1)}


@pytest.mark.parametrize("model", BLOCK_MODELS.values(),
                         ids=BLOCK_MODELS.keys())
def test_generating_form_blocks_match_the_per_blade_build(model):
    c = build_complex(model, model.torus_N)
    units, den = _reference_unit_blocks(c)
    assert c.den == den
    assert _ordered(c._units) == _ordered(units)


def test_unit_blocks_are_int_numerators_over_den():
    # den is the lcm of the denominators of the delta entries over
    # i*tau; d's entries are integers.  Scales 2/3 and -3/2 on a dim-4
    # Darboux torus give denominators 2 and 3.
    for model, den in ((torus(2, 1), 1), (_darboux_torus(3, 2, 1), 6)):
        c = build_complex(model, 1)
        want = 1
        for q in range(c.dim + 1):
            masks = _masks(c.dim, q)
            for j in range(c.dim):
                kvec = tuple(int(i == j) for i in range(c.dim))
                for mask in masks:
                    e = FieldForm.from_fn(FourierFn.mode(c.dim, kvec), mask)
                    for fn in koszul_delta(e, c.w).terms.values():
                        for coeff in fn.terms.values():
                            want = lcm(want, _over_i_tau(coeff).denominator)
        assert c.den == want == den
        for kind in ("d", "delta"):
            for per_j in c._units[kind].values():
                for cols in per_j:
                    for col in cols:
                        assert all(type(x) is int for x in col.values())
        assert c.e_w == lcm(*(x.denominator
                              for _, _, x in c.w.upper_entries()))
        assert type(c.e_w) is int
        for q in range(-1, c.dim + 2):
            for col in c._iota_w(q):
                assert all(type(x) is int for x in col.values())
        for q in range(c.dim + 1):
            cols, e = c._star(q)
            assert type(e) is int
            assert all(type(x) is int for col in cols for x in col.values())


def test_trace_table_off_den_fails_with_its_label():
    # (a) and (b) force tr(a b_next) to a multiple of den, so only blocks
    # whose contraction b lists no column of the degree reach the trace
    # check with a bad table: here tr = 1 over den = 2
    a, b_next = [[{0: 1}]], [[{0: 1}]]
    with pytest.raises(AssertionError,
                       match=r"^dh degree 3: the trace table .*'1/2'"):
        cohomology._homotopy_rank("dh degree 3", 2, [[]], a, [[]], b_next)
    assert cohomology._homotopy_rank("d degree 0", 1, [[]], a, [[]],
                                     b_next) == 1


def test_poisson_report_builds_each_star_once(monkeypatch):
    # one symplectic_star per blade of degree 1..dim: S_q serves degree
    # q and, as the star back, degree dim - q + 1
    calls = []
    real = cohomology.symplectic_star

    def counting(form, omega):
        calls.append(form)
        return real(form, omega)
    monkeypatch.setattr(cohomology, "symplectic_star", counting)
    c = build_complex(torus(2, 1), 1)
    poisson_homology_dims(c)
    assert len(calls) == 2 ** c.dim - 1
    assert len({next(iter(f.terms)) for f in calls}) == len(calls)


def test_complex_rejects_entries_off_i_tau():
    # a complex bivector gives real delta entries; a tau in the bivector
    # gives tau^2; a nonconstant one moves modes
    for entry, msg in ((GaussRat(0, 1), "i\\*tau"),
                       (TauNumber.tau(1), "i\\*tau"),
                       (FourierFn.mode(2, (1, 0)), "escaped")):
        w = PoissonField(2, {(1, 2): entry})
        model = Model("torus", 2, FourierFn, w, torus_n=1, torus_N=1)
        with pytest.raises(ValueError, match=msg):
            build_complex(model, 1)


def test_integral_frozen_values():
    om = T2W.omega
    one = T2W.lift(QForm(2, {0: 1}))
    assert quantum_integral(one, om, T2W) == 1
    assert quantum_integral(T2W.omega_form(), om, T2W) == 1
    dx1 = FieldForm.from_fn(T2W.constant(1), 0b1)
    assert quantum_integral(dx1, om, T2W) == 0


def test_integral_is_h_linear():
    om = T2W.omega
    vol = FieldForm.from_fn(T2W.constant(3), 0b11)
    assert quantum_integral(vol, om, T2W) == 3
    assert quantum_integral(vol.h_shift(2), om, T2W) == HPoly({2: 3})
    assert quantum_integral(vol.h_shift(-1), om, T2W) == HPoly({-1: 3})


def test_integral_drops_nonconstant_modes():
    om = T2W.omega
    f = FieldForm.from_fn(FourierFn.mode(2, (1, 2)), 0b11)
    assert quantum_integral(f, om, T2W) == 0


def test_integral_rejects_non_torus():
    flat = standard_symplectic(1)
    with pytest.raises(ValueError):
        quantum_integral(flat.zero_form(), flat.omega, flat)


def test_stokes_frozen_and_random():
    a = FieldForm.from_fn(FourierFn.mode(2, (1, 0)), 0b10)
    out = stokes_check(a, T2W)
    assert out["ok"]
    assert set(out["integrals"]) == {"d", "h_delta", "d_h"}
    const = FieldForm.from_fn(T2W.constant(5), 0b1)
    assert stokes_check(const, T2W)["ok"]
    rng = Random(17)
    for _ in range(40):
        f = random_fieldform(rng, T2W, nterms=3, max_h=1, span=2)
        assert stokes_check(f, T2W)["ok"]


def test_lemma62_constants():
    r = lemma62_check(1, 0)
    assert r["part_i"]["multiple"] == -1
    assert r["part_i"]["printed"] == 1
    assert r["part_ii"][1]["constant"] == 1
    assert r["part_ii"][2]["constant"] == -2
    r = lemma62_check(2, 1)
    assert r["part_i"]["multiple"] == -1
    # the pattern -(n-k) in one table
    for n in (1, 2):
        for k in range(n + 1):
            r = lemma62_check(n, k)
            assert r["part_i"]["multiple"] == -(n - k)
            for p, entry in r["part_ii"].items():
                if entry["constant"] is not None:
                    assert entry["constant"] == entry["printed"]


class _RecordingMemo(dict):
    """A memo that records the key of every value stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_quantum_report_certifies_each_blade_degree_once(monkeypatch):
    # one homotopy identity per blade degree 0..dim, and each iota_w
    # table and Phi check built once, however many windows share the
    # degree; a second report on the complex builds none of them again
    labels = []
    real = cohomology._homotopy_rank

    def recording(label, *args):
        labels.append(label)
        return real(label, *args)
    monkeypatch.setattr(cohomology, "_homotopy_rank", recording)
    c = build_complex(torus(2, 1), 1)
    monkeypatch.setattr(c, "_memo", _RecordingMemo())
    assert quantum_cohomology_dims(c).passed()
    assert labels == [f"d degree {q}" for q in range(c.dim + 1)]
    built = list(c._memo.stored)
    assert len(built) == len(set(built))
    assert sorted(q for kind, q in built if kind == "iota_w") == \
        list(range(-1, c.dim + 2))
    assert sorted(q for kind, q in built if kind == "phi check") == \
        list(range(c.dim + 1))
    quantum_cohomology_dims(c)
    assert len(labels) == c.dim + 1
    assert c._memo.stored == built
