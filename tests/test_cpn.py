"""Deformed omega-power ring: frozen structure constants, nilpotency,
and the corrected recursion coefficients."""

from fractions import Fraction
from itertools import islice, product
from math import comb

import pytest

from qdr import exterior
from qdr.cpn import (
    CPnRing,
    cpn_structure_constants,
    derived_recursion_report,
    verify_relation_17,
)
from qdr.exterior import Bivector, QForm, quantum_powers
from qdr.scalars import HPoly
from qdr.symplectic import SymplecticForm, bivector_of


def test_frozen_products():
    r1 = cpn_structure_constants(1)
    assert r1.entry(1, 1) == (HPoly({2: -1}), HPoly({1: 2}))
    r2 = cpn_structure_constants(2)
    assert r2.entry(1, 1) == (HPoly({2: -2}), HPoly({1: 2}), HPoly(1))
    assert r2.entry(1, 2) == (HPoly(), HPoly({2: -2}), HPoly({1: 4}))
    assert r2.entry(0, 2) == (HPoly(), HPoly(), HPoly(1))


def test_table_symmetric_and_windowed():
    ring = cpn_structure_constants(3)
    for k in range(4):
        for l in range(4):
            coeffs = ring.entry(k, l)
            assert coeffs == ring.entry(l, k)
            for j, c in enumerate(coeffs):
                if c:
                    assert abs(k - l) <= j <= k + l
                # the classical layer is the truncated power ring
                assert c.coeff(0) == Fraction(j == k + l)


def test_table_associativity():
    for n in (1, 2, 3, 4):
        ring = cpn_structure_constants(n)

        def mul(u, v):
            # product of two basis expansions, reduced via the table
            out = [HPoly() for _ in range(n + 1)]
            for (k, l), coeffs in ring.table.items():
                for j, c in enumerate(coeffs):
                    out[j] = out[j] + c * u[k] * v[l]
            return tuple(out)

        basis = []
        for k in range(n + 1):
            vec = [HPoly() for _ in range(n + 1)]
            vec[k] = HPoly(1)
            basis.append(tuple(vec))
        for a, b, c in product(range(n + 1), repeat=3):
            if a + b + c > n + 2:
                continue
            left = mul(mul(basis[a], basis[b]), basis[c])
            right = mul(basis[a], mul(basis[b], basis[c]))
            assert left == right


def test_rank_limits():
    with pytest.raises(ValueError):
        cpn_structure_constants(6)
    with pytest.raises(ValueError):
        CPnRing(0)
    with pytest.raises(ValueError):
        verify_relation_17(5)
    # the largest tabulated ring still builds
    assert cpn_structure_constants(5).entry(5, 5)[0]


def test_nilpotency_relation():
    for n in (1, 2, 3, 4):
        out = verify_relation_17(n)
        assert out["ok"] and out["nilpotency_order"] == n + 1
        # the check pairs at Bivector.standard; the symplectic form's own
        # Poisson bivector is the same pairing
        dim = 2 * n
        assert bivector_of(SymplecticForm(dim)) == Bivector.standard(dim)


def omega_powers(n):
    # omega^0..omega^{n+1} under the quantum product in dimension 2n
    omega = SymplecticForm(2 * n).form
    return list(islice(quantum_powers(omega, Bivector.standard(2 * n)),
                       n + 2))


def test_power_expansion_report():
    # the (n+1)-st quantum power of omega against the printed display
    # sum_k (-1)^{n-k} C(n+1, k) h^{n+1-k} omega^k and against the
    # binomial consequence of (omega - n h)^{n+1} = 0; only the second
    # holds past n = 1, and the classical layer of the power is zero
    for n in (1, 2, 3):
        qpow = omega_powers(n)
        printed = binomial = QForm.zero(2 * n)
        for k in range(n + 1):
            printed = printed + qpow[k] * HPoly(
                {n + 1 - k: (-1) ** (n - k) * comb(n + 1, k)})
            binomial = binomial - qpow[k] * HPoly(
                {n + 1 - k: comb(n + 1, k) * Fraction(-n) ** (n + 1 - k)})
        assert (qpow[n + 1] == printed) == (n == 1)
        assert qpow[n + 1] == binomial
        assert all(c.coeff(0) == 0 for c in qpow[n + 1].terms.values())


def test_each_power_is_computed_once(monkeypatch):
    # each power is the one before it times the base: n + 1 products
    # for the powers up to n + 1, where a fresh power per k took
    # (n + 1)(n + 2)/2 products
    calls = []
    real = exterior.quantum_wedge

    def counting(a, b, w):
        calls.append(1)
        return real(a, b, w)
    monkeypatch.setattr(exterior, "quantum_wedge", counting)
    for n in (1, 2, 3):
        calls.clear()
        verify_relation_17(n)
        assert len(calls) == n + 1, n


def test_recursion_coefficients():
    rep = derived_recursion_report(2)
    rows = {row["k"]: row for row in rep["rows"]}
    assert rows[1]["a"] == 2 and rows[1]["b"] == -2
    assert rows[1]["matches_printed"] and rows[1]["matches_derived"]
    assert rows[2]["a"] == 4 and rows[2]["b"] == -2
    assert not rows[2]["matches_printed"]
    assert rows[2]["matches_derived"]
    for n in (3, 4, 5):
        for row in derived_recursion_report(n)["rows"]:
            assert row["matches_derived"]
            assert row["matches_printed"] == (row["k"] == 1)


def test_scalar_shift():
    # omega + lambda h is nilpotent for one rational lambda, -n: expand
    # (omega + lambda h)^{n+1} binomially over the central scalar; each
    # nonzero coefficient, a polynomial in lambda, vanishes at -n, and one
    # of them is linear, so -n is the only common root
    for n in (1, 2, 3):
        lam_polys = {}
        for k, power in enumerate(omega_powers(n)):
            for mask, c in power.terms.items():
                for e, v in c.terms.items():
                    poly = lam_polys.setdefault((mask, e + n + 1 - k), {})
                    d = n + 1 - k
                    poly[d] = poly.get(d, 0) + comb(n + 1, k) * v
        degrees = set()
        for poly in lam_polys.values():
            if any(poly.values()):
                assert sum(c * (-n) ** d for d, c in poly.items()) == 0
                degrees.add(max(d for d, c in poly.items() if c))
        assert 1 in degrees


def test_serialize_shape():
    data = cpn_structure_constants(1).serialize()
    assert data["n"] == 1
    assert set(data["table"]) == {"0,0", "0,1", "1,0", "1,1"}
    assert data["table"]["1,1"] == [
        {"power": 0, "coeffs": [[2, "-1"]]},
        {"power": 1, "coeffs": [[1, "2"]]},
    ]
