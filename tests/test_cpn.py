"""Deformed omega-power ring: frozen structure constants, nilpotency,
and the corrected recursion coefficients."""

from fractions import Fraction
from itertools import product

import pytest

from qdr import exterior
from qdr.cpn import (
    CPnRing,
    cpn_structure_constants,
    derived_recursion_report,
    omega_power_expansion,
    scalar_shift_report,
    verify_relation_17,
)
from qdr.exterior import Bivector
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
        basis = []
        for k in range(n + 1):
            vec = [HPoly() for _ in range(n + 1)]
            vec[k] = HPoly(1)
            basis.append(tuple(vec))
        for a, b, c in product(range(n + 1), repeat=3):
            if a + b + c > n + 2:
                continue
            left = ring.mul_vec(ring.mul_vec(basis[a], basis[b]), basis[c])
            right = ring.mul_vec(basis[a], ring.mul_vec(basis[b], basis[c]))
            assert left == right


def test_rank_limits():
    with pytest.raises(ValueError):
        cpn_structure_constants(6)
    with pytest.raises(ValueError):
        CPnRing(0)
    with pytest.raises(ValueError):
        verify_relation_17(5)
    with pytest.raises(ValueError):
        omega_power_expansion(5)
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


def test_power_expansion_report():
    rep = omega_power_expansion(1)
    assert rep["printed_matches"] and rep["binomial_matches"]
    for n in (2, 3):
        rep = omega_power_expansion(n)
        assert not rep["printed_matches"]
        assert rep["binomial_matches"]
        assert rep["classical_layer_zero"]


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
        for report in (verify_relation_17, omega_power_expansion,
                       scalar_shift_report):
            calls.clear()
            report(n)
            assert len(calls) == n + 1, (report.__name__, n)


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
    for n in (1, 2, 3):
        rep = scalar_shift_report(n)
        assert rep["unique"]
        assert rep["lambda"] == Fraction(-n)


def test_serialize_shape():
    data = cpn_structure_constants(1).serialize()
    assert data["n"] == 1
    assert set(data["table"]) == {"0,0", "0,1", "1,0", "1,1"}
    assert data["table"]["1,1"] == [
        {"power": 0, "coeffs": [[2, "-1"]]},
        {"power": 1, "coeffs": [[1, "2"]]},
    ]
