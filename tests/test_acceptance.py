"""Acceptance gate: the thirteen verification criteria, one test each.

Every check is exact rational or Laurent-h arithmetic; there are no
tolerances. Each test prints a single verdict line
"criterion NN <name>: PASS|FAIL" before asserting, so a transcript
carries one line per criterion. Notes record derived constants next to
the printed reference values without asserting the printed ones.
"""

from fractions import Fraction
from random import Random

from lefschetz_reference import det_recursion_holds
from qdr.bigraded import derive_adjoint_law
from qdr.chernweil import MatrixForm, covariant_d, quantum_curvature
from qdr.cli import SUITES
from qdr.cohomology import (
    build_complex,
    dr_cohomology_dims,
    lemma62_check,
    poisson_homology_dims,
    quantum_cohomology_dims,
)
from qdr.fixtures import heisenberg, lie_poisson_so3, standard_symplectic, torus
from qdr.linalg import char_poly
from qdr.rand import random_fieldform
from qdr.scalars import GaussRat
from qdr.symplectic import (
    SymplecticForm,
    apply_Ah,
    apply_Lh,
    apply_Lhstar,
    lefschetz_matrix,
    window_matrix,
)


def _verdict(num, name, ok):
    print("criterion %02d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
    return ok


def test_criterion_01_quantum_algebra_laws():
    # supercommutativity on homogeneous pairs with antisymmetric w and
    # associativity on general triples with arbitrary (non-antisymmetric)
    # pairings phi, 504 triples over dimensions 2..8, exact equality
    _payload, ok = SUITES["associativity"].check(
        Random(101), dim=(2, 3, 4, 5, 6, 7, 8), count=504)
    assert _verdict(1, "quantum algebra laws", ok)


def test_criterion_02_multiparameter_specialization():
    # the multiparameter product specialized at h_j -> c_j equals the
    # single-parameter product at the combined bivector, 100 cases
    _payload, ok = SUITES["multiparameter"].check(
        Random(102), count=100, dims=(2, 4, 6))
    assert _verdict(2, "multiparameter specialization", ok)


def test_criterion_03_omega_nilpotency_relation():
    # the deformed symplectic form rebuilt pairwise equals omega - n*h,
    # its (n+1)-st deformed power vanishes and the n-th does not
    _payload, ok = SUITES["relation17"].check(Random(103), n=4)
    assert _verdict(3, "omega nilpotency relation", ok)


def test_criterion_04_power_recursion_coefficients():
    # each power step satisfies the two-term recursion with derived
    # coefficients (2k, -k(n-k+1)); the printed -kn agrees only at k = 1
    # and the report flags the deviation for every k >= 2
    ok = True
    deviations = []
    for n in range(1, 5):
        payload, passed = SUITES["recursion"].check(Random(104), n=n)
        ok = ok and passed
        rows = {row["k"]: row for row in payload["rows"]}
        for k, row in rows.items():
            ok = ok and Fraction(row["a"]) == 2 * k
            ok = ok and Fraction(row["b"]) == -k * (n - k + 1)
            ok = ok and row["matches_printed"] == (k == 1)
            if not row["matches_printed"]:
                deviations.append((n, k))
        ok = ok and set(rows) == set(range(1, n + 1))
    expected_dev = [(n, k) for n in range(1, 5) for k in range(2, n + 1)]
    ok = ok and deviations == expected_dev
    print("criterion 04 note: derived (a_k, b_k) = (2k, -k(n-k+1)); "
          "printed b_k = -kn deviates at (n, k) in %s" % deviations)
    assert _verdict(4, "power recursion coefficients", ok)


def test_criterion_05_quantum_differential_complex():
    # d_h squares to zero and the deformed Leibniz rule holds on 200
    # random forms per model; jacobi_check accepts every Poisson fixture
    # and rejects the non-Poisson fixture with a concrete witness
    models = [standard_symplectic(1), standard_symplectic(2),
              standard_symplectic(3), torus(1, 2), torus(2, 1),
              lie_poisson_so3(), heisenberg()]
    _payload, ok = SUITES["complex"].check(Random(105), count=200,
                                           models=models)
    assert _verdict(5, "quantum differential complex", ok)


def test_criterion_06_torus_cohomology_ranks():
    # Laurent-mode deformed cohomology has dimension sum_p b_{m-2p} in
    # every total degree (2 on the 2-torus, 8 on the 4-torus), the
    # h-shift is an isomorphism, and the bracket homology matches the
    # reversed Betti numbers
    ok = True
    for model, per_degree in ((torus(1, 2), 2), (torus(2, 1), 8)):
        comp = build_complex(model, model.torus_N, "laurent")
        betti = dr_cohomology_dims(comp)
        quantum = quantum_cohomology_dims(comp)
        poisson = poisson_homology_dims(comp)
        ok = ok and betti.passed() and quantum.passed() and poisson.passed()
        for m, dim_m in enumerate(quantum.dims):
            folded = sum(b for j, b in enumerate(betti.dims)
                         if (m - j) % 2 == 0)
            ok = ok and dim_m == folded == per_degree
        for m in range(len(quantum.dims) - 2):
            ok = ok and quantum.dims[m] == quantum.dims[m + 2]
        ok = ok and poisson.dims == tuple(reversed(betti.dims))
    assert _verdict(6, "torus cohomology ranks", ok)


def test_criterion_07_hard_lefschetz_spectra():
    # parity-window matrices of h^-1 L_h are invertible for n <= 3; the
    # operator brackets hold as exact window-matrix identities; the
    # block-doubling determinant recursion holds for random seeds up to
    # depth 3; the n = 1 odd window is the identity
    _payload, ok = SUITES["lefschetz"].check(Random(107), n=3)
    for n in (1, 2):
        om = SymplecticForm(2 * n)
        for m in (0, 1, 2):
            com_ll = window_matrix(
                lambda f, om=om: apply_Lh(apply_Lhstar(f, om), om)
                - apply_Lhstar(apply_Lh(f, om), om), n, m, m)
            ok = ok and all(v == 0 for row in com_ll for v in row)
            lh = window_matrix(
                lambda f, om=om: apply_Lh(f, om), n, m, m + 2)
            com_la = window_matrix(
                lambda f, om=om: apply_Lh(apply_Ah(f, om), om)
                - apply_Ah(apply_Lh(f, om), om), n, m, m + 2)
            ok = ok and com_la == [[2 * v for v in row] for row in lh]
            lstar = window_matrix(
                lambda f, om=om: apply_Lhstar(f, om), n, m, m - 2)
            com_sa = window_matrix(
                lambda f, om=om: apply_Lhstar(apply_Ah(f, om), om)
                - apply_Ah(apply_Lhstar(f, om), om), n, m, m - 2)
            ok = ok and com_sa == [[-2 * v for v in row] for row in lstar]
    rng = Random(107)
    for size, depth in ((1, 3), (2, 3), (3, 3), (2, 2), (3, 1)):
        m1 = [[Fraction(rng.randint(-3, 3)) for _ in range(size)]
              for _ in range(size)]
        ok = ok and det_recursion_holds(m1, depth)
    derived = char_poly(lefschetz_matrix(1, "even"))
    # (t - 1)^2: the eigenvalue 1 twice
    ok = ok and derived.coeffs == [Fraction(1), Fraction(-2), Fraction(1)]
    # printed reference spectra, recorded but not asserted: odd window
    # eigenvalue 1 with multiplicity 2 (agrees with the derived (t-1)^2);
    # even window eigenvalues 1 +- sqrt(5)/2, i.e. t^2 - 2t - 1/4
    printed_even = [Fraction(1), Fraction(-2), Fraction(-1, 4)]
    agree = [derived.coeffs[i] == printed_even[i] for i in range(3)]
    print("criterion 07 note: derived even-window polynomial %s = (t-1)^2; "
          "printed even-window data implies t^2 - 2*t - 1/4; coefficient "
          "agreement by degree (t^2, t, 1): %s" % (derived, agree))
    assert _verdict(7, "hard lefschetz spectra", ok)


def test_criterion_08_convention_ledger_constants():
    # the four derived-constant reports are stable across n <= 3:
    # contraction constants (1, 1, 1), dual relation (1, -2n), Koszul
    # component constant 1 (so some probe term matched), window identity
    # multiple -(n-k); the window's part-two constants match the printed
    payload, ok = SUITES["ledger"].check(Random(108), count=6,
                                         ns=(1, 2, 3))
    ok = ok and payload["contraction_scaling"] == [["1", "1", "1"]] * 3
    ok = ok and payload["dual_lefschetz"] == [
        ["1", str(-2 * n)] for n in (1, 2, 3)]
    ok = ok and payload["koszul_component"] == ["1"]
    for n in (1, 2, 3):
        for k in range(n + 1):
            for entry in lemma62_check(n, k)["part_ii"].values():
                if entry["constant"] is not None:
                    ok = ok and entry["constant"] == entry["printed"]
    multiples = {(row["n"], row["k"]): row["multiple"]
                 for row in payload["window_identity"]}
    print("criterion 08 note: contraction %s, dual relation (1, -2n), "
          "Koszul component c in %s, window multiples -(n-k): %s" %
          (payload["contraction_scaling"][0], payload["koszul_component"],
           multiples))
    assert _verdict(8, "convention ledger constants", ok)


def test_criterion_09_quantum_stokes():
    # the graded integral of d(alpha), h*delta(alpha) and d_h(alpha)
    # vanishes for 504 random trigonometric forms on the 2- and 4-torus
    rng = Random(109)
    stokes = SUITES["stokes"].check
    _payload, on_2torus = stokes(rng, n=1, truncation=2, count=300)
    _payload, on_4torus = stokes(rng, n=2, truncation=1, count=204)
    assert _verdict(9, "quantum stokes", on_2torus and on_4torus)


def test_criterion_10_hermitian_structure():
    # the raw adjoint relation holds on every basis monomial triple in
    # complex dimensions 1 and 2 (derive_adjoint_law raises where it
    # fails), and the pairing Gram matrix is diagonal with entries
    # 2^(p+q)
    _payload, ok = SUITES["hermitian"].check(Random(110), n=2)
    factors = {}
    printed_all = {}
    for n in (1, 2):
        law = derive_adjoint_law(n)
        factors[n] = dict(law["derived"]["diagonal_factors"])
        printed_all[n] = law["printed_all"]
        expected = {s: GaussRat((-1) ** s) for s in range(n + 1)}
        ok = ok and factors[n] == expected
    print("criterion 10 note: raw adjointness exhaustive; printed "
          "statement (b unconjugated) holds on all triples: %s; derived "
          "diagonal sector factors: %s" % (printed_all, factors))
    assert _verdict(10, "hermitian structure", ok)


def test_criterion_11_quantum_dolbeault_split():
    # both split components square to zero, the cross terms cancel, and
    # the components sum to d_h on 100 random flat polynomial forms
    _payload, ok = SUITES["dolbeault"].check(Random(111), n=2, count=50)
    assert _verdict(11, "quantum dolbeault split", ok)


def test_criterion_12_chern_weil_identities():
    # gauge conjugation of the curvature, the deformed Bianchi identity
    # and closedness of the trace form on 50 random rank-2 polynomial
    # connections; the square of the covariant derivative acts as the
    # curvature on 50 further (theta, phi) pairs; the coordinate line
    # bundle has curvature omega + h
    rng = Random(112)
    _payload, ok = SUITES["chern"].check(rng, n=2, count=25)
    bad = 0
    for model in (standard_symplectic(1), standard_symplectic(2)):
        w = model.poisson
        for _ in range(25):
            theta = MatrixForm([[random_fieldform(rng, model, nterms=2,
                                                  max_h=0, degree=1,
                                                  max_deg=2)
                                 for _ in range(2)] for _ in range(2)])
            phi = MatrixForm([[random_fieldform(rng, model, nterms=2,
                                                max_h=0,
                                                degree=rng.randint(0, 2),
                                                max_deg=2)
                               for _ in range(2)] for _ in range(2)])
            once = covariant_d(phi, theta, w)
            curv = quantum_curvature(theta, w)
            if covariant_d(once, theta, w) != curv.qmul(phi, w):
                bad += 1
    assert _verdict(12, "chern-weil identities", ok and bad == 0)


def test_criterion_13_moyal_star_product():
    # the star product is associative and the coordinate commutator is
    # x_i * x_j - x_j * x_i = 2 h w_ij on random polynomials
    _payload, ok = SUITES["moyal"].check(Random(113), count=60)
    assert _verdict(13, "moyal star product", ok)
