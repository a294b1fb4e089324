"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed list of operations generated from the seed during
set-up.  An operation is one unit a user would ask for (one identity
check, one rank report, one scenario or suite) and returns
``(verdict, output_text)``: the verdict is the operation's own check and
the text is the exact output whose digest is compared across runs.

Operations call into ``qdr`` through module attributes at call time, so
the trace wrappers installed later by ``tracing.py`` see every call.
Each operation rebuilds its pairings from plain entries, so repeating
the list never warms the blade-pair memo across operations.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb
from random import Random

from qdr import bigraded, cli, cohomology, exterior, fields, fixtures
from qdr import functions, rand, symplectic
from qdr.blades import masks_of_degree
from qdr.scalars import HPoly

class Op:
    """One operation: a label naming its shape and a callable."""

    __slots__ = ("label", "call")

    def __init__(self, label, call):
        self.label = label
        self.call = call


def _nonzero_fraction(rng):
    c = Fraction(0)
    while not c:
        c = rand.random_fraction(rng, 3)
    return c


# -- wedge_algebra -----------------------------------------------------------
#
# Criteria 01-03 shapes.  Blade degrees and the number of pairing entries
# are fixed per position and only the blades, entries and coefficients
# come from the seed: the cost of one contraction varies by a factor of
# ten with the degrees, and a fixed shape keeps one run's total work
# comparable with another seed's.

_DEGREES = {
    2: ((1, 1), (1, 2), (2, 1)),
    3: ((1, 2), (2, 1), (1, 1)),
    4: ((2, 2), (1, 3), (2, 1)),
    5: ((2, 3), (3, 2), (2, 2)),
    6: ((2, 3), (3, 2), (2, 2)),
    7: ((2, 3), (3, 2), (2, 2)),
    8: ((2, 3), (3, 2), (2, 2)),
}
# (dimension, associativity checks, supercommutativity checks) per list.
# One check costs 0.5 to 3 times its shape's mean, so the list holds many
# moderate dimension-8 checks rather than a few large ones: the spread of
# a list's total shrinks with the square root of the number of checks.
# They are also over half the list, so the median latency falls inside
# one cluster of similar costs.
_WEDGE_PLAN = ((2, 16, 16), (3, 16, 16), (4, 16, 16), (5, 16, 16),
               (6, 48, 16), (7, 160, 24), (8, 640, 32))
_MULTI_PLAN = ((2, 16), (4, 16), (6, 8))
_NILPOTENT_PLAN = ((1, 4), (2, 4), (3, 4), (4, 4))


def _blade_form(rng, dim, degrees, max_h=1):
    terms = {}
    for deg in degrees:
        mask = rng.choice(masks_of_degree(dim, deg))
        c = rand.random_hpoly(rng, max_h, 3)
        terms[mask] = terms.get(mask, 0) + c
    return exterior.QForm(dim, terms)


def _entries(rng, positions, count):
    return {p: _nonzero_fraction(rng) for p in rng.sample(positions, count)}


def _pairing_entries(rng, dim):
    cells = [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
    return _entries(rng, cells, dim * dim // 2)


def _bivector_entries(rng, dim):
    cells = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    return _entries(rng, cells, max(1, (7 * len(cells)) // 10))


def _assoc_op(rng, dim, k):
    pattern = _DEGREES[dim]
    phi = _pairing_entries(rng, dim)
    u, v, t = (_blade_form(rng, dim, pattern[(k + s) % 3]) for s in range(3))

    def call():
        w = exterior.PairTensor(dim, phi)
        qw = exterior.quantum_wedge
        left = qw(qw(u, v, w), t, w)
        right = qw(u, qw(v, t, w), w)
        return left == right, str(left)
    return Op(f"assoc.d{dim}", call)


def _supercomm_op(rng, dim, k):
    da, db = _DEGREES[dim][k % 3]
    a = _blade_form(rng, dim, (da,), max_h=0)
    b = _blade_form(rng, dim, (db,), max_h=0)
    wentries = _bivector_entries(rng, dim)
    sign = -1 if da * db % 2 else 1

    def call():
        w = exterior.Bivector(dim, wentries)
        ab = exterior.quantum_wedge(a, b, w)
        ba = exterior.quantum_wedge(b, a, w)
        return ab == ba * sign, str(ab)
    return Op(f"supercomm.d{dim}", call)


def _multi_op(rng, dim, k):
    r = 2 + k % 2
    ws = [_bivector_entries(rng, dim) for _ in range(r)]
    coeffs = [_nonzero_fraction(rng) for _ in range(r)]
    a = _blade_form(rng, dim, (dim // 2, dim // 2 - 1 or 1), max_h=0)
    b = _blade_form(rng, dim, (dim // 2 - 1 or 1, dim // 2), max_h=0)

    def call():
        pairings = [exterior.Bivector(dim, e) for e in ws]
        total = pairings[0].scale(coeffs[0])
        for w, c in zip(pairings[1:], coeffs[1:]):
            total = total + w.scale(c)
        multi = exterior.quantum_wedge_multi(a, b, pairings)
        single = exterior.quantum_wedge(a, b, total)
        return multi.specialize(coeffs) == single, str(multi)
    return Op(f"multiparameter.d{dim}", call)


def _nilpotent_op(rng, n):
    # omega = sum c_a e_i ^ e_j over a random pairing of the coordinates;
    # the deformed form assembled from quantum products is omega - n h
    dim = 2 * n
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    pairs = [tuple(sorted(perm[2 * a:2 * a + 2])) for a in range(n)]
    scale = [_nonzero_fraction(rng) for _ in range(n)]
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), c in zip(pairs, scale):
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = -c
    omega = exterior.QForm(dim, {(i, j): c for (i, j), c in zip(pairs, scale)})
    expected = omega - exterior.QForm.scalar(dim, HPoly({1: n}))

    def call():
        w = symplectic.bivector_of(symplectic.SymplecticForm(dim, rows))
        sigma = exterior.QForm.zero(dim)
        for (i, j), c in zip(pairs, scale):
            sigma = sigma + exterior.quantum_wedge(
                exterior.QForm.one_form(dim, i, c),
                exterior.QForm.one_form(dim, j), w)
        below = exterior.quantum_power(sigma, n, w)
        top = exterior.quantum_power(sigma, n + 1, w)
        ok = sigma == expected and top.is_zero() and not below.is_zero()
        return ok, str(sigma) + "\n" + str(below)
    return Op(f"nilpotency.n{n}", call)


def wedge_algebra(seed):
    rng = Random(f"wedge_algebra:{seed}")
    ops = []
    for dim, nassoc, nsuper in _WEDGE_PLAN:
        ops += [_assoc_op(rng, dim, k) for k in range(nassoc)]
        ops += [_supercomm_op(rng, dim, k) for k in range(nsuper)]
    for dim, count in _MULTI_PLAN:
        ops += [_multi_op(rng, dim, k) for k in range(count)]
    for n, count in _NILPOTENT_PLAN:
        ops += [_nilpotent_op(rng, n) for _ in range(count)]
    return ops


# -- torus_cohomology --------------------------------------------------------
#
# Each model is a torus with a constant symplectic form in shuffled,
# rescaled Darboux position, so the seed changes every matrix entry but
# not the block sparsity.  The scales are +-2/3 or +-3/2: elimination
# cost grows with the entries' bit length, and a free choice of scale
# moved the time of one torus(2, 1) rank report by 60% between seeds.
# Each operation builds its complex the way the CLI cohomology task
# does and computes one rank report.

_TORUS_PLAN = tuple(
    (1, N, mode, theory)
    for N in (1, 2, 3, 4)
    for mode in ("laurent", "polynomial")
    for theory in ("quantum", "de_rham", "poisson")
) + ((2, 1, "laurent", "quantum"), (2, 1, "polynomial", "quantum"))

_REPORTS = {
    "quantum": "quantum_cohomology_dims",
    "de_rham": "dr_cohomology_dims",
    "poisson": "poisson_homology_dims",
}


def _torus_model(rng, n, N):
    dim = 2 * n
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(n):
        i, j = perm[2 * a], perm[2 * a + 1]
        c = rng.choice((-1, 1)) * rng.choice((Fraction(2, 3), Fraction(3, 2)))
        rows[i][j], rows[j][i] = c, -c
    omega = symplectic.SymplecticForm(dim, rows)
    w = symplectic.bivector_of(omega)
    poisson = fields.PoissonField(
        dim, {(i, j): c for i, j, c in w.upper_entries()})
    return fixtures.Model("torus", dim, functions.FourierFn, poisson, omega,
                          torus_n=n, torus_N=N)


def _expected_dims(dim, mode, theory):
    betti = [comb(dim, q) for q in range(dim + 1)]
    if theory == "de_rham":
        return tuple(betti)
    if theory == "poisson":
        return tuple(reversed(betti))
    # E1 prediction: Betti numbers summed over the admissible h window
    return tuple(sum(b for q, b in enumerate(betti)
                     if (m - q) % 2 == 0 and (mode == "laurent" or q <= m))
                 for m in range(dim + 2))


def torus_cohomology(seed):
    rng = Random(f"torus_cohomology:{seed}")
    ops = []
    for n, N, mode, theory in _TORUS_PLAN:
        model = _torus_model(rng, n, N)
        expected = _expected_dims(2 * n, mode, theory)

        def call(model=model, N=N, mode=mode, theory=theory,
                 expected=expected):
            comp = cohomology.build_complex(model, N, mode)
            rep = getattr(cohomology, _REPORTS[theory])(comp)
            return rep.passed() and rep.dims == expected, str(rep)
        ops.append(Op(f"{theory}.t{n}N{N}.{mode}", call))
    return ops


# -- cli_mix -----------------------------------------------------------------
#
# Scenario files and suite checks, each followed by a machine-format
# emit.  Every task kind and all thirteen suites appear; the sizes put
# most of the time into function-coefficient calculus, the Hermitian
# pairing, one n = 3 spectrum and the omega-power ring.


def _coeff(rng):
    c = _nonzero_fraction(rng)
    return str(c) if c > 0 else f"(-{-c})"


def _const_expr(rng, dim, nterms=2, width=2, homogeneous=False):
    # homogeneous forms use the classical wedge only: some operators
    # (K, A, L_star) reject mixed blade degrees
    terms = []
    for _ in range(nterms):
        idx = rng.sample(range(1, dim + 1), min(width, dim))
        ops = ["^" if homogeneous else rng.choice(("^h", "^h", "^"))
               for _ in idx[1:]]
        body = f"e[{idx[0]}]" + "".join(
            f" {op} e[{i}]" for op, i in zip(ops, idx[1:]))
        hpart = " + h" if not homogeneous and rng.random() < 0.3 else ""
        terms.append(f"{_coeff(rng)} * ({body}{hpart})")
    return " + ".join(terms)


def _poly_atom(rng, dim):
    xs = " * ".join(f"x[{rng.randint(1, dim)}]"
                    for _ in range(rng.randint(1, 2)))
    return f"({_coeff(rng)} + {xs})"


def _field_expr(rng, dim, nterms=2, width=2, torus=False):
    terms = []
    for _ in range(nterms):
        idx = rng.sample(range(1, dim + 1), min(width, dim))
        if torus:
            ks = ", ".join(str(rng.randint(-1, 1)) for _ in range(dim))
            fn = f"mode({ks})"
        else:
            fn = _poly_atom(rng, dim)
        body = " ^h ".join(f"dx[{i}]" for i in idx)
        terms.append(f"{fn} * {body}")
    return " + ".join(terms)


def _theta(rng, dim, rank):
    return [[f"{_poly_atom(rng, dim)} * dx[{rng.randint(1, dim)}]"
             for _ in range(rank)] for _ in range(rank)]


def _flat_scenario(rng, n, parity, seed):
    dim = 2 * n
    tasks = [
        {"op": "product", "expr": _const_expr(rng, dim, 3, min(dim, 3))},
        {"op": "power", "expr": _const_expr(rng, dim, 2, 2), "k": n + 1},
    ] + [
        {"op": "operator", "name": name, "expr": _const_expr(rng, dim, 2, 2)}
        for name in ("L_h", "L_h_star", "A_h")
    ] + [
        {"op": "operator", "name": name,
         "expr": _const_expr(rng, dim, 2, 2, homogeneous=True)}
        for name in ("star", "K", "A", "L_star")
    ] + [
        {"op": "operator", "name": name, "expr": _field_expr(rng, dim, 2, 2)}
        for name in ("d_h", "d_h_mirror", "delta")
    ] + [
        {"op": "product", "expr": _field_expr(rng, dim, 2, 1) + " ^h "
         + f"({_field_expr(rng, dim, 1, 1)})"},
        {"op": "chern", "theta": _theta(rng, dim, 2)},
        {"op": "spectrum", "n": n, "parity": parity},
    ]
    return {"model": "flat", "n": n, "seed": seed, "tasks": tasks}


def _poisson_scenario(rng, model, seed):
    tasks = []
    for _ in range(2):
        tasks += [
            {"op": "operator", "name": name, "expr": _field_expr(rng, 3, 3, 2)}
            for name in ("d_h", "delta", "d_h_mirror", "iota")
        ] + [
            {"op": "product", "expr": f"({_field_expr(rng, 3, 3, 1)}) ^h "
             f"({_field_expr(rng, 3, 3, 2)})"},
            {"op": "power", "expr": _field_expr(rng, 3, 2, 1), "k": 3},
            {"op": "chern", "theta": _theta(rng, 3, 2)},
        ]
    return {"model": model, "seed": seed, "tasks": tasks}


def _torus_scenario(rng, theory, seed):
    tasks = [
        {"op": "integral", "expr": _field_expr(rng, 2, 2, 2, torus=True)}
        for _ in range(2)
    ] + [
        {"op": "operator", "name": name,
         "expr": _field_expr(rng, 2, 2, 1, torus=True)}
        for name in ("d_h", "delta", "d")
    ] + [
        {"op": "product", "expr": f"({_field_expr(rng, 2, 2, 1, torus=True)})"
         f" ^h ({_field_expr(rng, 2, 1, 1, torus=True)})"}
        for _ in range(2)
    ] + [
        {"op": "stokes", "count": 6},
        {"op": "cohomology", "theory": theory},
    ]
    return {"model": "torus", "n": 1, "truncation": 2, "seed": seed,
            "tasks": tasks}


def _custom_scenario(rng, seed):
    # constant omega in shuffled, rescaled Darboux position on R^4
    perm = list(range(4))
    rng.shuffle(perm)
    rows = [["0"] * 4 for _ in range(4)]
    for a in range(2):
        i, j = perm[2 * a], perm[2 * a + 1]
        c = _nonzero_fraction(rng)
        rows[i][j], rows[j][i] = str(c), str(-c)
    tasks = [
        {"op": "product", "expr": _const_expr(rng, 4, 3, 3)},
        {"op": "power", "expr": _const_expr(rng, 4, 2, 2), "k": 3},
    ] + [
        {"op": "operator", "name": name, "expr": _const_expr(rng, 4, 2, 2)}
        for name in ("iota", "star", "L_h")
    ]
    return {"model": "custom", "dim": 4, "omega": rows, "seed": seed,
            "tasks": tasks}


# suite name -> Options fields; counts keep each suite's share moderate
_SUITE_PLAN = (
    ("associativity", {"dim": 6, "count": 6}),
    ("multiparameter", {"count": 12}),
    ("relation17", {"n": 4}),
    ("recursion", {"n": 4}),
    ("complex", {"n": 2, "count": 16}),
    ("cohomology", {"n": 1, "truncation": 2}),
    ("lefschetz", {"n": 2}),
    ("ledger", {"count": 4}),
    ("stokes", {"n": 1, "truncation": 2, "count": 12}),
    ("hermitian", {"n": 2}),
    ("dolbeault", {"n": 2, "count": 12}),
    ("chern", {"n": 2, "count": 10}),
    ("moyal", {"count": 24}),
)


def _scenario_op(workdir, name, scenario):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, sort_keys=True)

    def call():
        report = cli.run_scenario(path)
        return report["passed"], cli.emit(report, "machine")
    return Op(f"scenario.{scenario['model']}", call)


def _check_op(name, fields_, seed):
    def call():
        report = cli.check(name, cli.Options(seed=seed, **fields_))
        return report["passed"], cli.emit(report, "machine")
    return Op(f"check.{name}", call)


def cli_mix(seed, workdir):
    rng = Random(f"cli_mix:{seed}")
    ops = []
    for name, opts in _SUITE_PLAN:
        ops.append(_check_op(name, opts, rng.randrange(1 << 30)))
    # the task kinds whose cost depends on a choice (spectrum parity,
    # cohomology theory) take each choice at fixed positions, so that
    # seeds change the inputs but not the mix; the counts put the median
    # inside the so3 scenarios and the tail inside the torus scenarios,
    # not on the edge between two clusters of costs
    scenarios = []
    for k in range(6):
        scenarios.append(_flat_scenario(rng, 1 + k % 2, ("even", "odd")[k % 2],
                                        rng.randrange(1 << 30)))
    for k in range(14):
        model = "lie_poisson_so3" if k % 7 < 5 else "heisenberg"
        scenarios.append(_poisson_scenario(rng, model, rng.randrange(1 << 30)))
    for k in range(8):
        theory = ("quantum", "de_rham", "poisson", "first_page")[k % 4]
        scenarios.append(_torus_scenario(rng, theory, rng.randrange(1 << 30)))
    for _ in range(4):
        scenarios.append(_custom_scenario(rng, rng.randrange(1 << 30)))
    scenarios.append({"model": "flat", "n": 3, "seed": rng.randrange(1 << 30),
                      "tasks": [{"op": "spectrum", "n": 3, "parity": "odd"}]})
    scenarios.append({"model": "flat", "n": 2, "seed": rng.randrange(1 << 30),
                      "tasks": [{"op": "cpn_table", "n": k}
                                for k in (1, 2, 3, 4, 5)],
                      "suite": ["relation17"]})
    for k, scenario in enumerate(scenarios):
        ops.append(_scenario_op(workdir, f"s{k:02d}", scenario))
    # the CLI builds these frames lazily on first use; a fresh process
    # pays for them once, so they belong to set-up
    for n in (1, 2):
        bigraded.standard_frame(n)
    return ops


def build(workload, seed, workdir):
    if workload == "wedge_algebra":
        return wedge_algebra(seed)
    if workload == "torus_cohomology":
        return torus_cohomology(seed)
    if workload == "cli_mix":
        return cli_mix(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
