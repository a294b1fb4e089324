"""Scenario runner and report emitter.

Evaluates expressions over the exact form algebras, runs named check
suites, and renders text or machine reports.

Expression grammar (whitespace-insensitive except inside ``^h``):

    expr     : product (('+' | '-') product)*
    product  : factor (('*' | '^' | '^h') factor)*      left associative
    factor   : '-' factor | atom
    atom     : rational | h | e[i] | dx[i] | x[i]
             | mode(k1, ..., km) | '(' expr ')'
    rational : integer or p/q with integer p, q

``*`` and ``^`` are the classical wedge (a 0-form factor acts as a
scalar multiple); ``^h`` (written without an inner space) is the
deformed wedge against the model's bivector.  ``e[i]`` and ``dx[i]``
are the constant basis covectors, ``x[i]`` the i-th coordinate
(polynomial models only), ``mode(k1, ..., km)`` the Fourier character
of the integer vector k (torus models only).  Expressions that mention
``x``, ``dx``, or ``mode`` evaluate in the model's function-coefficient
algebra; pure ``e[i]``/``h`` expressions on flat and custom models
evaluate with constant coefficients.

Scenario files are JSON objects with keys

    model       "flat" | "torus" | "lie_poisson_so3" | "heisenberg" | "custom"
    dim         even dimension (flat, custom)
    n           half-dimension (flat, torus)
    omega       matrix rows of "p/q" strings, antisymmetric invertible (custom)
    truncation  torus mode cutoff N >= 1
    seed        integer seed for every randomized task (default 0)
    tasks       list of task objects, or bare strings naming check suites
    suite       a suite name or list of names, appended to the task list

Task objects carry an "op" key: product, power, operator, spectrum,
cohomology, integral, stokes, chern, cpn_table, or suite.  Unknown keys
anywhere are rejected.  Machine reports are JSON trees whose numbers
are exact strings ("p/q") or exponent/coefficient pair lists.

Exit codes: 0 all assertion-bearing tasks passed, 1 at least one
failed, 2 usage, parse, or model-validation error.  The environment
variable QDR_MAX_DIM (default 8) caps the working dimension; MAX_MODES
caps the Fourier modes (2N + 1)^dim of a truncated torus complex.
A repetition count (``--count``, a suite or stokes task's "count")
must lie in 1..MAX_COUNT and a power task's k in 0..MAX_POWER, else
exit 2; a count of 0 is rejected, never replaced by the default.  A
library check that raises AssertionError inside a suite, a cohomology
or cpn_table task or the convention ledger fails that suite, task or
report (exit 1) instead of ending in a traceback.
A suite rejects a half-dimension n above its own cap (cohomology,
stokes, hermitian, dolbeault and chern 2, lefschetz 3, relation17 4,
recursion 5) with exit 2 instead of running a smaller model, and
QDR_MAX_DIM caps every dimension a suite is given (dim, and 2n for n)
and the ones it works in: given, its default, or the fixed size of the
models it builds (ledger 6, multiparameter and moyal 4, complex 3).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from .bigraded import derive_adjoint_law, hermitian_gram
from .chernweil import (
    GaugeTransform,
    MatrixForm,
    bianchi_check,
    char_form,
    curvature_gauge_check,
    quantum_curvature,
)
from .cohomology import (
    build_complex,
    dr_cohomology_dims,
    e1_dims,
    lemma62_check,
    poisson_homology_dims,
    quantum_cohomology_dims,
    quantum_integral,
    stokes_check,
)
from .cpn import cpn_structure_constants, derived_recursion_report, verify_relation_17
from .exterior import (
    Bivector,
    QForm,
    quantum_power,
    quantum_wedge,
    quantum_wedge_multi,
    wedge,
)
from .fields import (
    FieldForm,
    contract_field,
    delta_component_check,
    exterior_d,
    jacobi_check,
    koszul_delta,
    quantum_d,
    quantum_d_mirror,
    quantum_dolbeault_split,
    quantum_wedge_field,
    wedge_field,
)
from .fixtures import (
    heisenberg,
    lie_poisson_so3,
    non_poisson_example,
    standard_symplectic,
    torus,
)
from .functions import FourierFn, PolyFn, moyal_product
from .linalg import char_poly
from .rand import (
    random_bivector,
    random_blade_form,
    random_fieldform,
    random_pairing,
    random_polyfn,
    random_qform,
)
from .scalars import HPoly, frac_str
from .symplectic import (
    SymplecticForm,
    apply_A,
    apply_Ah,
    apply_K,
    apply_L,
    apply_Lh,
    apply_Lhstar,
    apply_Lstar,
    bivector_of,
    contract_bivector,
    decomposition_report,
    lefschetz_matrix,
    relation_report,
    symplectic_star,
)

DEFAULT_MAX_DIM = 8

# most Fourier modes (2N + 1)^dim a cohomology task or suite may truncate
# to; torus(3, 1) has exactly this many
MAX_MODES = 729

# largest repetition count of a suite or stokes task, and largest power k
MAX_COUNT = 1000
MAX_POWER = 64

MODELS = ("flat", "torus", "lie_poisson_so3", "heisenberg", "custom")


class ScenarioError(ValueError):
    """Bad scenario, expression, or option: reported with exit code 2."""


def _choice(what, value, allowed):
    """value if it is one of the names in allowed, else a ScenarioError.

    Every enumerated field of a scenario goes through here, so a JSON
    list or object in its place is rejected like an unknown name."""
    if not isinstance(value, str) or value not in allowed:
        raise ScenarioError(f"unknown {what} {value!r}; choose one of "
                            f"{', '.join(allowed)}")
    return value


def max_dim() -> int:
    raw = os.environ.get("QDR_MAX_DIM", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_DIM
    except ValueError:
        raise ScenarioError(f"QDR_MAX_DIM is not an integer: {raw!r}")


def _check_dim(dim: int):
    cap = max_dim()
    if dim > cap:
        raise ScenarioError(f"dimension {dim} exceeds QDR_MAX_DIM={cap}")
    if dim < 2 or dim % 2:
        raise ScenarioError(f"dimension must be even and positive, got {dim}")


def _check_modes(dim: int, trunc: int):
    modes = (2 * trunc + 1) ** dim
    if modes > MAX_MODES:
        raise ScenarioError(
            f"truncation {trunc} in dimension {dim} gives {modes} Fourier "
            f"modes, over MAX_MODES={MAX_MODES}")


# ---------------------------------------------------------------------------
# expression parser

_TOKEN = re.compile(
    r"""\s*(?:
      (?P<num>\d+(?:\s*/\s*\d+)?)
    | (?P<qwedge>\^h\b)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<punct>[+\-*^()\[\],])
    )""",
    re.VERBOSE,
)


def tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ScenarioError(
                f"cannot read expression at column "
                f"{len(text) - len(rest) + 1}: {rest[:12]!r}")
        pos = m.end()
        # the token's own start, past the whitespace the match skips
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
    return out


# deepest nesting of parentheses and unary minus an expression may use;
# the parser recurses once per level and must stay inside Python's stack
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, space, text):
        self.toks, self.space, self.text = tokens, space, text
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ScenarioError(f"expression ends early: {self.text!r}")
        self.pos += 1
        return tok

    def _expect(self, value):
        tok = self._take()
        if tok[1] != value:
            raise ScenarioError(
                f"expected {value!r} at column {tok[2] + 1} in {self.text!r}")

    def parse(self):
        value = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ScenarioError(
                f"trailing {tok[1]!r} at column {tok[2] + 1} in {self.text!r}")
        return value

    def _expr(self):
        value = self._product()
        while (tok := self._peek()) and tok[1] in ("+", "-"):
            self._take()
            rhs = self._product()
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def _product(self):
        value = self._factor()
        while (tok := self._peek()) and tok[1] in ("*", "^", "^h"):
            self._take()
            rhs = self._factor()
            if tok[1] == "^h":
                value = self.space.qwedge(value, rhs)
            else:
                value = self.space.wedge(value, rhs)
        return value

    def _factor(self):
        if self.depth >= MAX_NESTING:
            raise ScenarioError(
                f"expression nests parentheses or unary minus deeper than "
                f"{MAX_NESTING} levels")
        self.depth += 1
        try:
            tok = self._peek()
            if tok and tok[1] == "-":
                self._take()
                return -self._factor()
            return self._atom()
        finally:
            self.depth -= 1

    def _int(self):
        tok = self._take()
        sign = 1
        if tok[1] == "-":
            sign, tok = -1, self._take()
        if tok[0] != "num" or "/" in tok[1]:
            raise ScenarioError(
                f"expected an integer at column {tok[2] + 1} in {self.text!r}")
        return sign * int(tok[1])

    def _atom(self):
        tok = self._take()
        kind, val, col = tok
        if kind == "num":
            if "/" in val:
                p, q = val.split("/")
                if not int(q):
                    raise ScenarioError(
                        f"zero denominator at column {col + 1} in "
                        f"{self.text!r}")
                return self.space.scalar(Fraction(int(p), int(q)))
            return self.space.scalar(Fraction(int(val)))
        if kind == "name":
            if val == "h":
                return self.space.h()
            if val in ("e", "dx", "x"):
                self._expect("[")
                i = self._int()
                self._expect("]")
                if val == "x":
                    return self.space.coord(i)
                return self.space.basis(i)
            if val == "mode":
                self._expect("(")
                ks = [self._int()]
                while self._peek() and self._peek()[1] == ",":
                    self._take()
                    ks.append(self._int())
                self._expect(")")
                return self.space.mode(ks)
            raise ScenarioError(
                f"unknown identifier {val!r} at column {col + 1}")
        if val == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        raise ScenarioError(
            f"unexpected {val!r} at column {col + 1} in {self.text!r}")


class _ConstantSpace:
    """Constant-coefficient forms against a fixed bivector."""

    kind = "constant"

    def __init__(self, dim, w, omega):
        self.dim, self.w, self.omega = dim, w, omega

    def scalar(self, c):
        return QForm.constant(self.dim, HPoly(c))

    def h(self):
        return QForm.constant(self.dim, HPoly({1: 1}))

    def basis(self, i):
        if not 1 <= i <= self.dim:
            raise ScenarioError(f"basis index {i} outside 1..{self.dim}")
        return QForm.basis(self.dim, (i,))

    def wedge(self, a, b):
        return wedge(a, b)

    def qwedge(self, a, b):
        return quantum_wedge(a, b, self.w)


class _FieldSpace:
    """Function-coefficient forms over a fixture model."""

    kind = "field"

    def __init__(self, model):
        self.model, self.dim = model, model.dim

    def scalar(self, c):
        return FieldForm.from_fn(self.model.constant(c))

    def h(self):
        return FieldForm.from_fn(self.model.constant(1), 0, 1)

    def basis(self, i):
        if not 1 <= i <= self.dim:
            raise ScenarioError(f"basis index {i} outside 1..{self.dim}")
        return self.model.lift(QForm.basis(self.dim, (i,)))

    def coord(self, i):
        if self.model.fnring is not PolyFn:
            raise ScenarioError(
                f"x[{i}] needs polynomial coefficients; "
                f"model {self.model.name} uses {self.model.fnring.__name__}")
        if not 1 <= i <= self.dim:
            raise ScenarioError(f"coordinate index {i} outside 1..{self.dim}")
        return FieldForm.from_fn(PolyFn.coord(self.dim, i))

    def mode(self, ks):
        if self.model.fnring is not FourierFn:
            raise ScenarioError(
                f"mode(...) needs a torus model, not {self.model.name}")
        if len(ks) != self.dim:
            raise ScenarioError(
                f"mode needs {self.dim} integers, got {len(ks)}")
        return FieldForm.from_fn(FourierFn(self.dim, {tuple(ks): Fraction(1)}))

    def wedge(self, a, b):
        return wedge_field(a, b)

    def qwedge(self, a, b):
        return quantum_wedge_field(a, b, self.model.poisson)


class Context:
    """A scenario's working model: spaces, bivector, truncation, seed."""

    def __init__(self, name, dim, constant_space, field_space,
                 truncation=None, seed=0):
        self.name, self.dim = name, dim
        self.constant_space, self.field_space = constant_space, field_space
        self.truncation, self.seed = truncation, seed

    @property
    def model(self):
        return self.field_space.model if self.field_space else None

    def default_space(self):
        return self.constant_space or self.field_space

    def eval(self, text, flavor="auto"):
        if not isinstance(text, str):
            raise ScenarioError(f"expression must be a string, got {text!r}")
        toks = tokenize(text)
        has_fns = any(
            k == "name" and v in ("x", "dx", "mode") for k, v, _ in toks)
        if flavor == "constant" and has_fns:
            raise ScenarioError(
                f"{text!r} has function coefficients; this needs a "
                f"constant-coefficient form")
        if flavor == "field" or has_fns:
            if self.field_space is None:
                raise ScenarioError(
                    f"{text!r} needs function coefficients; "
                    f"model {self.name} is constant-only")
            space = self.field_space
        elif flavor == "constant":
            if self.constant_space is None:
                raise ScenarioError(
                    f"{text!r} needs a constant-coefficient model")
            space = self.constant_space
        else:
            space = self.default_space()
        return _Parser(toks, space, text).parse()


def _parse_omega_rows(rows, dim):
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise ScenarioError(f"omega must be a {dim}x{dim} matrix of strings")
    out = []
    for r in rows:
        line = []
        for entry in r:
            try:
                line.append(Fraction(str(entry)))
            except (ValueError, ZeroDivisionError):
                raise ScenarioError(f"bad matrix entry {entry!r}")
        out.append(line)
    return out


def build_context(model="flat", dim=None, n=None, omega=None,
                  truncation=None, seed=0) -> Context:
    _choice("model", model, MODELS)
    if truncation is not None and (not isinstance(truncation, int)
                                   or isinstance(truncation, bool)
                                   or truncation < 1):
        raise ScenarioError(f"truncation must be a positive integer, "
                            f"got {truncation!r}")
    if model == "flat":
        if dim is not None:
            _check_dim(dim)
            if n is not None and dim != 2 * n:
                raise ScenarioError(f"dim={dim} and n={n} disagree")
        half = n if n is not None else (dim or 2) // 2
        d = 2 * half
        _check_dim(d)
        m = standard_symplectic(half)
        const = _ConstantSpace(d, Bivector.standard(d), m.omega)
        return Context("flat", d, const, _FieldSpace(m), truncation, seed)
    if model == "torus":
        half = n if n is not None else 1
        d = 2 * half
        _check_dim(d)
        m = torus(half, truncation or 2)
        return Context("torus", d, None, _FieldSpace(m),
                       truncation or 2, seed)
    if model == "lie_poisson_so3":
        m = lie_poisson_so3()
        return Context(model, m.dim, None, _FieldSpace(m), truncation, seed)
    if model == "heisenberg":
        m = heisenberg()
        return Context(model, m.dim, None, _FieldSpace(m), truncation, seed)
    # custom: constant omega given by rows
    if dim is None:
        raise ScenarioError("custom model needs dim")
    _check_dim(dim)
    if omega is None:
        raise ScenarioError("custom model needs an omega matrix")
    try:
        sym = SymplecticForm(dim, _parse_omega_rows(omega, dim))
    except ValueError as ex:
        raise ScenarioError(f"bad omega matrix: {ex}")
    const = _ConstantSpace(dim, bivector_of(sym), sym)
    return Context("custom", dim, const, None, truncation, seed)


# ---------------------------------------------------------------------------
# report plumbing


def _jsonify(value):
    """Exact tree: dict/list/str/int/bool only, so machine output
    round-trips through JSON unchanged."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "serialize"):
        return _jsonify(value.serialize())
    return str(value)


def _value_payload(form):
    return {"value": str(form), "terms": _jsonify(form.serialize())}


@functools.cache
def convention_ledger():
    """The start-up record of derived constants, computed once per
    process; a raising check is not cached. Callers must not mutate the
    returned tree (_report copies it)."""
    dec = decomposition_report(2)
    rel = relation_report(2)
    l62 = lemma62_check(2, 1)
    flat1 = standard_symplectic(1)
    probe = random_fieldform(Random(3), flat1, degree=2)
    comp = delta_component_check(probe, flat1.poisson)
    return {
        "contraction_scaling": _jsonify(list(dec)),
        "dual_lefschetz": _jsonify(list(rel)),
        "koszul_component": _jsonify(comp),
        "window_identity": _jsonify({
            "multiple": l62["part_i"]["multiple"],
            "printed": l62["part_i"]["printed"],
        }),
    }


def _report(kind, info, results):
    checked = [r for r in results if r.get("pass") is not None]
    failed = [r for r in checked if r["pass"] is False]
    try:
        ledger = convention_ledger()
    except AssertionError as ex:
        # a ledger check raises when its identity fails: report FAIL
        ledger = {"error": str(ex)}
    tree = {"kind": kind, **info, "tasks": results, "ledger": ledger,
            "counts": {"tasks": len(results), "checked": len(checked),
                       "failed": len(failed)},
            "passed": not failed and "error" not in ledger}
    return _jsonify(tree)


# ---------------------------------------------------------------------------
# tasks

_TASK_KEYS = {
    "product": {"expr"},
    "power": {"expr", "k"},
    "operator": {"expr", "name"},
    "spectrum": {"n", "parity"},
    "cohomology": {"theory"},
    "integral": {"expr"},
    "stokes": {"count"},
    "chern": {"theta"},
    "cpn_table": {"n"},
    "suite": {"name", "count", "dim", "n", "truncation"},
}

_TASK_REQUIRED = {
    "product": {"expr"},
    "power": {"expr", "k"},
    "operator": {"expr", "name"},
    "spectrum": {"n"},
    "cohomology": set(),
    "integral": {"expr"},
    "stokes": set(),
    "chern": {"theta"},
    "cpn_table": {"n"},
    "suite": {"name"},
}


def _validate_task(task):
    if isinstance(task, str):
        task = {"op": "suite", "name": task}
    if not isinstance(task, dict):
        raise ScenarioError(f"task must be an object or string: {task!r}")
    op = _choice("task op", task.get("op"), _TASK_KEYS)
    extra = set(task) - _TASK_KEYS[op] - {"op"}
    if extra:
        raise ScenarioError(
            f"unknown keys in {op} task: {', '.join(sorted(extra))}")
    missing = _TASK_REQUIRED[op] - set(task)
    if missing:
        raise ScenarioError(
            f"{op} task needs keys: {', '.join(sorted(missing))}")
    return task


def _int_key(task, key, default=None, low=None, high=None):
    val = task.get(key, default)
    if val is None:
        return None
    if not isinstance(val, int) or isinstance(val, bool):
        raise ScenarioError(f"{key} must be an integer, got {val!r}")
    if low is not None and val < low:
        raise ScenarioError(f"{key} must be >= {low}, got {val}")
    if high is not None and val > high:
        raise ScenarioError(f"{key} must be <= {high}, got {val}")
    return val


def _run_product(ctx, task):
    return {"task": "product", "expr": task["expr"], "pass": None,
            **_value_payload(ctx.eval(task["expr"]))}


def _run_power(ctx, task):
    k = _int_key(task, "k", low=0, high=MAX_POWER)
    base = ctx.eval(task["expr"])
    if isinstance(base, QForm):
        value = quantum_power(base, k, ctx.constant_space.w)
    else:
        space = ctx.field_space
        value = space.scalar(1)
        for _ in range(k):
            value = space.qwedge(value, base)
    return {"task": "power", "expr": task["expr"], "k": k, "pass": None,
            **_value_payload(value)}


# operator name -> action on a form of the context's constant or field
# space; a name in both tables acts on whichever space the expression
# evaluates in
_CONSTANT_OPS = {
    "iota": lambda ctx, f: contract_bivector(ctx.constant_space.w, f),
    "L": lambda ctx, f: apply_L(f, ctx.constant_space.omega),
    "L_star": lambda ctx, f: apply_Lstar(f, ctx.constant_space.omega),
    "K": lambda ctx, f: apply_K(f, ctx.constant_space.omega),
    "A": lambda ctx, f: apply_A(f, ctx.constant_space.omega),
    "L_h": lambda ctx, f: apply_Lh(f, ctx.constant_space.omega),
    "L_h_star": lambda ctx, f: apply_Lhstar(f, ctx.constant_space.omega),
    "A_h": lambda ctx, f: apply_Ah(f, ctx.constant_space.omega),
    "star": lambda ctx, f: symplectic_star(f, ctx.constant_space.omega),
}
_FIELD_OPS = {
    "d": lambda ctx, f: exterior_d(f),
    "delta": lambda ctx, f: koszul_delta(f, ctx.model.poisson),
    "d_h": lambda ctx, f: quantum_d(f, ctx.model.poisson),
    "d_h_mirror": lambda ctx, f: quantum_d_mirror(f, ctx.model.poisson),
    "iota": lambda ctx, f: contract_field(ctx.model.poisson, f),
    "L": lambda ctx, f: wedge_field(ctx.model.omega_form(), f),
    "L_h": lambda ctx, f: quantum_wedge_field(ctx.model.omega_form(), f,
                                              ctx.model.poisson),
}
_OPERATOR_NAMES = tuple(name for name in _FIELD_OPS
                        if name not in _CONSTANT_OPS) + tuple(_CONSTANT_OPS)


def _run_operator(ctx, task):
    name = _choice("operator", task["name"], _OPERATOR_NAMES)
    # on a model with both spaces a constant-only operator reads its
    # expression in the constant space, which refuses function
    # coefficients before parsing; otherwise the form's type picks
    if name not in _CONSTANT_OPS:
        flavor = "field"
    elif name not in _FIELD_OPS and ctx.constant_space and ctx.field_space:
        flavor = "constant"
    else:
        flavor = "auto"
    form = ctx.eval(task["expr"], flavor)
    table = _CONSTANT_OPS if isinstance(form, QForm) else _FIELD_OPS
    if name not in table:
        raise ScenarioError(
            f"operator {name!r} is not available on model {ctx.name}")
    return {"task": "operator", "name": name, "expr": task["expr"],
            "pass": None, **_value_payload(table[name](ctx, form))}


def _run_spectrum(ctx, task):
    n = _int_key(task, "n", low=1, high=max_dim() // 2)
    parity = _choice("parity", task.get("parity", "odd"), ("even", "odd"))
    cp = char_poly(lefschetz_matrix(n, parity))
    return {"task": "spectrum", "n": n, "parity": parity,
            "char_poly": str(cp), "coeffs": _jsonify(cp.serialize()),
            "det": frac_str(cp.det), "pass": cp.det != 0}


_THEORIES = {
    "quantum": quantum_cohomology_dims,
    "de_rham": dr_cohomology_dims,
    "poisson": poisson_homology_dims,
    "first_page": e1_dims,
}


def _run_cohomology(ctx, task):
    if ctx.model is None or not ctx.model.is_torus():
        raise ScenarioError("cohomology task needs a torus model")
    theory = _choice("theory", task.get("theory", "quantum"), _THEORIES)
    trunc = ctx.truncation or 2
    _check_modes(ctx.dim, trunc)
    comp = build_complex(ctx.model, trunc)
    out = {"task": "cohomology", "theory": theory}
    try:
        rep = _THEORIES[theory](comp)
    except AssertionError as ex:
        # a rank identity raises when it fails on the unit blocks
        return {**out, "pass": False, "error": str(ex)}
    return {**out, "rows": _jsonify(rep.serialize()), "pass": rep.passed()}


def _run_integral(ctx, task):
    if ctx.model is None or not ctx.model.is_torus():
        raise ScenarioError("integral task needs a torus model")
    form = ctx.eval(task["expr"], "field")
    val = quantum_integral(form, ctx.model.omega, ctx.model)
    return {"task": "integral", "expr": task["expr"], "value": str(val),
            "coeffs": _jsonify(val.serialize()), "pass": None}


def _run_stokes(ctx, task):
    if ctx.model is None or not ctx.model.is_torus():
        raise ScenarioError("stokes task needs a torus model")
    count = _int_key(task, "count", default=_stokes.__kwdefaults__["count"],
                     low=1, high=MAX_COUNT)
    payload, passed = _stokes(Random(ctx.seed), count=count, model=ctx.model)
    return {"task": "stokes", "count": count,
            "failures": payload["failures"], "pass": passed}


def _run_chern(ctx, task):
    if ctx.model is None:
        raise ScenarioError("chern task needs a function-coefficient model")
    theta = task["theta"]
    if isinstance(theta, str):
        entries = [[ctx.eval(theta, "field")]]
    elif (isinstance(theta, list) and theta
          and all(isinstance(r, list) for r in theta)):
        entries = [[ctx.eval(e, "field") for e in row] for row in theta]
    else:
        raise ScenarioError("theta must be an expression string or a "
                            "nonempty matrix of expression strings")
    mat = MatrixForm(entries)
    w = ctx.model.poisson
    try:
        curv = bianchi_check(mat, w)["curvature"]
        trace = char_form(curv, "trace", w)
        ok = True
        note = ""
    except AssertionError as ex:
        curv, trace, ok, note = None, None, False, str(ex)
    out = {"task": "chern", "rank": mat.rank, "pass": ok}
    if ok:
        out["curvature"] = [[str(e) for e in row] for row in curv.entries]
        out["trace"] = _value_payload(trace)
    else:
        out["error"] = note
    return out


def _run_cpn_table(ctx, task):
    n = _int_key(task, "n", low=1, high=5)
    ring = cpn_structure_constants(n)
    out = {"task": "cpn_table", "n": n, "table": _jsonify(ring.serialize()),
           "pass": None}
    if n <= 4:
        try:
            rel = verify_relation_17(n)
        except AssertionError as ex:
            out["pass"] = False
            out["error"] = str(ex)
        else:
            out["nilpotency_order"] = rel["nilpotency_order"]
            out["pass"] = rel["ok"]
    return out


def _run_suite(ctx, task):
    opts = Options(
        dim=_int_key(task, "dim", default=ctx.dim, low=2),
        n=_int_key(task, "n", default=ctx.dim // 2, low=1),
        truncation=_int_key(task, "truncation", default=ctx.truncation,
                            low=1),
        count=_int_key(task, "count"),
        seed=ctx.seed,
    )
    name = task["name"]
    payload, passed = run_suite(name, opts)
    return {"task": "suite", "name": name, "pass": passed, **payload}


_RUNNERS = {
    "product": _run_product,
    "power": _run_power,
    "operator": _run_operator,
    "spectrum": _run_spectrum,
    "cohomology": _run_cohomology,
    "integral": _run_integral,
    "stokes": _run_stokes,
    "chern": _run_chern,
    "cpn_table": _run_cpn_table,
    "suite": _run_suite,
}


# ---------------------------------------------------------------------------
# check suites: each is one function (rng, **bounds) -> (payload, passed)
# that draws from rng in a fixed order; its keyword defaults are the suite's
# CLI defaults, and the acceptance criteria call it with their own Random
# and bounds


def _associativity(rng, *, dim=4, count=25):
    """Supercommutativity of the deformed wedge at an antisymmetric w and
    associativity at a general pairing; dim is one dimension or a tuple
    of them, of which iteration i takes dim[i % len(dim)]."""
    dims = dim if isinstance(dim, tuple) else (dim,)
    bad = 0
    for i in range(count):
        d = dims[i % len(dims)]
        da, db = rng.randint(0, d), rng.randint(0, d)
        a = random_blade_form(rng, d, da)
        b = random_blade_form(rng, d, db)
        w = random_bivector(rng, d)
        swapped = quantum_wedge(b, a, w)
        if da * db % 2:
            swapped = -swapped
        if quantum_wedge(a, b, w) != swapped:
            bad += 1
        phi = random_pairing(rng, d)
        u, v, t = (random_qform(rng, d, nterms=2) for _ in range(3))
        left = quantum_wedge(quantum_wedge(u, v, phi), t, phi)
        right = quantum_wedge(u, quantum_wedge(v, t, phi), phi)
        if left != right:
            bad += 1
    return {"dim": dim, "count": count, "failed": bad}, bad == 0


def _multiparameter(rng, *, count=20, dims=(2, 4)):
    """The multiparameter product specialised at h_j -> c_j against the
    one-parameter product at the combined bivector, in dimensions drawn
    from dims."""
    bad = 0
    for _ in range(count):
        dim = rng.choice(dims)
        ws = [random_bivector(rng, dim)
              for _ in range(rng.choice([2, 3]))]
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in ws]
        a = random_qform(rng, dim, nterms=2, max_h=0)
        b = random_qform(rng, dim, nterms=2, max_h=0)
        total = ws[0].scale(coeffs[0])
        for w, c in zip(ws[1:], coeffs[1:]):
            total = total + w.scale(c)
        multi = quantum_wedge_multi(a, b, ws)
        if multi.specialize(coeffs) != quantum_wedge(a, b, total):
            bad += 1
    return {"count": count, "failed": bad}, bad == 0


def _relation17(rng, *, n=4):
    """verify_relation_17 for each m <= n: a row per m, which fails when
    the nilpotency order is not m + 1."""
    rows = []
    for m in range(1, n + 1):
        rel = verify_relation_17(m)
        rows.append({"n": m, "ok": rel["ok"],
                     "nilpotency_order": rel["nilpotency_order"]})
    return {"rows": rows}, all(r["ok"] and r["nilpotency_order"] == r["n"] + 1
                               for r in rows)


def _recursion(rng, *, n=3):
    """The omega-power recursion rows of derived_recursion_report(n)."""
    rows = derived_recursion_report(n)["rows"]
    passed = all(r["matches_derived"] for r in rows)
    return {"n": n, "rows": _jsonify(rows)}, passed


def _complex(rng, *, n=1, truncation=2, count=8, models=None):
    """jacobi_check accepts each model, d_h² = 0 and the deformed Leibniz
    rule hold on count random pairs per model, and jacobi_check rejects
    the non-Poisson fixture with a witness; models default to flat(n),
    lie_poisson_so3, heisenberg and torus(1, truncation)."""
    if models is None:
        models = [standard_symplectic(n), lie_poisson_so3(), heisenberg(),
                  torus(1, truncation)]
    bad = 0
    rows = []
    for model in models:
        w = model.poisson
        ok_j, _ = jacobi_check(w)
        if not ok_j:
            bad += 1
        for _ in range(count):
            dega = rng.randint(0, model.dim)
            a = random_fieldform(rng, model, nterms=2, degree=dega)
            b = random_fieldform(rng, model, nterms=2,
                                 degree=rng.randint(0, model.dim))
            if not quantum_d(quantum_d(a, w), w).is_zero():
                bad += 1
            lhs = quantum_d_mirror(quantum_wedge_field(a, b, w), w)
            da = quantum_wedge_field(quantum_d_mirror(a, w), b, w)
            db = quantum_wedge_field(a, quantum_d_mirror(b, w), w)
            if dega % 2:
                db = -db
            if lhs != da + db:
                bad += 1
        rows.append({"model": model.name, "jacobi": ok_j})
    np_ok, np_witness = jacobi_check(non_poisson_example().poisson)
    if np_ok or np_witness is None:
        bad += 1
    rows.append({"model": "non_poisson_example", "jacobi": np_ok,
                 "witness": str(np_witness)})
    return {"count": count, "models": rows, "failed": bad}, bad == 0


def _cohomology(rng, *, n=1, truncation=None):
    """Quantum cohomology and Poisson homology ranks of the 2n-torus
    truncated at N = truncation, by default 2 for n = 1 and 1 above."""
    model = torus(n, truncation or (2 if n == 1 else 1))
    _check_modes(model.dim, model.torus_N)
    comp = build_complex(model, model.torus_N)
    quantum = quantum_cohomology_dims(comp)
    poisson = poisson_homology_dims(comp)
    payload = {"model": str(model),
               "quantum": _jsonify(quantum.serialize()),
               "poisson": _jsonify(poisson.serialize())}
    return payload, quantum.passed() and poisson.passed()


def _lefschetz(rng, *, n=2):
    """The parity windows of h^-1 L_h for each m <= n, a row each with
    det and characteristic polynomial: none is singular, and the m = 1
    odd window is the identity."""
    rows, singular = [], False
    for m in range(1, n + 1):
        for parity in ("even", "odd"):
            cp = char_poly(lefschetz_matrix(m, parity))
            rows.append({"n": m, "parity": parity, "det": frac_str(cp.det),
                         "char_poly": str(cp)})
            singular = singular or cp.det == 0
    eye = [[Fraction(i == j) for j in range(2)] for i in range(2)]
    base = lefschetz_matrix(1, "odd") == eye
    return {"rows": rows, "identity_base_case": base}, not singular and base


def _ledger(rng, *, count=5, ns=(1, 2)):
    """The convention ledger's constants and their stable pattern:
    decomposition_report and relation_report for n = 1, 2, 3 repeat
    n = 1's (the same constants, and (r0, n * r1) for its (r0, r1)); the
    Koszul component constants c of count random 2-form probes per flat
    model of half-dimension n in ns are one value; and lemma62_check's
    window multiple is -(n - k) for n in ns and every 0 <= k <= n."""
    reports = [(decomposition_report(n), relation_report(n))
               for n in (1, 2, 3)]
    dec1, rel1 = reports[0]
    passed = all(dec == dec1 and rel[0] == rel1[0] and rel[1] == n * rel1[1]
                 for n, (dec, rel) in enumerate(reports, 1))
    rows = {"contraction_scaling": [_jsonify(list(dec)) for dec, _ in reports],
            "dual_lefschetz": [_jsonify(list(rel)) for _, rel in reports]}
    cs = set()
    for n in ns:
        model = standard_symplectic(n)
        for _ in range(count):
            probe = random_fieldform(rng, model, degree=2)
            comp = delta_component_check(probe, model.poisson)
            if comp["matched_terms"]:
                cs.add(comp["c"])
    rows["koszul_component"] = _jsonify(sorted(cs))
    window = []
    for n in ns:
        for k in range(n + 1):
            multiple = lemma62_check(n, k)["part_i"]["multiple"]
            window.append(_jsonify({"n": n, "k": k, "multiple": multiple}))
            passed = passed and multiple == -(n - k)
    rows["window_identity"] = window
    return rows, passed and len(cs) == 1


def _stokes(rng, *, n=1, truncation=2, count=25, model=None):
    """stokes_check on count random forms on model, by default the
    2n-torus truncated at truncation; a form whose check raises is
    recorded with its index."""
    if model is None:
        model = torus(n, truncation)
    failures = []
    for i in range(count):
        form = random_fieldform(rng, model, nterms=2,
                                degree=rng.randint(0, model.dim))
        try:
            stokes_check(form, model)
        except AssertionError as ex:
            failures.append({"index": i, "error": str(ex)})
    return {"model": str(model), "count": count,
            "failures": failures}, not failures


def _hermitian(rng, *, n=2):
    """For each m <= n: derive_adjoint_law(m), which raises where the raw
    adjoint law fails, and a hermitian_gram that is the diagonal table
    with entry 2^(p+q) at each frame monomial of bidegree (p, q)."""
    ns = range(1, n + 1)
    for m in ns:
        derive_adjoint_law(m)
    rows = [{"n": m, "adjoint": True,
             "gram_diagonal": hermitian_gram(m) == {
                 (mono, mono): 2 ** bin(mono).count("1")
                 for mono in range(1 << (2 * m))}}
            for m in ns]
    return {"rows": rows}, all(r["gram_diagonal"] for r in rows)


def _dolbeault(rng, *, n=2, count=15):
    """The Dolbeault split of d_h on count random forms per flat model of
    half-dimension 1 and n: the halves sum to d_h, square to zero, and
    their cross terms cancel."""
    bad = 0
    for m in sorted({1, n}):
        model = standard_symplectic(m)
        w = model.poisson
        for _ in range(count):
            a = random_fieldform(rng, model, nterms=2, max_h=0,
                                 degree=rng.randint(0, model.dim))
            dh, dbh = quantum_dolbeault_split(a, w)
            if dh + dbh != quantum_d(a, w):
                bad += 1
            dh_dh, dh_dbh = quantum_dolbeault_split(dh, w)
            dbh_dh, dbh_dbh = quantum_dolbeault_split(dbh, w)
            bad += sum(not x.is_zero()
                       for x in (dh_dh, dbh_dbh, dbh_dh + dh_dbh))
    return {"count": count, "failed": bad}, bad == 0


def _chern(rng, *, n=2, count=10):
    """The deformed Bianchi identity, gauge conjugation of the curvature
    and a closed trace form on count random rank-2 connections per flat
    model of half-dimension 1 and n; and the coordinate line bundle
    x_1 dx_2 on R^2, whose curvature is omega + h and d_h-closed."""
    bad = 0
    for m in sorted({1, n}):
        model = standard_symplectic(m)
        w = model.poisson
        for _ in range(count):
            theta = MatrixForm([[random_fieldform(rng, model, nterms=2,
                                                  max_h=0, degree=1,
                                                  max_deg=2)
                                 for _ in range(2)] for _ in range(2)])
            try:
                curv = bianchi_check(theta, w)["curvature"]
                g = GaugeTransform(model, [[1, random_polyfn(rng, model.dim,
                                                             max_deg=1)],
                                           [0, 1]])
                curvature_gauge_check(theta, g, w, curv)
                char_form(curv, "trace", w)
            except AssertionError:
                bad += 1
    model = standard_symplectic(1)
    theta = MatrixForm([[wedge_field(
        FieldForm.from_fn(PolyFn.coord(2, 1)),
        model.lift(QForm.basis(2, (2,))))]])
    line = quantum_curvature(theta, model.poisson).entries[0][0]
    expected = (model.omega_form()
                + FieldForm.from_fn(model.constant(1), 0, 1))
    if line != expected or not quantum_d(line, model.poisson).is_zero():
        bad += 1
    return {"count": count, "failed": bad,
            "line_bundle_curvature": str(line)}, bad == 0


def _moyal(rng, *, count=25):
    """Associativity of the Moyal product and the coordinate commutator
    x_i * x_j - x_j * x_i = 2 h w_ij on random polynomials."""
    bad = 0
    for _ in range(count):
        dim = rng.choice([2, 4])
        w = random_bivector(rng, dim)
        u, v, t = (random_polyfn(rng, dim, max_deg=2) for _ in range(3))
        if (moyal_product(moyal_product(u, v, w), t, w)
                != moyal_product(u, moyal_product(v, t, w), w)):
            bad += 1
        i, j = rng.randint(1, dim), rng.randint(1, dim)
        xi, xj = PolyFn.coord(dim, i), PolyFn.coord(dim, j)
        comm = (moyal_product(xi, xj, w) - moyal_product(xj, xi, w))
        entries = {(a, b): val for a, b, val in w.upper_entries()}
        wij = (entries.get((i, j), Fraction(0))
               - entries.get((j, i), Fraction(0)))
        expected = PolyFn.constant(dim, HPoly({1: 2 * wij}))
        if comm != expected:
            bad += 1
    return {"count": count, "failed": bad}, bad == 0


class Options:
    """Bounds for a named suite: dimension, half-dimension, torus
    truncation, repetition count, seed."""

    def __init__(self, dim=None, n=None, truncation=None, count=None,
                 seed=0):
        self.dim, self.n, self.truncation = dim, n, truncation
        self.count, self.seed = count, seed or 0


class Suite(NamedTuple):
    """A row of SUITES: the check, the largest half-dimension n it
    accepts (None: any n the dimension cap allows), and the largest
    dimension of the models it builds whatever its bounds (None: it
    builds none). Options fills the check's keyword bounds of the same
    name (dim, n, truncation, count)."""

    check: Callable
    n_cap: int | None = None
    fixed_dim: int | None = None


# a larger n than a row's cap is rejected, never clamped, so a report
# always names the model it checked
SUITES = {
    "associativity": Suite(_associativity),
    "multiparameter": Suite(_multiparameter, fixed_dim=4),
    "relation17": Suite(_relation17, 4),
    "recursion": Suite(_recursion, 5),
    # lie_poisson_so3 and heisenberg
    "complex": Suite(_complex, fixed_dim=3),
    "cohomology": Suite(_cohomology, 2),
    "lefschetz": Suite(_lefschetz, 3),
    # decomposition_report(3) and relation_report(3)
    "ledger": Suite(_ledger, fixed_dim=6),
    "stokes": Suite(_stokes, 2),
    "hermitian": Suite(_hermitian, 2),
    "dolbeault": Suite(_dolbeault, 2),
    "chern": Suite(_chern, 2),
    "moyal": Suite(_moyal, fixed_dim=4),
}


def run_suite(name, opts: Options):
    _choice("suite", name, sorted(SUITES))
    row = SUITES[name]
    if (row.n_cap is not None and opts.n is not None
            and not 1 <= opts.n <= row.n_cap):
        raise ScenarioError(
            f"suite {name} takes n from 1 to {row.n_cap}, got {opts.n}")
    if opts.count is not None and not 1 <= opts.count <= MAX_COUNT:
        raise ScenarioError(
            f"count must be from 1 to {MAX_COUNT}, got {opts.count}")
    # a scenario's suite task has the same bounds; a 0 is rejected, never
    # replaced by a suite's default
    given = vars(opts)
    for key, low in (("dim", 2), ("n", 1), ("truncation", 1)):
        _int_key(given, key, low=low)
    defaults = row.check.__kwdefaults__ or {}
    bounds = {key: val for key, val in given.items()
              if key in defaults and val is not None}
    resolved = {**defaults, **bounds}
    # every given dimension is capped, and the ones the check works in:
    # given, default or fixed
    for dim in (opts.dim, opts.n and 2 * opts.n,
                resolved.get("dim"), 2 * resolved.get("n", 0), row.fixed_dim):
        if dim and dim > max_dim():
            _check_dim(dim)  # names the cap
    try:
        return row.check(Random(opts.seed), **bounds)
    except AssertionError as ex:
        # a library check raises when its identity fails: report FAIL
        return {"error": str(ex)}, False


def check(name, options=None) -> dict:
    """Run one named suite and wrap it in a report tree."""
    opts = options or Options()
    payload, passed = run_suite(name, opts)
    result = {"task": "suite", "name": name, "pass": passed, **payload}
    info = {"suite": name, "seed": opts.seed}
    return _report("check", info, [result])


# ---------------------------------------------------------------------------
# scenarios

_SCENARIO_KEYS = {"model", "dim", "n", "omega", "truncation", "seed",
                  "tasks", "suite"}


def load_scenario(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as ex:
        raise ScenarioError(f"cannot read scenario: {ex}")
    except json.JSONDecodeError as ex:
        raise ScenarioError(
            f"scenario parse error at line {ex.lineno}, column {ex.colno}: "
            f"{ex.msg}")
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    extra = set(data) - _SCENARIO_KEYS
    if extra:
        raise ScenarioError(
            f"unknown scenario keys: {', '.join(sorted(extra))}")
    return data


def run_scenario(path) -> dict:
    """Execute a scenario file and return its report tree."""
    data = load_scenario(path)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"seed must be an integer, got {seed!r}")
    ctx = build_context(
        model=data.get("model", "flat"),
        dim=_int_key(data, "dim", low=2),
        n=_int_key(data, "n", low=1),
        omega=data.get("omega"),
        truncation=data.get("truncation"),
        seed=seed,
    )
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("tasks must be a list")
    tasks = list(tasks)
    suite_key = data.get("suite", [])
    if isinstance(suite_key, str):
        suite_key = [suite_key]
    if not isinstance(suite_key, list):
        raise ScenarioError("suite must be a name or list of names")
    tasks.extend(suite_key)
    results = [_RUNNERS[t["op"]](ctx, t)
               for t in (_validate_task(raw) for raw in tasks)]
    info = {"model": ctx.name, "dim": ctx.dim, "seed": seed}
    if ctx.truncation is not None:
        info["truncation"] = ctx.truncation
    return _report("scenario", info, results)


# ---------------------------------------------------------------------------
# emitters


def _align(rows):
    if not rows:
        return []
    widths = [max(len(str(r[i])) for r in rows) for i in
              range(max(len(r) for r in rows))]
    return ["  ".join(str(cell).ljust(widths[i])
                      for i, cell in enumerate(row)).rstrip()
            for row in rows]


def _text_task_rows(result):
    skip = {"task", "pass"}
    rows = []
    for key, val in result.items():
        if key in skip:
            continue
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        text = str(val)
        if len(text) > 96:
            text = text[:93] + "..."
        rows.append([key, text])
    return rows


def emit(report, fmt="text") -> str:
    """Render a report tree: aligned text or exact-string JSON."""
    if fmt == "machine":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ScenarioError(f"unknown format {fmt!r}; use text or machine")
    lines = []
    head = [f"{k}={report[k]}" for k in
            ("model", "dim", "truncation", "suite", "seed") if k in report]
    lines.append(f"qdr {report['kind']}  " + "  ".join(head))
    lines.append("-" * max(len(lines[0]), 24))
    for idx, result in enumerate(report["tasks"], start=1):
        status = {True: "pass", False: "FAIL", None: "value"}[result["pass"]]
        name = result.get("name", "")
        title = result["task"] + (f" {name}" if name else "")
        lines.append(f"{idx:>3}  {title:<24} {status}")
        for row in _align(_text_task_rows(result)):
            lines.append("       " + row)
    lines.append("")
    led = report["ledger"]
    lines.append("conventions")
    for row in _align([[key, json.dumps(led[key], sort_keys=True)]
                       for key in sorted(led)]):
        lines.append("       " + row)
    counts = report["counts"]
    verdict = "PASS" if report["passed"] else "FAIL"
    lines.append(
        f"{verdict}  {counts['checked']} checks, {counts['failed']} failed, "
        f"{counts['tasks']} tasks")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="qdr",
        description="Exact deformed exterior calculus: scenario runner "
                    "and check suites.")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--scenario", metavar="PATH",
                      help="run a JSON scenario file")
    what.add_argument("--check", metavar="NAME",
                      help="run one named suite "
                           f"({', '.join(sorted(SUITES))})")
    ap.add_argument("--dim", type=int,
                    help="working dimension, from 2 to QDR_MAX_DIM; odd "
                    "is allowed (general pairings exist in every "
                    "dimension), and a suite that takes no dim ignores it")
    ap.add_argument("--n", type=int, help="half-dimension")
    ap.add_argument("--truncation", type=int, help="torus mode cutoff")
    ap.add_argument("--seed", type=int, default=0, help="random seed")
    ap.add_argument("--count", type=int, help="repetitions for suites")
    ap.add_argument("--format", choices=("text", "machine"),
                    default="text", help="report rendering")
    return ap


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code else 0
    try:
        if args.scenario:
            report = run_scenario(args.scenario)
        else:
            opts = Options(dim=args.dim, n=args.n,
                           truncation=args.truncation, count=args.count,
                           seed=args.seed)
            report = check(args.check, opts)
        sys.stdout.write(emit(report, args.format))
    except ScenarioError as ex:
        sys.stderr.write(f"qdr: {ex}\n")
        return 2
    except ValueError as ex:
        sys.stderr.write(f"qdr: {ex}\n")
        return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
