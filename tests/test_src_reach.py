"""Every function and method in src/qdr runs on some CLI input.

The test runs a fixed set of CLI inputs in a fresh interpreter under a
call-only trace hook and fails on a def in src/qdr whose code never ran,
special methods (dunders) included. ALLOWED names the defs that stay
unrun, each with one reason from REASONS.

``python tests/test_src_reach.py`` lists every unrun def with its
``file:line``, line count and reason, largest first, then the total per
reason. It exits 1 where the test fails.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

REASONS = {
    "a": "perfbench/ reads the name, or one benchmark pass runs it",
    "b": "in qdr.__all__, or called only by such a name",
    "c": "an open ROADMAP item names it as code it will run",
    "d": "another test uses it as a reference or to build inputs",
    "e": "it runs only when a check fails",
    "f": "a protocol partner of a kept method",
}

# qualified name -> (reason key, what the reason refers to)
ALLOWED = {
    # perfbench/tracing.py TRACED: Tracer.install getattr's every name
    "exterior.expand_blade_pair": ("a", "TRACED span and workloads.py"),
    "linalg.bareiss_det": ("a", "TRACED span linalg.det"),
    "linalg.matrix_rank": ("a", "TRACED span linalg.matrix_rank"),
    # one pass of each workload at seed 4099 runs these
    "scalars.HPolyMulti.__str__": ("a", "wedge_algebra"),
    "exterior.MultiForm.__str__": ("a", "wedge_algebra"),
    "cohomology.DimensionReport.__str__": ("a", "torus_cohomology"),
    "scalars.GaussRat.__sub__": ("a", "cli_mix"),
    # the public API and what only it calls
    "exterior.quantum_exp": ("b", "qdr.__all__"),
    "chernweil.chern_character": ("b", "qdr.__all__"),
    "bigraded.hermitian_pairing": ("b", "qdr.__all__"),
    "bigraded.raw_pairing": ("b", "called by hermitian_pairing"),
    "bigraded.bidegree": ("b", "called by hermitian_pairing"),
    "exterior.QForm.__truediv__": ("b", "called by quantum_exp"),
    "fields.FieldForm.__mul__": (
        "b", "called by char_form's second-elementary branch and "
             "chern_character"),
    # ROADMAP item 5 (Dolbeault and equivariant cohomology) and item 1
    # (the star through one substitution)
    "fields.partial_d": ("c", "ROADMAP item 5"),
    "fields.partial_dbar": ("c", "ROADMAP item 5"),
    "fields.dolbeault_deltas": ("c", "ROADMAP item 5"),
    "fields.lie_derivative": ("c", "ROADMAP item 5"),
    "fields.field_bracket": ("c", "ROADMAP item 5"),
    "fields.insert_vector_field": ("c", "called by lie_derivative"),
    "fields.insert_coord": ("c", "called by insert_vector_field"),
    "exterior.substitute": ("c", "ROADMAP item 1's star"),
    # references and input builders of other tests
    "exterior.total_degree": (
        "d", "test_exterior::test_grading_h_counts_double"),
    "exterior.QForm.classical": (
        "d", "test_exterior::test_classical_limit_is_plain_wedge"),
    "blades.insert_last_mask": (
        "d", "test_exterior::reference_expand_blade_pair"),
    "scalars.HPolyMulti.constant_coeff": (
        "d", "test_exterior::reference_quantum_wedge_multi"),
    "bigraded.Frame.complexify": (
        "d", "test_sparse_core::test_arithmetic_results_are_normalised"),
    "bigraded.Frame.realify": (
        "d", "test_sparse_core::test_arithmetic_results_are_normalised"),
    "chernweil.covariant_d": (
        "d", "test_acceptance::test_criterion_12_chern_weil_identities"),
    "chernweil.MatrixForm.identity": (
        "d", "test_chernweil::test_gauge_conjugation_random"),
    "chernweil.MatrixForm.zero": ("d", "test_chernweil::test_bianchi"),
    "fixtures.Model.zero_form": (
        "d", "test_chernweil::test_rank2_nilpotent_curvature"),
    "functions.FourierFn.mode": (
        "d", "test_cohomology::test_stokes_frozen_and_random"),
    "scalars.TauNumber.__truediv__": (
        "d", "test_cohomology::_reference_block divides by i*tau"),
    # failure messages
    "bigraded.frame_blade_str": (
        "e", "derive_adjoint_law names the triple where the raw law fails"),
    # the other half of a protocol whose kept half runs
    "scalars.SparseTerms.__rsub__": ("f", "SparseTerms.__sub__"),
    "scalars.GaussRat.__rsub__": ("f", "GaussRat.__sub__"),
    "scalars.GaussRat.__rtruediv__": ("f", "GaussRat.__truediv__"),
    "scalars.GaussRat.__hash__": ("f", "GaussRat.__eq__"),
    "scalars.HPoly.__hash__": ("f", "SparseTerms.__eq__"),
    "scalars.HPolyMulti.__hash__": ("f", "SparseTerms.__eq__"),
    "scalars.TauNumber.__hash__": ("f", "SparseTerms.__eq__"),
    "exterior.QForm.__hash__": ("f", "PendingTerms.__eq__"),
    "scalars.HPolyMulti.__init__": (
        "f", "SparseTerms.constant builds a _COERCE operand through it"),
}


# ---------------------------------------------------------------------------
# the collector


def _defs(root):
    """(qualified name, path, first lines, line count) of each def under
    root; a decorated def may start on its first decorator's line, as its
    code object's co_firstlineno does."""
    out = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    out.append((name, path, {child.lineno, first},
                                child.end_lineno - first + 1))
                walk(child, name, path)
            else:
                walk(child, prefix, path)

    for path in sorted(root.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return out


def _child(src, package, driver):
    """In a fresh interpreter: trace calls, import package from src, run
    driver(package), and print the code that ran under src/package."""
    root = str(Path(src, package)) + os.sep
    ran = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(root):
            ran.add((code.co_filename, code.co_firstlineno))
        # returns None: no line events in the called frame

    sys.settrace(hook)
    sys.path.insert(0, src)
    module = importlib.import_module(package)
    assert module.__file__.startswith(root), module.__file__
    exits = globals()[driver](module)
    sys.settrace(None)
    json.dump({"ran": sorted(ran), "exits": exits}, sys.stdout)


def unrun(src, package, driver):
    """The defs of src/package whose code did not run under driver, as
    (qualified name, path, first line, line count), and the driver's
    list of (input, expected exit, actual exit)."""
    code = (f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
            f"import test_src_reach as t; "
            f"t._child({str(src)!r}, {package!r}, {driver!r})")
    env = {k: v for k, v in os.environ.items() if k != "QDR_MAX_DIM"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    ran = {(path, line) for path, line in out["ran"]}
    missed = [(name, path, min(lines), count)
              for name, path, lines, count in _defs(Path(src, package))
              if not any((str(path), line) in ran for line in lines)]
    return missed, out["exits"]


# ---------------------------------------------------------------------------
# the CLI inputs


def _scenarios(cli):
    """(scenario, expected exit) pairs: every task kind on the five models,
    each operator on each space it acts on, and one input per rejection."""
    const_ops = [{"op": "operator", "name": name, "expr": "e[1] + h*e[2]"}
                 for name in cli._CONSTANT_OPS]
    field_ops = [{"op": "operator", "name": name, "expr": "x[1]*dx[2]"}
                 for name in cli._FIELD_OPS]
    flat = {"model": "flat", "n": 1, "tasks": [
        {"op": "product", "expr": "(e[1] ^h e[2]) - 1/2*h + e[1]*e[2]"},
        {"op": "product", "expr": "x[1]*dx[1] ^h x[2]*dx[2]"},
        {"op": "power", "expr": "e[1] + e[2]", "k": 2},
        {"op": "power", "expr": "x[1]*dx[2]", "k": 2},
        *const_ops, *field_ops,
        {"op": "spectrum", "n": 1, "parity": "even"},
        {"op": "spectrum", "n": 1, "parity": "odd"},
        {"op": "chern", "theta": "x[1]*dx[2]"},
        {"op": "chern", "theta": [["x[1]*dx[2]", "dx[1]"],
                                  ["0", "x[2]*dx[1]"]]},
        {"op": "cpn_table", "n": 1},
        {"op": "cpn_table", "n": 5},
        {"op": "suite", "name": "moyal", "count": 1},
    ]}
    torus = {"model": "torus", "n": 1, "truncation": 1, "seed": 3,
             "tasks": [
                 {"op": "product", "expr": "h*mode(1, 0) ^h mode(0, -1)*dx[1]"},
                 *[{"op": "operator", "name": name, "expr": "mode(1, 1)*dx[2]"}
                   for name in cli._FIELD_OPS],
                 *[{"op": "cohomology", "theory": theory}
                   for theory in cli._THEORIES],
                 {"op": "integral", "expr": "mode(0, 0)*dx[1]*dx[2]"},
                 {"op": "stokes", "count": 1},
                 {"op": "chern", "theta": "mode(1, 0)*dx[1]"},
             ],
             "suite": "relation17"}
    so3 = {"model": "lie_poisson_so3", "tasks": [
        {"op": "product", "expr": "x[1] ^h x[2]"},
        {"op": "operator", "name": "d_h", "expr": "x[3]*dx[1]"},
        {"op": "chern", "theta": "x[1]*dx[2]"},
    ]}
    heis = {"model": "heisenberg", "tasks": [
        {"op": "product", "expr": "x[1] ^h x[2]"}, "lefschetz"]}
    custom = {"model": "custom", "dim": 2, "omega": [["0", "2"], ["-2", "0"]],
              "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"},
                        {"op": "power", "expr": "e[1] + h", "k": 3},
                        *const_ops]}
    rejected = [
        {"model": "custom", "dim": 2, "omega": [["0", "0"], ["0", "0"]]},
        {"model": "custom", "dim": 2, "omega": [["0", "1"], ["-1", "0"]],
         "tasks": [{"op": "product", "expr": "x[1]"}]},
        {"model": "custom", "dim": 2, "omega": [["0", "1"], ["-1", "0"]],
         "tasks": [{"op": "product", "expr": "mode(1, 0)"}]},
        {"model": "torus", "tasks": [{"op": "product", "expr": "x[1]"}]},
        {"model": "flat", "tasks": [{"op": "product", "expr": "(e[1]"}]},
        {"model": "flat", "tasks": [{"op": "power", "expr": "e[1]", "k": 99}]},
        {"model": "flat", "tasks": [{"op": "cohomology"}]},
        # a ValueError from the library, not a ScenarioError
        {"model": "flat", "tasks": [{"op": "chern", "theta": [
            ["x[1]*dx[2]"], ["dx[1]", "dx[2]"]]}]},
        {"model": "flat", "tasks": [{"op": "nope"}]},
        {"model": "flat", "bogus": 1},
        {"model": "sphere"},
    ]
    return ([(s, 0) for s in (flat, torus, so3, heis, custom)]
            + [(s, 2) for s in rejected])


def _cli(qdr):
    """Run every input through qdr.cli.main; return each one's argv,
    expected exit and actual exit."""
    cli = qdr.cli
    runs = []
    for name, row in cli.SUITES.items():
        smallest = {"dim": 2, "n": 1, "count": 1, "truncation": 1}
        bounds = [f"--{key}={val}" for key, val in smallest.items()
                  if key in (row.check.__kwdefaults__ or {})]
        for fmt in ("text", "machine"):
            runs.append((["--check", name, *bounds, "--format", fmt], 0))
    runs += [([], 2), (["--check", "nope"], 2), (["--check", "moyal",
                                                  "--count", "0"], 2)]
    with tempfile.TemporaryDirectory() as tmp:
        for i, (scenario, expected) in enumerate(_scenarios(cli)):
            path = Path(tmp, f"s{i}.json")
            path.write_text(json.dumps(scenario), encoding="utf-8")
            for fmt in ("text", "machine"):
                runs.append((["--scenario", str(path), "--format", fmt],
                             expected))
        for name, text in (("bad.json", "{"), ("list.json", "[1]")):
            Path(tmp, name).write_text(text, encoding="utf-8")
            runs.append((["--scenario", str(Path(tmp, name))], 2))
        runs.append((["--scenario", str(Path(tmp, "missing.json"))], 2))
        out = []
        for argv, expected in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                got = cli.main(argv)
            out.append([" ".join(argv), expected, got])
    return out


# ---------------------------------------------------------------------------
# tests


def _faults(missed, exits):
    """What the reach test fails on, by kind: inputs whose exit is not
    the expected one, unrun defs without a reason, and allowed names that
    now run or are gone (they leave ALLOWED)."""
    names = {name for name, *_ in missed}
    return {"exits": [e for e in exits if e[1] != e[2]],
            "unexplained": sorted(names - set(ALLOWED)),
            "stale": sorted(set(ALLOWED) - names)}


def test_every_src_function_has_a_src_caller():
    missed, exits = unrun(SRC, "qdr", "_cli")
    assert _faults(missed, exits) == {"exits": [], "unexplained": [],
                                      "stale": []}
    assert {key for key, _ in ALLOWED.values()} <= set(REASONS)


_CONTROL = '''\
def called():
    return Box.make()


def uncalled():
    return 0


class Box:
    def __init__(self):
        self.size = 0

    @classmethod
    def make(cls):
        return cls()

    def __str__(self):
        return "box"
'''


def _control(module):
    module.called()
    return []


def test_collector_reports_only_the_uncalled_def(tmp_path):
    pkg = tmp_path / "reach_control"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import called\n")
    (pkg / "mod.py").write_text(_CONTROL)
    missed, _ = unrun(tmp_path, "reach_control", "_control")
    # Box.__init__ runs through make; Box.__str__ never does
    assert [(name, line) for name, _, line, _ in missed] == [
        ("mod.uncalled", 5), ("mod.Box.__str__", 17)]


if __name__ == "__main__":
    missed, exits = unrun(SRC, "qdr", "_cli")
    missed.sort(key=lambda m: (-m[3], m[0]))
    totals = {}
    for name, path, line, count in missed:
        key = ALLOWED.get(name, ("-",))[0]
        defs, lines = totals.get(key, (0, 0))
        totals[key] = (defs + 1, lines + count)
        print(f"{count:5d}  {key}  {path.relative_to(SRC.parent)}:{line}"
              f"  {name}")
    print(f"{sum(m[3] for m in missed):5d}  lines in {len(missed)} unrun defs")
    for key in sorted(totals):
        defs, lines = totals[key]
        print(f"{lines:5d}  lines in {defs:2d} defs  ({key}) "
              f"{REASONS.get(key, 'no reason')}")
    faults = {kind: found for kind, found in _faults(missed, exits).items()
              if found}
    for kind, found in faults.items():
        print(f"{kind}: {found}", file=sys.stderr)
    sys.exit(1 if faults else 0)
