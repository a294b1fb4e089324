"""Every function and method in src/qdr is named by src/qdr itself.

A helper that only the tests call belongs in the tests.  Dunder methods
are called by the language and are not checked; ALLOWED names the rest
that stay without a caller in src, each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdr"

ALLOWED = {
    # the benchmark's tracer patches these until the kernel and rank
    # deletions that wait on a benchmark change (ROADMAP item 1)
    "expand_blade_pair": "benchmark tracer span, ROADMAP item 1",
    "bareiss_det": "benchmark tracer span, ROADMAP item 1",
    "matrix_rank": "benchmark tracer span, ROADMAP item 1",
    # the quantum Dolbeault and equivariant complexes (ROADMAP item 5)
    "lie_derivative": "ROADMAP item 5",
    "field_bracket": "ROADMAP item 5",
    "partial_d": "ROADMAP item 5",
    "partial_dbar": "ROADMAP item 5",
    "dolbeault_deltas": "ROADMAP item 5",
    # public paper operators and the frame API
    "covariant_d": "the paper's covariant derivative D = d_h + [theta, .]",
    "complexify": "frame API: real covectors to complex ones",
    "realify": "frame API: complex covectors back to real ones",
    "sharp": "musical isomorphism, the inverse of flat",
    "insert_last": "insertion into the last argument slot",
    "total_degree": "the grading: blade degree plus twice the power of h",
    "identity": "MatrixForm API: the unit of the matrix product",
    "rational_roots": "CharPolynomial API: the rational spectrum",
}


def _defs(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _names(node):
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


def test_every_src_function_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    orphans = {}
    for fname, tree in trees.items():
        for node in _defs(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # named nowhere but inside its own def
            if uses.get(name, 0) == _names(node).count(name):
                orphans.setdefault(name, []).append(f"{fname}:{node.lineno}")
    assert {k: v for k, v in orphans.items() if k not in ALLOWED} == {}
    # an allowed name that gained a caller leaves the list
    assert set(ALLOWED) - set(orphans) == set()
