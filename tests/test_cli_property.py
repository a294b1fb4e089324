"""Property test of the CLI contract: on any scenario built from the
expression grammar, main() succeeds (0), fails a check (1) or rejects the
input with one `qdr: ...` line (2); it never raises."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdr import cli
from qdr.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# indices run past both ends of every model's range on purpose
_INDEX = st.integers(-2, 6).map(str)

_LEAVES = st.one_of(
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 30), st.integers(0, 4)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"),
    st.just("h"),
    _INDEX.map(lambda i: f"e[{i}]"),
    _INDEX.map(lambda i: f"x[{i}]"),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
        lambda ks: "mode(" + ",".join(map(str, ks)) + ")"),
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "^", "^h"]),
                  inner).map(lambda t: " ".join(t)),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=6)

# a JSON value that is not a string, where a name is expected
_NON_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.lists(st.sampled_from(["d", "odd", "quantum", ""]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "name"]), st.integers(0, 2),
                    max_size=1),
)


def _names(valid):
    return st.one_of(st.sampled_from(sorted(valid)), _NON_STRINGS)


# suites run with count 1 and n 1
_SUITE_NAMES = set(cli.SUITES)

TASKS = st.one_of(
    EXPRESSIONS.map(lambda e: {"op": "product", "expr": e}),
    st.tuples(_names(cli._OPERATOR_NAMES), EXPRESSIONS).map(
        lambda t: {"op": "operator", "name": t[0], "expr": t[1]}),
    st.tuples(EXPRESSIONS, st.integers(-1, 3)).map(
        lambda t: {"op": "power", "expr": t[0], "k": t[1]}),
    st.tuples(st.integers(0, 2), _names(("even", "odd"))).map(
        lambda t: {"op": "spectrum", "n": t[0], "parity": t[1]}),
    EXPRESSIONS.map(lambda e: {"op": "integral", "expr": e}),
    _names(cli._THEORIES).map(lambda t: {"op": "cohomology", "theory": t}),
    st.one_of(EXPRESSIONS, st.lists(st.lists(EXPRESSIONS, max_size=2),
                                    max_size=2)).map(
        lambda t: {"op": "chern", "theta": t}),
    st.integers(0, 3).map(lambda n: {"op": "cpn_table", "n": n}),
    _names(_SUITE_NAMES).map(
        lambda name: {"op": "suite", "name": name, "count": 1, "n": 1}),
)

SCENARIOS = st.tuples(
    st.sampled_from([{"model": "flat", "dim": 4},
                     {"model": "torus", "n": 1, "truncation": 1},
                     {"model": "lie_poisson_so3"}, {"model": "heisenberg"},
                     {"model": "custom", "dim": 2,
                      "omega": [["0", "2"], ["-2", "0"]]}]),
    st.lists(TASKS, min_size=1, max_size=2),
).map(lambda mt: {**mt[0], "tasks": mt[1]})


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400,
                     database=None)
@hypothesis.given(scenario=SCENARIOS)
# a constant-only operator on a function-coefficient expression used to
# end in an AttributeError traceback
@hypothesis.example(scenario={"model": "flat", "dim": 4, "tasks": [
    {"op": "operator", "name": "L_star", "expr": "x[1]"}]})
def test_main_on_generated_scenarios(scenario):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--scenario", path, "--format", "machine"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("qdr: ")
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["counts"]["tasks"] == \
            len(scenario["tasks"])
