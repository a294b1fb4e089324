"""Scenario runner: expression grammar, task execution, report
emitters, exit codes, and the named check suites."""

import hashlib
import json
import math
from random import Random

import pytest

import qdr
from qdr import bigraded, chernweil, cli, cohomology, cpn, exterior, symplectic
from qdr.cli import (
    Options,
    ScenarioError,
    build_context,
    check,
    emit,
    main,
    run_scenario,
    tokenize,
)
from qdr.linalg import det_field
from qdr.symplectic import lefschetz_matrix


def scenario_file(tmp_path, data, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_package_exports_resolve():
    # deleting a function must take its name out of __all__ too, or
    # "from qdr import *" fails
    assert [name for name in qdr.__all__ if not hasattr(qdr, name)] == []
    assert len(set(qdr.__all__)) == len(qdr.__all__)


# ---------------------------------------------------------------- grammar


def test_tokenize_quantum_wedge():
    kinds = [k for k, _, _ in tokenize("e[1] ^h e[2] ^ h")]
    assert kinds == ["name", "punct", "num", "punct", "qwedge",
                     "name", "punct", "num", "punct", "punct", "name"]


def test_parse_errors_name_the_column_of_the_token():
    # the column is where the token starts, not the whitespace before it
    ctx = build_context("flat", dim=2)
    for text, message in (
            ("e[1] +    )", "unexpected ')' at column 11 in 'e[1] +    )'"),
            ("e[1]    e[2]", "trailing 'e' at column 9 in 'e[1]    e[2]'"),
            (")", "unexpected ')' at column 1 in ')'"),
            ("e[1] +   $", "cannot read expression at column 10: '$'"),
            ("$ + e[1]", "cannot read expression at column 1: '$ + e[1]'")):
        with pytest.raises(ScenarioError) as raised:
            ctx.eval(text)
        assert str(raised.value) == message
    assert [col for _, _, col in tokenize("  e[1]  ^h 3 / 2")] == \
        [2, 3, 4, 5, 8, 11]


def test_product_frozen_value(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"}]})
    rep = run_scenario(path)
    assert rep["tasks"][0]["value"] == "e1^e2 + (-1)*h"
    assert rep["tasks"][0]["pass"] is None
    assert rep["passed"]


def test_grammar_features(tmp_path):
    ctx = build_context("flat", dim=4)
    # rational scalars, unary minus, parentheses, wedge precedence
    assert str(ctx.eval("3/2 * e[1] - e[1]")) == "(1/2)*e1"
    assert str(ctx.eval("-(e[1] + e[2]) + e[2]")) == "(-1)*e1"
    assert str(ctx.eval("e[1] ^ e[2] + h")) == "e1^e2 + h"
    # ^ h wedges with the parameter scalar; ^h is the deformed product
    assert str(ctx.eval("e[1] ^ h")) == "h*e1"
    assert ctx.eval("e[1] ^h e[1]").is_zero()
    assert str(ctx.eval("(e[1] + e[3]) ^h (e[2] + e[4])")) == \
        "e1^e2 + e1^e4 + (-1)*e2^e3 + e3^e4 + (-2)*h"


def test_field_atoms():
    ctx = build_context("flat", dim=2)
    assert str(ctx.eval("x[1] * dx[2]")) == "(x1)*dx2"
    assert str(ctx.eval("x[1] * x[1] * dx[1]")) == "(x1^2)*dx1"
    tor = build_context("torus", n=1)
    assert str(tor.eval("mode(1,0)")) == "(mode(1,0))"
    assert str(tor.eval("mode(0,-2) * dx[1]")) == "(mode(0,-2))*dx1"


def test_expression_errors():
    ctx = build_context("flat", dim=2)
    for text in ("e[3]", "e[0]", "q[1]", "e[1] +", "e[1] e[2]",
                 "mode(1,0)", "(e[1]", "e[1] ^h ^h e[2]", "1/0"):
        with pytest.raises(ScenarioError):
            ctx.eval(text)
    tor = build_context("torus", n=1)
    with pytest.raises(ScenarioError):
        tor.eval("x[1]")
    with pytest.raises(ScenarioError):
        tor.eval("mode(1)")
    cus = build_context("custom", dim=2, omega=[["0", "1"], ["-1", "0"]])
    with pytest.raises(ScenarioError):
        cus.eval("x[1]")


# ---------------------------------------------------------------- scenarios


def test_empty_tasks(tmp_path):
    rep = run_scenario(scenario_file(tmp_path, {"model": "flat", "dim": 2}))
    assert rep["passed"] and rep["counts"] == {"tasks": 0, "checked": 0,
                                               "failed": 0}


def test_scenario_validation(tmp_path):
    bad = [
        {"model": "flat", "bogus": 1},
        {"model": "nowhere"},
        {"model": "flat", "dim": 3},
        {"model": "flat", "tasks": [{"op": "nothing"}]},
        {"model": "flat", "tasks": [{"op": "product"}]},
        {"model": "flat", "tasks": [{"op": "product", "expr": "e[1]",
                                     "spare": 0}]},
        {"model": "flat", "seed": "seven"},
        {"model": "torus", "truncation": 0},
        {"model": "custom", "dim": 2},
        {"model": "custom", "dim": 2, "omega": [["0", "0"], ["0", "0"]]},
        {"model": "custom", "dim": 2, "omega": [["0", "1"], ["1", "0"]]},
        {"model": "flat", "tasks": "stokes"},
    ]
    for data in bad:
        with pytest.raises(ScenarioError):
            run_scenario(scenario_file(tmp_path, data))


def test_parse_error_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "flat",\n  "dim": }')
    with pytest.raises(ScenarioError, match="line 2, column 10"):
        run_scenario(str(path))


def test_custom_model_scaled_pairing(tmp_path):
    # omega = 2*standard, so the inverse pairing halves the h term
    path = scenario_file(tmp_path, {
        "model": "custom", "dim": 2,
        "omega": [["0", "2"], ["-2", "0"]],
        "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"}]})
    assert run_scenario(path)["tasks"][0]["value"] == "e1^e2 + (-1/2)*h"


def test_dimension_cap(tmp_path, monkeypatch):
    path = scenario_file(tmp_path, {"model": "flat", "dim": 10})
    with pytest.raises(ScenarioError, match="QDR_MAX_DIM"):
        run_scenario(path)
    monkeypatch.setenv("QDR_MAX_DIM", "12")
    assert run_scenario(path)["passed"]
    monkeypatch.setenv("QDR_MAX_DIM", "zero")
    with pytest.raises(ScenarioError):
        run_scenario(path)


def test_power_and_operator_tasks(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [
            {"op": "power", "expr": "e[1] + e[2]", "k": 2},
            {"op": "power", "expr": "e[1]", "k": 0},
            {"op": "operator", "name": "d", "expr": "x[1] * dx[2]"},
            {"op": "operator", "name": "d_h", "expr": "x[1] * dx[2]"},
            {"op": "operator", "name": "L", "expr": "1"},
            {"op": "operator", "name": "iota", "expr": "e[1] ^ e[2]"},
            {"op": "operator", "name": "star", "expr": "e[1]"},
        ]})
    vals = [t["value"] for t in run_scenario(path)["tasks"]]
    assert vals[0] == "0"
    assert vals[1] == "1"
    assert vals[2] == "dx1^dx2"
    # d_h(x1 dx2) = dx1^dx2 - h*delta(x1 dx2) with delta part -1
    assert vals[3] == "dx1^dx2 + h"
    assert vals[4] == "e1^e2"
    assert vals[5] == "(-1)"
    # star(e1) = -e1 under the w12 = -1 pairing convention
    assert vals[6] == "(-1)*e1"


def test_operator_validation(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 1,
        "tasks": [{"op": "operator", "name": "star", "expr": "dx[1]"}]})
    with pytest.raises(ScenarioError, match="not available"):
        run_scenario(path)
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "operator", "name": "curl", "expr": "e[1]"}]},
        name="op2.json")
    with pytest.raises(ScenarioError, match="unknown operator"):
        run_scenario(path)


def test_spectrum_task(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "spectrum", "n": 1, "parity": "odd"},
                  {"op": "spectrum", "n": 1, "parity": "even"}]})
    rep = run_scenario(path)
    odd, even = rep["tasks"]
    assert odd["pass"] and odd["char_poly"] == "t^2 - 2*t + 1"
    assert even["pass"] and even["det"] != "0"
    bad = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "spectrum", "n": 1, "parity": "sideways"}]},
        name="par.json")
    with pytest.raises(ScenarioError):
        run_scenario(bad)


def test_spectrum_task_at_the_dimension_cap(tmp_path, capsys):
    # n = 4 windows are 128 x 128; each polynomial is (t - 4)^128
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 8,
        "tasks": [{"op": "spectrum", "n": 4, "parity": "odd"}]})
    assert main(["--scenario", path, "--format", "machine"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["coeffs"] == [str(math.comb(128, k) * (-4) ** (128 - k))
                              for k in range(129)]
    assert task["det"] == str(4 ** 128) and task["pass"]
    # one sample point by elimination: det(5I - M) = (5 - 4)^128
    m = lefschetz_matrix(4, "odd").mat
    assert det_field([[(i == j) * 5 - v for j, v in enumerate(row)]
                      for i, row in enumerate(m)]) == 1


def test_torus_tasks(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 1, "truncation": 2, "seed": 7,
        "tasks": [
            {"op": "cohomology"},
            {"op": "cohomology", "theory": "poisson"},
            {"op": "integral", "expr": "dx[1] ^ dx[2]"},
            {"op": "integral", "expr": "mode(1,0) * dx[1] ^ dx[2]"},
            {"op": "stokes", "count": 5},
        ],
        "suite": "stokes"})
    rep = run_scenario(path)
    coh, poi, vol, osc, stk, suite = rep["tasks"]
    assert coh["pass"] and poi["pass"] and stk["pass"] and suite["pass"]
    assert vol["value"] == "1"
    assert osc["value"] == "0"
    assert rep["passed"]


def test_complex_size_cap(tmp_path, capsys):
    # (2N + 1)^dim modes: 27^2 = 729 is the cap, 29^2 = 841 is over it
    assert cli.MAX_MODES == 729
    for n, trunc, code in ((1, 13, 0), (1, 14, 2), (1, 50, 2)):
        path = scenario_file(tmp_path, {
            "model": "torus", "n": n, "truncation": trunc,
            "tasks": [{"op": "cohomology"}]}, name=f"t{trunc}.json")
        assert main(["--scenario", path]) == code
        assert main(["--check", "cohomology", "--n", str(n),
                     "--truncation", str(trunc)]) == code
        if code:
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 2
            assert all(line.startswith("qdr: ") and "MAX_MODES" in line
                       for line in lines)
        capsys.readouterr()
    # the suite keeps n <= 2: 7^4 modes is over the cap, 5^4 under it
    with pytest.raises(ScenarioError, match="2401 Fourier modes"):
        check("cohomology", Options(n=2, truncation=3))
    # torus(3, 1) sits exactly on the cap; checked without its build
    cli._check_modes(6, 1)
    with pytest.raises(ScenarioError, match="MAX_MODES"):
        cli._check_modes(6, 2)


def test_torus6_quantum_cohomology_task(tmp_path, capsys):
    # the largest torus under MAX_MODES: 3^6 = 729 modes
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 3, "truncation": 1,
        "tasks": [{"op": "cohomology", "theory": "quantum"}]})
    assert main(["--scenario", path, "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)["tasks"][0]["rows"]["rows"]
    assert [r["dim_h"] for r in rows] == [32] * 8


def test_torus_tasks_rejected_elsewhere(tmp_path):
    for op in ({"op": "cohomology"}, {"op": "integral", "expr": "e[1]"},
               {"op": "stokes"}):
        path = scenario_file(tmp_path, {
            "model": "flat", "dim": 2, "tasks": [op]},
            name=f"t_{op['op']}.json")
        with pytest.raises(ScenarioError, match="torus"):
            run_scenario(path)


def test_chern_task(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "chern", "theta": "x[1] * dx[2]"},
                  {"op": "chern", "theta": [["0", "x[1] * dx[2]"],
                                            ["0", "0"]]}]})
    rep = run_scenario(path)
    line, rank2 = rep["tasks"]
    assert line["pass"] and line["rank"] == 1
    assert line["curvature"][0][0] == "dx1^dx2 + h"
    assert rank2["pass"] and rank2["rank"] == 2
    assert rep["passed"]


def test_chern_checks_compute_each_curvature_once(tmp_path, monkeypatch):
    # the task, the suite and the gauge check take the curvature
    # bianchi_check returns; only that of theta' is computed apart
    calls = []
    real = chernweil.quantum_curvature

    def counting(theta, w):
        calls.append(theta)
        return real(theta, w)
    for module in (cli, chernweil):
        monkeypatch.setattr(module, "quantum_curvature", counting)
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "chern", "theta": "x[1] * dx[2]"}]})
    assert run_scenario(path)["passed"]
    assert len(calls) == 1
    calls.clear()
    payload, passed = cli.SUITES["chern"].check(Random(5), n=1, count=2)
    assert passed and payload["failed"] == 0
    # two connections, each curvature and its gauge transform, and the
    # suite's line bundle
    assert len(calls) == 2 * 2 + 1


def test_cpn_table_task(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "cpn_table", "n": 2},
                  {"op": "cpn_table", "n": 5}]})
    rep = run_scenario(path)
    assert rep["tasks"][0]["pass"] and rep["tasks"][0]["nilpotency_order"] == 3
    assert rep["tasks"][1]["pass"] is None  # beyond the verified range
    assert rep["tasks"][1]["table"]["n"] == 5


# ---------------------------------------------------------------- suites


# sha256 of each suite's machine report at seed 11, count 4: a suite
# must draw the same inputs in the same order and report the same bytes
SUITE_REPORT_SHA256 = {
    "associativity":
        "ea9be5675b69cbdfb721ad10b9f5ff32481d18b6a3d668f38489e5ba9290bb9d",
    "multiparameter":
        "4922eac1c32c1d17a3cfbcb6062705ab23a0d07413208946f155b98ae41fc98c",
    "relation17":
        "7dda764777f7aef43931648da1d456e1faffb3550d5f35d3028dce8ee5aad346",
    "recursion":
        "ab92b4b057928cc95681b8ce4748b10a8ded99e52b37d5c58df973fe9cce4844",
    "complex":
        "104701937afee700e3adaad2458bf8730f27e5e74e0a463d777d4476b4dc41fd",
    "cohomology":
        "10a747a3424fec847ed7009e87f3ca3f307bb467abf2959a6aabc6ecbf32be56",
    "lefschetz":
        "09a9634616e4343195204eee2f3a38ed1fb7c9f7e01e3fdc120f5a8737e1e623",
    "ledger":
        "a4b393d1a89a055b91d2a1555999fabdbbb1dee5f735b417c9c9a3c7753fbc93",
    "stokes":
        "2020be769faf1c3d5f13907b76a5a72f3ba20840dd8fbef031591eaae65b3459",
    "hermitian":
        "a81a00ad23c7cc571352d4ddca4cb28408e36bff8aac3c8874b68d04ff4d93f0",
    "dolbeault":
        "7dfd17326dcbc3f94b25a545a75bafa008410bd3dc9d084e53820ae4ed2ccae6",
    "chern":
        "68432baf9a559e5bc04542f23e7369adb740b733d2560c4921f340c419c19c9f",
    "moyal":
        "3d3f7d408747a7adda8b3c59c07b078d70a5ef64c66fca0e743d17509a729220",
}

# sha256 of the same reports rendered as text, whose rows follow the
# payload's key order
SUITE_TEXT_SHA256 = {
    "associativity":
        "a02df5686465c87d74fa27af3fb6b3ee0d55ec9e9c546a18b6b75d655a075ebc",
    "multiparameter":
        "ad79eae52d9a8cb1de8c9da2012c9a0e2a993f70df034413504adbf103a214ef",
    "relation17":
        "df0b8e1699376b1b468a1eb7b27e46fabf61bfe04f42856d40cc75c376bef9d0",
    "recursion":
        "46c3e533b5ad2b37650acdd55add95232e4f038b02f35f77b2298a19b0c90c34",
    "complex":
        "40f8c9ce4f759a96b8336ccb74b24104cbe7aa994fba3e40313ee220c05e918e",
    "cohomology":
        "71b4af36d19a0a797d41eaf97007cf298d29567fa3c80be550895e846152a789",
    "lefschetz":
        "aea29fee48e1035c6d5d68e0a85ca7c8f78265e32d6a4040eeddc5a80b20313f",
    "ledger":
        "a5a0c427eb91328ad25b904632d0b3f30a1dc20cbb0e4558b2510d82a9978478",
    "stokes":
        "a702e37d98fdb40f13b91a9b07fb949dc1c9c85bd86cc02eff0cd99b80033df6",
    "hermitian":
        "76a8e172e67c525193c44cc64de990499bf3b7db629ff16b0b7fc802159c96b7",
    "dolbeault":
        "f551f85223f3601104a017b23a92586d7c04a7160d401b54b2a1cd3c91b0c124",
    "chern":
        "cc73b1d1d9700e5178e0de189ba457296da3383f5c791fb6a4e1c38bf0619c51",
    "moyal":
        "7b99afa52e3e25e7225e2cb358ff86bf3c4af1c47ec4b8e4045f4437408e69a6",
}


@pytest.mark.parametrize("name", sorted(cli.SUITES))
def test_each_suite_passes(name):
    rep = check(name, Options(seed=11, count=4))
    assert rep["passed"]
    assert rep["tasks"][0]["name"] == name
    digest = hashlib.sha256(emit(rep, "machine").encode()).hexdigest()
    assert digest == SUITE_REPORT_SHA256[name]
    digest = hashlib.sha256(emit(rep, "text").encode()).hexdigest()
    assert digest == SUITE_TEXT_SHA256[name]


@pytest.mark.parametrize("argv, counted, want", [
    # relation_report(1..3) and decomposition_report(1..3): one minor per
    # blade pair would take 3319; only minors on the row support
    (["--check", "ledger", "--count", "1"], "star minors", 279),
    # one product per pair of the 4 frame monomials at n = 1, not three
    # per triple side (48)
    (["--check", "hermitian", "--n", "1"], "adjoint products", 16),
    # one field, split three times
    (["--check", "dolbeault", "--n", "1", "--count", "1"],
     "invariance checks", 1),
])
def test_exact_checks_skip_the_work_their_structure_rules_out(
        monkeypatch, capsys, argv, counted, want):
    # the process-wide ledger and pairing table are built first, so the
    # counts are the suite's own
    cli.convention_ledger()
    bigraded._raw_gram(1)
    counts = dict.fromkeys(("star minors", "adjoint products",
                            "invariance checks"), 0)

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)
    counting(symplectic, "lambda_pairing", "star minors")
    counting(bigraded, "quantum_wedge", "adjoint products")
    counting(bigraded.Frame, "check_invariance", "invariance checks")
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {key: want if key == counted else 0 for key in counts}


def test_unknown_suite_lists_names():
    with pytest.raises(ScenarioError, match="associativity"):
        check("nonexistent")


def test_suite_task_inherits_context(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 1, "truncation": 2, "seed": 7,
        "tasks": ["relation17"]})
    rep = run_scenario(path)
    # context half-dimension 1 bounds the sweep
    assert [r["n"] for r in rep["tasks"][0]["rows"]] == [1]


# ---------------------------------------------------------------- emitters


def test_machine_roundtrip_and_determinism(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 1, "seed": 3, "suite": "stokes"})
    rep1 = run_scenario(path)
    rep2 = run_scenario(path)
    out1, out2 = emit(rep1, "machine"), emit(rep2, "machine")
    assert out1 == out2
    assert json.loads(out1) == rep1


def test_text_emit_shape(tmp_path):
    path = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"},
                  {"op": "spectrum", "n": 1, "parity": "odd"}]})
    text = emit(run_scenario(path), "text")
    lines = text.strip().splitlines()
    assert lines[0].startswith("qdr scenario")
    assert lines[-1] == "PASS  1 checks, 0 failed, 2 tasks"
    assert any("e1^e2 + (-1)*h" in line for line in lines)
    assert "conventions" in text
    with pytest.raises(ScenarioError):
        emit(run_scenario(path), "yaml")


def test_ledger_in_every_report():
    rep = check("moyal", Options(count=2))
    led = rep["ledger"]
    assert led["contraction_scaling"] == ["1", "1", "1"]
    assert led["dual_lefschetz"] == ["1", "-4"]
    assert led["koszul_component"]["c"] == "1"
    assert led["window_identity"]["multiple"] == "-1"


# ---------------------------------------------------------------- exit codes


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    good = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"}]})
    assert main(["--scenario", good]) == 0
    assert main(["--check", "relation17", "--n", "1"]) == 0
    capsys.readouterr()

    bad = scenario_file(tmp_path, {"model": "flat", "oops": 1},
                        name="bad.json")
    assert main(["--scenario", bad]) == 2
    assert "oops" in capsys.readouterr().err
    assert main(["--check", "nonexistent"]) == 2
    assert main(["--scenario", str(tmp_path / "missing.json")]) == 2
    assert main([]) == 2
    capsys.readouterr()

    monkeypatch.setitem(cli.SUITES, "alwaysfail",
                        cli.Suite(lambda rng: ({"note": "forced"}, False)))
    assert main(["--check", "alwaysfail"]) == 1
    out = capsys.readouterr().out
    assert out.strip().endswith("FAIL  1 checks, 1 failed, 1 tasks")


def _raise_assertion(*args, **kwargs):
    raise AssertionError("forced failure")


@pytest.mark.parametrize("suite, target", [("stokes", "stokes_check"),
                                           ("relation17",
                                            "verify_relation_17")])
def test_raising_library_check_reports_fail(suite, target, monkeypatch,
                                            capsys):
    # library checks raise AssertionError on a failed identity
    monkeypatch.setattr(cli, target, _raise_assertion)
    assert main(["--check", suite, "--n", "1", "--count", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == \
        "FAIL  1 checks, 1 failed, 1 tasks"
    task = check(suite, Options(n=1, count=2))["tasks"][0]
    assert task["pass"] is False
    if suite == "stokes":
        # each raising form is a failure with its index
        assert task["failures"] == [
            {"index": i, "error": "forced failure"} for i in range(2)]
    else:
        assert task["error"] == "forced failure"


def test_raising_relation17_fails_the_cpn_table_task(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(cli, "verify_relation_17", _raise_assertion)
    path = scenario_file(tmp_path, {
        "model": "flat", "n": 1, "tasks": [{"op": "cpn_table", "n": 2}]})
    assert main(["--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == \
        "FAIL  1 checks, 1 failed, 1 tasks"
    task = run_scenario(path)["tasks"][0]
    assert task["pass"] is False and task["error"] == "forced failure"
    assert "nilpotency_order" not in task


def test_failed_rank_identity_reports_fail(tmp_path, monkeypatch, capsys):
    real = cohomology._interior

    def flipped(src, tgt, i):
        cols = real(src, tgt, i)
        if i == 0:
            cols = [{r: -x for r, x in col.items()} for col in cols]
        return cols
    monkeypatch.setattr(cohomology, "_interior", flipped)
    path = scenario_file(tmp_path, {
        "model": "torus", "n": 1, "truncation": 1,
        "tasks": [{"op": "cohomology", "theory": "de_rham"}]})
    for argv in (["--scenario", path],
                 ["--check", "cohomology", "--n", "1", "--truncation", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == \
            "FAIL  1 checks, 1 failed, 1 tasks"
    scenario = run_scenario(path)["tasks"][0]
    assert "rows" not in scenario
    # both reports meet the de Rham ranks first
    for task in (scenario,
                 check("cohomology", Options(n=1, truncation=1))["tasks"][0]):
        assert task["pass"] is False
        assert task["error"].startswith("d degree 0: ")


@pytest.mark.parametrize("target", ["lemma62_check", "delta_component_check"])
def test_raising_ledger_check_fails_the_report(target, monkeypatch, capsys):
    cli.convention_ledger.cache_clear()
    monkeypatch.setattr(cli, target, _raise_assertion)
    assert main(["--check", "moyal", "--count", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == \
        "FAIL  1 checks, 0 failed, 1 tasks"
    rep = check("moyal", Options(count=2))
    assert rep["tasks"][0]["pass"] is True
    assert rep["ledger"] == {"error": "forced failure"}
    assert rep["passed"] is False
    # the raise was not cached: with the check restored the ledger passes
    monkeypatch.undo()
    assert check("moyal", Options(count=2))["passed"]


def test_ledger_is_computed_once(monkeypatch):
    calls = []
    real = cli.decomposition_report

    def counted(n):
        calls.append(n)
        return real(n)

    cli.convention_ledger.cache_clear()
    monkeypatch.setattr(cli, "decomposition_report", counted)
    first = check("moyal", Options(count=2))
    second = check("moyal", Options(count=2))
    assert calls == [2]
    assert first["ledger"] == second["ledger"]
    # the report holds a copy: changing it leaves the cached ledger alone
    first["ledger"]["contraction_scaling"].append("x")
    assert check("moyal", Options(count=2))["ledger"] == second["ledger"]


def test_relation17_fails_on_a_wrong_nilpotency_order(monkeypatch, capsys):
    real = cpn.quantum_powers

    def one_too_many(a, w):
        # every power one factor further on: the observed order drops
        powers = real(a, w)
        next(powers)
        return powers

    monkeypatch.setattr(cpn, "quantum_powers", one_too_many)
    assert main(["--check", "relation17", "--n", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "FAIL  1 checks, 1 failed, 1 tasks"
    task = check("relation17", Options(n=2))["tasks"][0]
    assert task["pass"] is False
    assert task["rows"] == [{"n": 1, "ok": False, "nilpotency_order": 1},
                            {"n": 2, "ok": False, "nilpotency_order": 2}]


@pytest.mark.parametrize("count", [-5, 0, cli.MAX_COUNT + 1])
def test_count_outside_its_range_is_rejected(count, tmp_path, capsys):
    assert main(["--check", "moyal", "--count", str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qdr: count must be from 1 to "
                            f"{cli.MAX_COUNT}, got {count}\n")
    for task in ({"op": "suite", "name": "moyal", "count": count},
                 {"op": "stokes", "count": count}):
        path = scenario_file(tmp_path, {"model": "torus", "n": 1,
                                        "tasks": [task]})
        assert main(["--scenario", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qdr: count must be")


@pytest.mark.parametrize("suite, key", [("associativity", "dim"),
                                        ("complex", "n"),
                                        ("cohomology", "truncation")])
def test_zero_bound_is_rejected_not_replaced(suite, key, tmp_path, capsys):
    # a 0 must not fall back to the suite's default model
    assert main(["--check", suite, f"--{key}", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"qdr: {key} must be")
    path = scenario_file(tmp_path, {"model": "flat", "n": 1, "tasks": [
        {"op": "suite", "name": suite, key: 0}]})
    assert main(["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == lines


def test_dimension_over_the_cap_is_rejected_by_every_suite(monkeypatch,
                                                           capsys):
    # moyal reads neither dim nor n, yet a bound over the cap is refused
    monkeypatch.delenv("QDR_MAX_DIM", raising=False)
    for key, val in (("dim", "10"), ("n", "5")):
        assert main(["--check", "moyal", f"--{key}", val]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qdr: dimension 10 exceeds QDR_MAX_DIM=8\n"


@pytest.mark.parametrize("task", [
    {"op": "suite", "name": "associativity", "dim": 10},
    {"op": "suite", "name": "complex", "n": 5}])
def test_scenario_suite_over_the_cap_names_the_cap(task, tmp_path,
                                                   monkeypatch, capsys):
    # the same line as qdr --check prints for the same bound
    monkeypatch.delenv("QDR_MAX_DIM", raising=False)
    path = scenario_file(tmp_path, {"model": "flat", "n": 1,
                                    "tasks": [task]})
    assert main(["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qdr: dimension 10 exceeds QDR_MAX_DIM=8\n"


def test_count_and_power_caps_admit_their_bound(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setitem(cli.SUITES, "moyal", cli.Suite(
        lambda rng, *, count=25: ({"count": count}, True)))
    assert main(["--check", "moyal", "--count", str(cli.MAX_COUNT)]) == 0
    for k, code in ((cli.MAX_POWER, 0), (cli.MAX_POWER + 1, 2),
                    (100_000_000, 2)):
        path = scenario_file(tmp_path, {
            "model": "flat", "n": 1,
            "tasks": [{"op": "power", "expr": "1 + h", "k": k}]})
        assert main(["--scenario", path]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"qdr: k must be <= {cli.MAX_POWER}, got {k}"
        for k in (cli.MAX_POWER + 1, 100_000_000)]


@pytest.mark.parametrize("expr", ["1/0", "(" * 900 + "e[1]" + ")" * 900,
                                  "-" * 900 + "e[1]"])
def test_main_rejects_bad_expression_in_one_line(tmp_path, capsys, expr):
    path = scenario_file(tmp_path, {
        "model": "flat", "n": 1,
        "tasks": [{"op": "product", "expr": expr}]})
    assert main(["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qdr: ")


def test_nesting_below_the_cap_evaluates():
    ctx = build_context("flat", n=1)
    depth = cli.MAX_NESTING - 1
    assert str(ctx.eval("(" * depth + "e[1]" + ")" * depth)) == "e1"
    with pytest.raises(ScenarioError):
        ctx.eval("(" * (depth + 1) + "e[1]" + ")" * (depth + 1))


def test_main_machine_format(tmp_path, capsys):
    good = scenario_file(tmp_path, {
        "model": "flat", "dim": 2,
        "tasks": [{"op": "product", "expr": "e[1] ^h e[2]"}]})
    assert main(["--scenario", good, "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["tasks"][0]["value"] == "e1^e2 + (-1)*h"


# ---------------------------------------------------------------- suite n caps


@pytest.mark.parametrize("suite, cap", sorted(
    (name, row.n_cap) for name, row in cli.SUITES.items()
    if row.n_cap is not None))
def test_suite_rejects_n_outside_its_cap(suite, cap, capsys):
    for n in (cap + 1, 0, -1):
        assert main(["--check", suite, "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [f"qdr: suite {suite} takes n from 1 to {cap}, "
                         f"got {n}"]
    with pytest.raises(ScenarioError, match=f"n from 1 to {cap}"):
        check(suite, Options(n=cap + 1, count=1))


def test_suite_n_at_the_cap_runs_that_model(tmp_path, capsys):
    assert main(["--check", "cohomology", "--n", "2",
                 "--format", "machine"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["tasks"][0]["model"] == "torus(dim=4)"
    # a scenario suite task defaults n to the model's half-dimension
    path = scenario_file(tmp_path, {"model": "flat", "n": 3,
                                    "suite": "stokes"})
    assert main(["--scenario", path]) == 2
    assert capsys.readouterr().err == \
        "qdr: suite stokes takes n from 1 to 2, got 3\n"


def test_complex_suite_rejects_n_over_the_dimension_cap(monkeypatch, capsys):
    monkeypatch.delenv("QDR_MAX_DIM", raising=False)
    assert main(["--check", "complex", "--n", "5", "--count", "1"]) == 2
    assert capsys.readouterr().err == \
        "qdr: dimension 10 exceeds QDR_MAX_DIM=8\n"


# the dimension each suite works in at its default bounds: dim, or 2n
DEFAULT_DIMS = {"associativity": 4, "relation17": 8, "recursion": 6,
                "complex": 2, "cohomology": 2, "lefschetz": 4, "stokes": 2,
                "hermitian": 4, "dolbeault": 4, "chern": 4}


# rows whose models have a size of their own, and the largest of them
FIXED_DIMS = {"ledger": 6, "multiparameter": 4, "moyal": 4, "complex": 3}


def test_default_dims_name_every_row_sized_by_n_or_dim():
    assert set(DEFAULT_DIMS) == {
        name for name, row in cli.SUITES.items()
        if {"dim", "n"} & set(row.check.__kwdefaults__)}
    assert set(FIXED_DIMS) == {
        name for name, row in cli.SUITES.items() if row.fixed_dim}


@pytest.mark.parametrize("suite, dim", sorted(DEFAULT_DIMS.items())
                         + sorted(FIXED_DIMS.items()))
def test_default_dimension_over_the_cap_is_rejected(suite, dim, monkeypatch,
                                                    capsys):
    # the cap holds for a suite's default bounds as for given ones, and
    # for the fixed size of its models
    monkeypatch.setenv("QDR_MAX_DIM", str(dim - 1))
    assert main(["--check", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"qdr: dimension {dim} exceeds QDR_MAX_DIM={dim - 1}\n"


@pytest.mark.parametrize("suite, dim", sorted(FIXED_DIMS.items()))
def test_fixed_dimension_is_the_largest_pairing_built(suite, dim,
                                                      monkeypatch):
    # a row's fixed dimension is that of the largest pairing it builds:
    # no smaller, so the cap sees every model, and no larger, so it
    # rejects nothing that would fit
    assert cli.SUITES[suite].fixed_dim == dim
    seen = []
    real = exterior.PairTensor.__init__

    def recording(self, dim, entries=None):
        seen.append(dim)
        real(self, dim, entries)

    monkeypatch.setattr(exterior.PairTensor, "__init__", recording)
    assert cli.run_suite(suite, cli.Options(count=3))[1]
    assert max(seen) == dim


def test_associativity_accepts_odd_dimensions(tmp_path, capsys):
    assert main(["--check", "associativity", "--dim", "3",
                 "--count", "2", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["dim"] == 3
    # the so(3)* model hands its dimension 3 to the suite
    path = scenario_file(tmp_path, {"model": "lie_poisson_so3",
                                    "suite": "associativity"})
    assert main(["--scenario", path, "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["dim"] == 3


def _plus_first(real):
    # an affine slip: the result picks up its first argument
    return lambda *args: real(*args) + args[0]


def _raising(real):
    return _raise_assertion


# suite -> the cli name of a library call it makes, and a wrapper of the
# real call under which the suite's identity fails
BREAKS = {
    "associativity": ("quantum_wedge", _plus_first),
    "multiparameter": ("quantum_wedge", _plus_first),
    "relation17": ("verify_relation_17",
                   lambda real: lambda n: dict(real(n), nilpotency_order=n)),
    "recursion": ("derived_recursion_report", lambda real: lambda n: {
        "rows": [dict(r, matches_derived=False) for r in real(n)["rows"]]}),
    # accepts the non-Poisson fixture
    "complex": ("jacobi_check", lambda real: lambda w: (True, None)),
    "cohomology": ("poisson_homology_dims",
                   lambda real: lambda comp: cohomology.DimensionReport(
                       "poisson", [dict(r, ok=False)
                                   for r in real(comp).rows])),
    # the even window in place of the odd one, which is the identity
    "lefschetz": ("lefschetz_matrix",
                  lambda real: lambda n, parity: real(n, "even")),
    "ledger": ("lemma62_check", lambda real: lambda n, k: dict(
        real(n, k), part_i={"multiple": n - k})),
    "stokes": ("stokes_check", _raising),
    "hermitian": ("hermitian_gram",
                  lambda real: lambda n: {**real(n), (0, 1): 1}),
    "dolbeault": ("quantum_d", _plus_first),
    "chern": ("bianchi_check", _raising),
    "moyal": ("moyal_product", _plus_first),
}


def test_breaks_name_every_suite():
    assert set(BREAKS) == set(cli.SUITES)


@pytest.mark.parametrize("suite", sorted(BREAKS))
def test_each_suite_fails_when_its_identity_fails(suite, monkeypatch,
                                                  capsys):
    cli.convention_ledger()  # cached before any library call is broken
    target, wrap = BREAKS[suite]
    monkeypatch.setattr(cli, target, wrap(getattr(cli, target)))
    assert main(["--check", suite, "--n", "1", "--count", "2",
                 "--format", "machine"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["tasks"][0]["pass"] is False
    assert emit(report, "text").splitlines()[-1] == \
        "FAIL  1 checks, 1 failed, 1 tasks"


@pytest.mark.parametrize("data", [
    {"model": "flat", "tasks": [{"op": ["x"]}]},
    {"model": "flat", "tasks": [{"op": {"product": 1}, "expr": "e[1]"}]},
    {"model": "flat", "tasks": [{"op": "suite", "name": {"a": 1}}]},
    {"model": "flat", "suite": [["associativity"]]},
    {"model": "torus", "n": 1, "tasks": [{"op": "cohomology",
                                          "theory": ["q"]}]},
    {"model": "flat", "tasks": [{"op": "spectrum", "n": 1,
                                 "parity": ["odd"]}]},
    {"model": "flat", "tasks": [{"op": "operator", "name": ["d"],
                                 "expr": "e[1]"}]},
    {"model": ["flat"]},
    {"model": "torus", "n": 1, "tasks": [{"op": "chern", "theta": []}]},
    {"model": "torus", "n": 1, "truncation": True},
    {"model": "torus", "n": 1, "truncation": False},
])
def test_non_string_json_values_are_rejected_in_one_line(data, tmp_path,
                                                         capsys):
    # each of these used to end in a TypeError or IndexError traceback,
    # or (a boolean truncation) to run as the integer 1
    assert main(["--scenario", scenario_file(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qdr: ")


def test_enumerated_fields_name_their_choices(tmp_path):
    for task, names in (({"op": "cohomology", "theory": "q"}, cli._THEORIES),
                        ({"op": "spectrum", "n": 1, "parity": 1},
                         ("even", "odd")),
                        ({"op": "suite", "name": "q"}, cli.SUITES)):
        path = scenario_file(tmp_path, {"model": "torus", "n": 1,
                                        "tasks": [task]})
        with pytest.raises(ScenarioError) as info:
            run_scenario(path)
        assert all(name in str(info.value) for name in names)
