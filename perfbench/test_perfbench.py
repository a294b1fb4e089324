"""The benchmark's own checks; run with ``python3 -m pytest perfbench``.

Each workload runs once traced at the default seed (about two minutes
in all).  Not part of the tier-1 suite, which collects ``tests/`` only.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in WORKLOADS:
        proc = _run(ROOT, "--workload", workload, "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_has_no_failures(traced, workload):
    # failures include digest mismatches between traced and untraced
    # passes and against digests.json
    result = traced[workload]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced, workload):
    spec = _spec()
    metrics = traced[workload]["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("layer", sorted(tracing.HEAVY))
def test_layer_is_busy_on_its_heavy_workload(traced, layer):
    metrics = traced[tracing.HEAVY[layer]]["metrics"]
    assert metrics[f"{layer}.calls"]["value"] > 0


def test_kernel_is_idle_on_torus_cohomology(traced):
    metrics = traced["torus_cohomology"]["metrics"]
    assert metrics["exterior.expand_blade_pair.calls"]["value"] == 0


def test_untraced_run_prints_end_to_end_metrics():
    proc = _run(ROOT, "--workload", "cli_mix", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_benchmark_alone_exits_nonzero():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      ".pytest_cache"))
        proc = _run(bare, "--workload", "wedge_algebra", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_operand_samples_share_a_space():
    # function operands on different dimensions cannot be multiplied, so
    # the ring microbenchmark must never sample them as a pair
    from qdr.functions import PolyFn
    tracer = tracing.Tracer(0)
    a2, b2 = PolyFn.coord(2, 1), PolyFn.coord(2, 2)
    a3 = PolyFn.coord(3, 1)
    tracer.offer(a2, a3)
    tracer.offer_one(a2)
    tracer.offer_one(a3)
    tracer.offer_one(b2)
    assert tracer.samples["polyfn"] == [(a2, b2)]
    micro = tracing.ring_microbench(tracer.samples, _Speed(), repeats=1,
                                    target_s=0.001)
    assert micro["polyfn_mul_us"] > 0


class _Speed:
    def probe(self):
        pass

    def latency(self, start, end):
        return end - start
