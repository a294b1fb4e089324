"""The qdr benchmark: one closed-loop caller, no threads.

    python3 perfbench/run.py --workload wedge_algebra --seed 1 \
        --seconds 30 --trace 0

Set-up imports ``qdr`` from ``src/`` next to this directory, generates
the workload's seeded operation list and builds its models.  The run
then executes the list from the start, again and again, until
``--seconds`` have passed (always at least once), checking every result.
With ``--trace 1`` it then runs the list once more with a span around
every call into each layer, and times ring operations on operand pairs
captured during that pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat each metric with its unit and record the environment.
``--record`` stores the output digests of one pass for the given seed.
See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 4099
SETUP_PROBES = 6
# host-speed reference: a fixed stdlib Fraction loop timed every
# PROBE_INTERVAL_S; REF_NOMINAL_S is its time on an uncontended core of
# the machine the bounds were set on (see SpeedProbe)
REF_ROUNDS = 10
REF_NOMINAL_S = 0.0019
PROBE_INTERVAL_S = 0.05

WORKLOADS = ("wedge_algebra", "torus_cohomology", "cli_mix")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's output digests and exit")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_qdr():
    """Put this checkout's src/ first on the path; refuse any other qdr."""
    if not os.path.isfile(os.path.join(SRC, "qdr", "__init__.py")):
        raise SystemExit(f"perfbench: no qdr sources under {SRC}")
    sys.path.insert(0, SRC)
    import qdr
    where = os.path.dirname(os.path.abspath(qdr.__file__))
    if where != os.path.join(SRC, "qdr"):
        raise SystemExit(f"perfbench: imported qdr from {where}, not {SRC}")


def reference_loop():
    """Dict-of-Fraction polynomial products, the shape of qdr's inner loops."""
    a = {e: Fraction(e + 1, 3) for e in range(8)}
    b = {e: Fraction(2, e + 5) for e in range(8)}
    for _ in range(REF_ROUNDS):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


class SpeedProbe:
    """Times the reference loop, also from a timer signal mid-operation.

    This machine's cores run the same code at speeds up to a factor of
    two apart, in spells of a few seconds, so raw times of the same
    operation differ by 20% between runs.  While armed, an interval
    timer runs the reference loop every PROBE_INTERVAL_S from the signal
    handler, in this thread, in the middle of whatever qdr is doing.  An
    operation's latency is its duration minus the probes inside it,
    scaled by REF_NOMINAL_S over the mean probe time inside and next to
    it.  This cancels the host's speed but not a change in qdr, which
    the reference loop does not call.
    """

    def __init__(self, tracer=None):
        self.mids = []
        self.times = []
        self._busy = False
        # when tracing, each probe is noted as a child of the span it
        # interrupted, so no layer's self time includes it
        self.tracer = tracer

    def probe(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self._busy = True
            try:
                self.probe()
            finally:
                self._busy = False
            if self.tracer is not None:
                start = self.mids[-1] - self.times[-1] / 2
                self.tracer.note_probe(start, start + self.times[-1])

    def arm(self, interval=PROBE_INTERVAL_S):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def latency(self, start, end):
        """Duration of [start, end] without probes, at reference speed."""
        lo = bisect.bisect_right(self.mids, start)
        hi = bisect.bisect_left(self.mids, end)
        inside = self.times[lo:hi]
        refs = list(inside)
        if lo > 0:
            refs.append(self.times[lo - 1])
        if hi < len(self.times):
            refs.append(self.times[hi])
        return ((end - start - sum(inside)) * REF_NOMINAL_S
                / (sum(refs) / len(refs)))


def set_up(workload, seed, workdir):
    """Import qdr and build the operation list.

    Returns (ops, seconds scaled to the reference speed).
    """
    speed = SpeedProbe()
    speed.probe()
    speed.probe()
    t0 = time.perf_counter()
    # set-up lasts 0.1 to 0.3 s, so it is probed every 10 ms
    speed.arm(0.01)
    try:
        import_qdr()
        import workloads
        os.makedirs(workdir, exist_ok=True)
        ops = workloads.build(workload, seed, workdir)
    finally:
        speed.disarm()
    t1 = time.perf_counter()
    speed.probe()
    return ops, speed.latency(t0, t1)


def probe_setup(workload, seed):
    """Set-up time of fresh processes, as every CLI invocation pays it."""
    times = []
    for k in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# -- running -----------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Pass:
    """Latency, verdict and digest of every position, per execution."""

    def __init__(self, n, tracer=None):
        self.runs = [[] for _ in range(n)]     # (start, end) per execution
        self.lat = [[] for _ in range(n)]      # scaled latencies, filled last
        self.digests = [None] * n
        self.attempted = 0
        self.failed = 0
        self.first_outputs = [None] * n
        self.wall = 0.0
        self.speed = SpeedProbe(tracer)

    def scale_latencies(self):
        self.lat = [[self.speed.latency(t0, t1) for t0, t1 in runs]
                    for runs in self.runs]


def run_op(op, index, record, expected, tracer=None):
    """Run one operation; returns True when it passed every check."""
    rec = tracer.begin_op(index, op.label) if tracer else None
    t0 = time.perf_counter()
    try:
        ok, text = op.call()
    except Exception:
        ok, text = False, None
        sys.stderr.write(f"perfbench: operation {index} ({op.label}) "
                         f"raised:\n{traceback.format_exc()}")
    t1 = time.perf_counter()
    if rec is not None:
        tracer.end(rec)
    record.attempted += 1
    record.runs[index].append((t0, t1))
    if text is not None:
        d = digest(text)
        if record.digests[index] is None:
            record.digests[index] = d
            record.first_outputs[index] = text
        elif record.digests[index] != d:
            ok = False
        if expected is not None and expected[index] != d:
            ok = False
            sys.stderr.write(f"perfbench: operation {index} ({op.label}) "
                             "output differs from the recorded digest\n")
    if not ok:
        record.failed += 1
        if text is not None:
            sys.stderr.write(f"perfbench: operation {index} ({op.label}) "
                             "failed its check\n")
    return ok


def run_passes(ops, seconds, expected, tracer=None, once=False):
    """Whole list at least once, then onward until seconds have passed."""
    record = Pass(len(ops), tracer)
    record.speed.probe()
    t0 = time.perf_counter()
    record.speed.arm()
    try:
        k = 0
        while True:
            i = k % len(ops)
            if k >= len(ops) and (once or
                                  time.perf_counter() - t0 >= seconds):
                break
            run_op(ops[i], i, record, expected, tracer)
            k += 1
    finally:
        record.speed.disarm()
    record.wall = time.perf_counter() - t0
    record.speed.probe()
    record.scale_latencies()
    return record


# -- metrics -----------------------------------------------------------------


def position_latency(record):
    """Mean latency of each list position over its executions."""
    return [sum(v) / len(v) for v in record.lat]


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples above it."""
    for p in range(99, 0, -1):
        if n - 1 - (p * n) // 100 >= 10:
            return p
    return 0


def percentile(values, p):
    ordered = sorted(values)
    k = min(len(ordered) - 1, (p * len(ordered)) // 100)
    return ordered[k]


def end_to_end(record, setup_times):
    lat = position_latency(record)
    p = tail_percentile(len(lat))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, p


_INT = re.compile(r"\d+")


def peak_coeff_bits(outputs):
    return max((int(m).bit_length() for text in outputs if text
                for m in _INT.findall(text)), default=0)


def per_layer(tracer, summary, traced, untraced, micro, outputs):
    import tracing
    calls, incl, self_s, coverage = summary

    def c(name):
        return (calls.get(name, 0), "count")

    def s(name):
        return (self_s.get(name, 0.0), "s")

    blade_calls = calls.get("exterior.expand_blade_pair", 0)
    untraced_rate = len(untraced.lat) / sum(position_latency(untraced))
    traced_rate = len(traced.lat) / sum(position_latency(traced))
    m = {
        "exterior.expand_blade_pair.calls": c("exterior.expand_blade_pair"),
        "exterior.expand_blade_pair.self_s": s("exterior.expand_blade_pair"),
        "exterior.expand_blade_pair.reuse_ratio": (
            tracer.repeats / blade_calls if blade_calls else 0.0, "ratio"),
        "exterior.quantum_wedge.calls": c("exterior.quantum_wedge"),
        "exterior.quantum_wedge.self_s": s("exterior.quantum_wedge"),
        "exterior.quantum_wedge_multi.self_s":
            s("exterior.quantum_wedge_multi"),
    }
    for key in ("hpoly", "taunumber", "fraction"):
        for op in ("mul", "add"):
            m[f"scalars.{key}_{op}_us"] = (micro[f"{key}_{op}_us"], "us")
    m["scalars.peak_coeff_bits"] = (peak_coeff_bits(outputs), "bits")
    for key in ("fourierfn", "polyfn"):
        for op in ("mul", "add"):
            m[f"functions.{key}_{op}_us"] = (micro[f"{key}_{op}_us"], "us")
    m["functions.moyal_product.self_s"] = s("functions.moyal_product")
    m["fields.quantum_d.calls"] = c("fields.quantum_d")
    for name in ("quantum_d", "koszul_delta", "exterior_d",
                 "quantum_wedge_field"):
        m[f"fields.{name}.self_s"] = s(f"fields.{name}")
    m["cohomology.build_complex.s"] = (
        incl.get("cohomology.build_complex", 0.0), "s")
    m["cohomology.build_complex.self_s"] = s("cohomology.build_complex")
    m["cohomology.rank_tables.self_s"] = s("cohomology.rank_tables")
    m["cohomology.modes"] = (tracer.modes, "count")
    m["cohomology.blocks"] = (tracer.blocks, "count")
    m["linalg.matrix_rank.calls"] = c("linalg.matrix_rank")
    m["linalg.matrix_rank.self_s"] = s("linalg.matrix_rank")
    m["linalg.matrix_rank.largest_block"] = (tracer.largest_block, "entries")
    m["linalg.matrix_rank.entries_ranked"] = (tracer.rank_entries, "entries")
    m["linalg.char_poly.self_s"] = s("linalg.char_poly")
    m["linalg.det.self_s"] = s("linalg.det")
    for name in ("symplectic.window_matrix", "symplectic.lefschetz_matrix",
                 "bigraded.derive_adjoint_law", "bigraded.hermitian_gram",
                 "chernweil.quantum_curvature", "chernweil.bianchi_check",
                 "cpn.cpn_structure_constants", "cpn.verify_relation_17"):
        m[f"{name}.self_s"] = s(name)
    m["cli.convention_ledger.calls"] = c("cli.convention_ledger")
    m["cli.convention_ledger.s"] = (
        incl.get("cli.convention_ledger", 0.0), "s")
    m["cli.eval.self_s"] = s("cli.eval")
    m["cli.emit.self_s"] = s("cli.emit")
    m["rand.self_s"] = s("rand")
    for layer in tracing.HEAVY:
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items()
                                   if k.split(".")[0] == layer), "count")
    m["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "frac")
    m["trace.coverage"] = (coverage, "frac")
    return m


# -- environment and records -------------------------------------------------


def git_commit():
    """HEAD from .git files, without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over src/qdr/*.py, naming the code even outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qdr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit() or "unknown (not a git checkout)",
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_digests(workload, seed, n):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    got = table.get(workload, {}).get(str(seed))
    if got is not None and len(got) != n:
        raise SystemExit(f"perfbench: recorded digests for {workload} seed "
                         f"{seed} cover {len(got)} operations, the list has "
                         f"{n}; record them again")
    return got


def store_digests(workload, seed, digests):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = digests
    for key in table:
        table[key] = dict(sorted(table[key].items(), key=lambda t: int(t[0])))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


# -- main --------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(WORK_DIR, f"{os.getpid()}")
    try:
        if args.setup_probe:
            _ops, took = set_up(args.workload, args.seed, workdir)
            print(repr(took))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def measure(args, workdir):
    ops, took = set_up(args.workload, args.seed, workdir)
    if args.record:
        expected = None
    else:
        setup_times = [took] + probe_setup(args.workload, args.seed)
        expected = load_digests(args.workload, args.seed, len(ops))
    # a traced run gives half its time to the untraced passes it compares
    # against, then traces one more pass
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(ops, seconds, expected, once=args.record)
    if args.record:
        if untraced.failed:
            print(f"perfbench: {untraced.failed} operations failed; "
                  "nothing recorded", file=sys.stderr)
            return 1
        store_digests(args.workload, args.seed, untraced.digests)
        print(f"recorded {len(ops)} digests for {args.workload} "
              f"seed {args.seed}")
        return 0
    e2e, pct = end_to_end(untraced, setup_times)
    attempted, failed = untraced.attempted, untraced.failed
    env = environment(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracing
        import workloads
        tracer = tracing.Tracer(args.seed)
        tracer.install()
        try:
            speed = SpeedProbe()
            speed.probe()
            t0 = time.perf_counter()
            rec = tracer.begin("op:setup")
            ops_traced = workloads.build(args.workload, args.seed, workdir)
            tracer.end(rec)
            t1 = time.perf_counter()
            speed.probe()
            traced = run_passes(ops_traced, 0, expected, tracer, once=True)
        finally:
            tracer.remove()
        setup_scale = speed.latency(t0, t1) / (t1 - t0)
        scales = [lat[0] / (runs[0][1] - runs[0][0])
                  for lat, runs in zip(traced.lat, traced.runs)]
        summary = tracer.summary(
            lambda op: scales[op] if op >= 0 else setup_scale)
        mismatch = sum(1 for a, b in zip(traced.digests, untraced.digests)
                       if a != b)
        if mismatch:
            print(f"perfbench: {mismatch} traced outputs differ from the "
                  "untraced run", file=sys.stderr)
        attempted += traced.attempted
        failed += traced.failed + mismatch
        micro = tracing.ring_microbench(tracer.samples, SpeedProbe())
        metrics = per_layer(tracer, summary, traced, untraced, micro,
                            untraced.first_outputs)
        tracer.write(os.path.join(OUT_DIR, f"spans-{stem}.jsonl"), env)
    else:
        metrics = e2e
    failed_frac = failed / attempted
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"operations {len(ops)} per list, {untraced.attempted} run "
             f"untraced in {untraced.wall:.3f} s",
             f"op_tail_ms is p{pct} over {len(ops)} list positions "
             f"(per-position mean latency)",
             f"failed_frac {failed_frac:.6g} (failed/attempted = "
             f"{failed}/{attempted})"]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit)
              in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "notes": lines[1:4], **result,
                   "positions": [[op.label, lat * 1e3] for op, lat in
                                 zip(ops, position_latency(untraced))]},
                  fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
