"""Spans around the calls into each ``qdr`` layer, recorded from outside.

Modules import public functions by name (``from .exterior import
quantum_wedge``), so patching only the defining module would miss most
callers.  ``Tracer.install`` finds every ``qdr`` namespace that holds the
original function object and replaces it there, including aliases such
as ``symplectic._char_poly_rows``.  ``Tracer.remove`` puts the originals
back.

Spans live in memory as ``[name, parent, op, start, end]`` lists with the
index of the parent span, and are written out once the run ends.  A
layer's self time is its span duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from fractions import Fraction
from random import Random

from qdr.functions import FourierFn, PolyFn
from qdr.scalars import HPoly, TauNumber

# (module, attribute, span name); several functions may share a span name
TRACED = (
    ("exterior", "expand_blade_pair", "exterior.expand_blade_pair"),
    ("exterior", "quantum_wedge", "exterior.quantum_wedge"),
    ("exterior", "quantum_wedge_multi", "exterior.quantum_wedge_multi"),
    ("exterior", "quantum_power", "exterior.quantum_power"),
    ("functions", "moyal_product", "functions.moyal_product"),
    ("fields", "quantum_d", "fields.quantum_d"),
    ("fields", "quantum_d_mirror", "fields.quantum_d_mirror"),
    ("fields", "koszul_delta", "fields.koszul_delta"),
    ("fields", "exterior_d", "fields.exterior_d"),
    ("fields", "quantum_wedge_field", "fields.quantum_wedge_field"),
    ("cohomology", "build_complex", "cohomology.build_complex"),
    ("cohomology", "quantum_cohomology_dims", "cohomology.rank_tables"),
    ("cohomology", "dr_cohomology_dims", "cohomology.rank_tables"),
    ("cohomology", "poisson_homology_dims", "cohomology.rank_tables"),
    ("cohomology", "e1_dims", "cohomology.rank_tables"),
    ("cohomology", "stokes_check", "cohomology.stokes_check"),
    ("linalg", "matrix_rank", "linalg.matrix_rank"),
    ("linalg", "char_poly", "linalg.char_poly"),
    ("linalg", "det_field", "linalg.det"),
    ("linalg", "bareiss_det", "linalg.det"),
    ("symplectic", "window_matrix", "symplectic.window_matrix"),
    ("symplectic", "lefschetz_matrix", "symplectic.lefschetz_matrix"),
    ("bigraded", "derive_adjoint_law", "bigraded.derive_adjoint_law"),
    ("bigraded", "hermitian_gram", "bigraded.hermitian_gram"),
    ("chernweil", "quantum_curvature", "chernweil.quantum_curvature"),
    ("chernweil", "bianchi_check", "chernweil.bianchi_check"),
    ("cpn", "cpn_structure_constants", "cpn.cpn_structure_constants"),
    ("cpn", "verify_relation_17", "cpn.verify_relation_17"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "check", "cli.check"),
    ("cli", "convention_ledger", "cli.convention_ledger"),
    ("cli", "emit", "cli.emit"),
) + tuple(("rand", name, "rand") for name in (
    "random_fraction", "random_hpoly", "random_qform", "random_blade_form",
    "random_bivector", "random_pairing", "random_gauss", "random_polyfn",
    "random_fourierfn", "random_fn", "random_fieldform"))

# layers whose calls the benchmark's own test requires on the named workload
HEAVY = {
    "exterior": "wedge_algebra",
    "fields": "torus_cohomology",
    "cohomology": "torus_cohomology",
    "linalg": "torus_cohomology",
    "functions": "cli_mix",
    "symplectic": "cli_mix",
    "bigraded": "cli_mix",
    "chernweil": "cli_mix",
    "cpn": "cli_mix",
    "cli": "cli_mix",
    "rand": "cli_mix",
}

RING_TYPES = {"hpoly": HPoly, "taunumber": TauNumber, "fraction": Fraction,
              "polyfn": PolyFn, "fourierfn": FourierFn}
SAMPLE_PAIRS = 48


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, seed):
        self.spans = []
        self.stack = []
        self.probes = []
        self.op = -1
        self._patched = []
        self._rng = Random(f"trace:{seed}")
        self.samples = {key: [] for key in RING_TYPES}
        self._offered = dict.fromkeys(RING_TYPES, 0)
        self._last = {}
        self.repeats = 0
        self._seen = {}
        self.rank_entries = 0
        self.largest_block = 0
        self.blocks = 0
        self.modes = 0

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, parent, self.op, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[4] = time.perf_counter()
        self.stack.pop()

    def note_probe(self, start, end):
        """A speed probe ran inside the innermost open span.

        Called from the probe's signal handler, so it only reads the
        stack and appends to its own list: the spans being opened or
        closed at that moment stay intact.
        """
        parent = self.stack[-1] if self.stack else -1
        self.probes.append((parent, start, end))

    def begin_op(self, index, label):
        self.op = index
        return self.begin(f"op:{label}")

    def _wrap(self, name, fn):
        before = _HOOKS.get(name)
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            rec = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None:
                after(tracer, out)
            return out
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qdr" or key.startswith("qdr.")]
        for modname, attr, name in TRACED:
            orig = getattr(sys.modules[f"qdr.{modname}"], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))
        # parsing is a method; patch the class attribute
        cli = sys.modules["qdr.cli"]
        orig_eval = cli.Context.eval
        cli.Context.eval = self._wrap("cli.eval", orig_eval)
        self._patched.append((cli.Context, "eval", orig_eval))

    def remove(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    # -- operand samples -------------------------------------------------

    def offer(self, x, y):
        """Reservoir-sample one real operand pair of a ring type."""
        for key, cls in RING_TYPES.items():
            if type(x) is cls and type(y) is cls:
                break
        else:
            return
        # function rings only combine operands on the same space
        if getattr(x, "dim", None) != getattr(y, "dim", None):
            return
        self._offered[key] += 1
        pool = self.samples[key]
        if len(pool) < SAMPLE_PAIRS:
            pool.append((x, y))
        else:
            slot = self._rng.randrange(self._offered[key])
            if slot < SAMPLE_PAIRS:
                pool[slot] = (x, y)

    def offer_one(self, x):
        """Pair x with the previous lone operand of the same type and dim."""
        key = (type(x), getattr(x, "dim", None))
        prev = self._last.get(key)
        self._last[key] = x
        if prev is not None:
            self.offer(prev, x)

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    # -- summary ---------------------------------------------------------

    def summary(self, scale):
        """Per-name calls, inclusive and self seconds, and coverage.

        Durations are multiplied by scale(op index), the host-speed
        factor of the operation the span belongs to.  Speed probes are
        children of the span they interrupted, so no self time includes
        them.  Coverage is the share of the operations' own time, probes
        excluded, spent inside a layer span.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _op, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = probed = 0.0
        for parent, start, end in self.probes:
            if parent >= 0:
                child[parent] += end - start
                probed += end - start
                if not spans[parent][0].startswith("op:"):
                    covered -= end - start
        calls, incl, self_s = {}, {}, {}
        rooted = 0.0
        for k, (name, parent, op, start, end) in enumerate(spans):
            dur = end - start
            if name.startswith("op:"):
                rooted += dur
                continue
            if parent < 0 or spans[parent][0].startswith("op:"):
                covered += dur
            f = scale(op)
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur * f
            self_s[name] = self_s.get(name, 0.0) + (dur - child[k]) * f
        busy = rooted - probed
        return calls, incl, self_s, covered / busy if busy > 0 else 0.0

    def write(self, path, env):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "fields": [
                "id", "parent", "op", "name", "start_s", "dur_s"]}) + "\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for k, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps([k, parent, op, name,
                                     round(start - t0, 7),
                                     round(end - start, 7)]) + "\n")


def _pick(rng, values):
    values = list(values)
    return values[rng.randrange(len(values))] if values else None


def _hook_blade_pair(tracer, args):
    amask, bmask, pairing = args[:3]
    if not pairing.is_constant():
        return
    entry = tracer._seen.get(id(pairing))
    if entry is None or entry[0]() is not pairing:
        entry = (weakref.ref(pairing), set())
        tracer._seen[id(pairing)] = entry
    key = (amask, bmask)
    if key in entry[1]:
        tracer.repeats += 1
    else:
        entry[1].add(key)


def _hook_quantum_wedge(tracer, args):
    a, b = args[:2]
    ca = _pick(tracer._rng, a.terms.values())
    cb = _pick(tracer._rng, b.terms.values())
    if ca is not None and cb is not None:
        tracer.offer(ca, cb)
        fa = _pick(tracer._rng, ca.terms.values())
        fb = _pick(tracer._rng, cb.terms.values())
        tracer.offer(fa, fb)


def _hook_fn_pair(tracer, args):
    a, b = args[:2]
    if hasattr(a, "fnring"):
        a = _pick(tracer._rng, a.terms.values())
        b = _pick(tracer._rng, b.terms.values())
    if a is not None and b is not None:
        tracer.offer(a, b)


def _hook_quantum_d(tracer, args):
    fn = _pick(tracer._rng, args[0].terms.values())
    if fn is not None:
        tracer.offer_one(fn)


def _nonzero_entries(rows):
    return [x for row in rows for x in row if x]


def _hook_matrix_rank(tracer, args):
    rows = args[0]
    size = len(rows) * (len(rows[0]) if rows else 0)
    tracer.rank_entries += size
    tracer.largest_block = max(tracer.largest_block, size)
    if tracer.parent_name().startswith("cohomology."):
        tracer.blocks += 1
    entries = _nonzero_entries(rows)
    if len(entries) >= 2:
        x, y = tracer._rng.sample(entries, 2)
        tracer.offer(x, y)


def _hook_matrix(tracer, args):
    entries = _nonzero_entries(args[0])
    if len(entries) >= 2:
        tracer.offer(*tracer._rng.sample(entries, 2))


def _after_build(tracer, comp):
    tracer.modes += len(comp.fmodes)


_HOOKS = {
    "exterior.expand_blade_pair": _hook_blade_pair,
    "exterior.quantum_wedge": _hook_quantum_wedge,
    "fields.quantum_wedge_field": _hook_fn_pair,
    "functions.moyal_product": _hook_fn_pair,
    "fields.quantum_d": _hook_quantum_d,
    "linalg.matrix_rank": _hook_matrix_rank,
    "linalg.char_poly": _hook_matrix,
    "linalg.det": _hook_matrix,
}
_AFTER = {"cohomology.build_complex": _after_build}


def ring_microbench(samples, speed, repeats=7, target_s=0.02):
    """Microseconds per ``*`` and per ``+`` on each sampled operand set.

    Each repeat loops over the sample enough times to last about
    target_s and is scaled by the host-speed probe around it; the median
    repeat is reported.  A type with no sample reports 0.
    """
    out = {}
    for key, pairs in samples.items():
        for opname, fn in (("mul", _mul), ("add", _add)):
            if not pairs:
                out[f"{key}_{opname}_us"] = 0.0
                continue
            t0 = time.perf_counter()
            fn(pairs)
            once = max(time.perf_counter() - t0, 1e-7)
            loops = max(1, int(target_s / once))
            per_op = []
            for _ in range(repeats):
                speed.probe()
                t0 = time.perf_counter()
                for _ in range(loops):
                    fn(pairs)
                t1 = time.perf_counter()
                speed.probe()
                per_op.append(speed.latency(t0, t1) / (loops * len(pairs)))
            per_op.sort()
            out[f"{key}_{opname}_us"] = per_op[len(per_op) // 2] * 1e6
    return out


def _mul(pairs):
    for x, y in pairs:
        x * y


def _add(pairs):
    for x, y in pairs:
        x + y
