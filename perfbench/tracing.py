"""Spans around mimo-lab's public entry points, patched in from outside the
program, and the per-layer metrics computed from them.

Each name is patched where its caller looks it up at call time: module
functions in the module whose global the caller reads (`harness` binds
`build_network` at import; `detequiv` and `beamform` bind `projected_cov`;
`sinr_mmse_detequiv` imports `beamform.assemble_Z` when it runs), and
methods on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from metrics import PER_LAYER
from mimo_lab import beamform, bounds, covmodel, detequiv, harness, training


class Tracer:
    """Collects spans (id, name, start, end, parent id, thread id) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def add(self, name: str, n=1):
        with self._lock:
            self.counts[name] += n

    def peak(self, name: str, value):
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(args) runs outside it and its result
        reaches after(ctx, args, out)."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            ctx = before(bound.arguments) if before else None
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after:
                after(ctx, bound.arguments, out)
            return out

        return traced

    def patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _scenario_fingerprint(sc) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((sc.L, sc.K, sc.M, sc.T_c, sc.snr, sc.scheme)).encode())
    for key in sorted(sc.profiles):
        prof = sc.profiles[key]
        h.update(prof.U[:2].tobytes())
        h.update(prof.lam.tobytes())
    return h.hexdigest()


def install() -> Tracer:
    """Patch every traced entry point and return the collecting tracer."""
    t = Tracer()

    build_network = t.wrap(
        "covmodel.build_network", covmodel.build_network,
        before=lambda a: repr((a["cfg"], a["rng"].bit_generator.state)),
        after=lambda key, a, out: t.distinct["covmodel.build_network"].add(key),
    )
    t.patch(covmodel, "build_network", build_network)
    t.patch(harness, "build_network", build_network)

    def bank_built(key, a, bank):
        t.distinct["training.EstimatorBank.build"].add(key)
        t.add("training.jittered_users", sum(u.jittered for u in bank.users.values()))

    t.patch(training.EstimatorBank, "build", staticmethod(t.wrap(
        "training.EstimatorBank.build", training.EstimatorBank.build,
        before=lambda a: _scenario_fingerprint(a["scenario"]), after=bank_built,
    )))

    projected_cov = training.projected_cov

    def counted_projected_cov(*args, **kwargs):
        t.add("training.projected_cov.calls")
        return projected_cov(*args, **kwargs)

    for module in (training, detequiv, beamform):
        t.patch(module, "projected_cov", counted_projected_cov)

    def engine_built(ctx, a, out):
        nbytes = sum(v.nbytes for v in vars(a["self"]).values() if isinstance(v, np.ndarray))
        t.peak("bounds.engine_tables_mb", nbytes / 2 ** 20)

    engine = bounds.DrawEngine
    t.patch(engine, "__init__", t.wrap("bounds.DrawEngine.init", engine.__init__,
                                       after=engine_built))
    t.patch(engine, "ul_chunk", t.wrap("bounds.ul_chunk", engine.ul_chunk))
    t.patch(engine, "dl_chunk", t.wrap("bounds.dl_chunk", engine.dl_chunk))

    def bounds_ran(ctx, a, out):
        sc = a["scenario"]
        cells = sc.L if a["cells"] is None else len(a["cells"])
        t.add("bounds.user_trials", a["trials"] * cells * sc.K)

    t.patch(bounds, "run_bounds", t.wrap("bounds.run_bounds", bounds.run_bounds,
                                         after=bounds_ran))

    def loop_ran(ctx, a, out):
        sc = a["scenario"]
        t.add("bounds.user_trials", a["trials"] * sc.L * sc.K)

    for attr in ("dl_rates_lowdim", "dl_rates_fulldim"):
        if hasattr(bounds, attr):  # the loop evaluators are slated for removal
            t.patch(bounds, attr, t.wrap(f"bounds.{attr}", getattr(bounds, attr),
                                         after=loop_ran))

    t.patch(detequiv, "sinr_mmse_detequiv",
            t.wrap("detequiv.sinr_mmse_detequiv", detequiv.sinr_mmse_detequiv))
    t.patch(detequiv, "solve_fixed_point", t.wrap(
        "detequiv.solve_fixed_point", detequiv.solve_fixed_point,
        after=lambda ctx, a, out: t.add("detequiv.fixed_point_iters", out.iterations),
    ))
    t.patch(detequiv, "solve_primed", t.wrap("detequiv.solve_primed", detequiv.solve_primed))
    t.patch(beamform, "assemble_Z", t.wrap("beamform.assemble_Z", beamform.assemble_Z))

    t.patch(harness, "run_experiment",
            t.wrap("harness.run_experiment", harness.run_experiment))
    t.patch(harness, "reproduce_figure",
            t.wrap("harness.reproduce_figure", harness.reproduce_figure))
    t.patch(harness, "write_results", t.wrap(
        "harness.write_results", harness.write_results,
        after=lambda ctx, a, out: t.add("harness.csv_bytes", os.path.getsize(a["path"])),
    ))
    return t


def layer_metrics(t: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced run whose workload took wall_s.

    busy_s sums a span's duration over all threads; self_s subtracts the
    child spans on the same thread.  process.unaccounted_s is the part of
    wall_s that no top-level span on the main thread covers.
    """
    child_s = defaultdict(float)
    for sid, name, start, end, parent, tid in t.spans:
        if parent is not None:
            child_s[parent] += end - start
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    covered = 0.0
    main = threading.main_thread().ident
    for sid, name, start, end, parent, tid in t.spans:
        calls[name] += 1
        busy[name] += end - start
        self_s[name] += end - start - child_s[sid]
        if parent is None and tid == main:
            covered += end - start

    def useful(name):
        return len(t.distinct[name]) / calls[name] if calls[name] else 0.0

    out = {}
    for metric, unit in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if metric in t.counts:
            out[metric] = t.counts[metric]
        elif kind == "calls":
            out[metric] = calls[layer]
        elif kind == "busy_s":
            out[metric] = busy[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
        elif kind == "useful_ratio":
            out[metric] = useful(layer)
    out["process.unaccounted_s"] = wall_s - covered
    for metric, unit in PER_LAYER:  # counters never touched on this workload
        if not metric.startswith("process."):
            out.setdefault(metric, 0)
    return out


def spans_json(t: Tracer) -> list:
    names = {}
    main = threading.main_thread().ident
    for sid, name, start, end, parent, tid in t.spans:
        names.setdefault(tid, "main" if tid == main else f"pool-{len(names)}")
    return [{"id": sid, "name": name, "start": start, "end": end, "parent": parent,
             "thread": names[tid]} for sid, name, start, end, parent, tid in sorted(t.spans)]
