"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from the spans.

The traced run wraps selected public functions of each `mixreg` module by
rebinding their names in every `mixreg` module namespace that holds them, so
no file of the package changes.  Each call records one span: run id, name,
start, end, parent span id, span id, an optional per-call quantity (rows
simulated, chunks mapped, ...) and the exception type if the call raised.
Spans stay in memory and are written out when the traced process ends.

Work that `parallel.map_chunks` sends to worker processes is traced too: the
chunk function is wrapped so that a worker returns its spans along with the
chunk result.  Workers are forked while the `map_chunks` span is open, so
their spans hang under it.  Worker time is summed over workers, so a layer's
seconds can exceed wall time when the pool is in use.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run, with the per-call
# quantity each span records, computed from the positional arguments.  Layer
# metric names below use the same names.
TARGETS = {
    ("processes", "simulate"): lambda a: a[1] + getattr(a[0], "warmup", 0),
    ("processes", "derive_seed"): None,
    ("blocking", "block_sums"): None,
    ("blocking", "decoupled_resample"): lambda a: a[1].n,
    ("bounds", "noise_spectrum"): lambda a: a[3],
    ("bounds", "estimate_r"): None,
    ("regression", "noise_walk"): None,
    ("regression", "fit_ols"): None,
    ("regression", "excess_risk"): None,
    ("regression", "population_optimum"): None,
    ("linalg", "inv_sqrt_psd"): None,
    ("mixing", "profile_from_spec"): None,
    ("parallel", "map_chunks"): lambda a: len(a[1]),
    ("config", "load_config"): None,
    # Harness entry points of the benchmarked CLI subcommands.
    ("harness", "run_coverage"): None,
    ("harness", "verify_noise_walk"): None,
}


class Tracer:
    """In-memory span recorder for one traced process (and its forked pool
    workers)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list = [None]
        self._next = 0
        self._pid = os.getpid()

    def _new_id(self):
        # Forked workers inherit the counter, so ids carry the process id.
        pid = os.getpid()
        if pid != self._pid:
            self._pid, self._next = pid, 0
        self._next += 1
        return pid * 10**9 + self._next

    def wrap(self, name: str, fn, quantity=None):
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id

        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1]
            stack.append(sid)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = quantity(args) if quantity is not None else None
                spans.append((run_id, name, start, end, parent, sid, extra, error))

        return traced


class ChunkCall:
    """Chunk function handed to `map_chunks`: runs the chunk and returns its
    result with the spans it recorded, so spans made in a pool worker reach
    the traced process.  Pickled by reference, so workers must be forked from
    the traced process (the start method `parallel.py` gets on Linux)."""

    tracer: Tracer | None = None  # set by install(); one traced run per process

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, arg):
        spans = ChunkCall.tracer.spans
        mark = len(spans)
        result = self.fn(arg)
        new = spans[mark:]
        del spans[mark:]
        return result, new


def install(tracer: Tracer) -> None:
    """Rebind every target name in every loaded `mixreg` module namespace."""
    ChunkCall.tracer = tracer
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "mixreg" or key.startswith("mixreg."))]
    for (mod_name, fn_name), quantity in TARGETS.items():
        module = importlib.import_module(f"mixreg.{mod_name}")
        original = getattr(module, fn_name)
        span_name = f"{mod_name}.{fn_name}"
        if (mod_name, fn_name) == ("parallel", "map_chunks"):
            wrapped = tracer.wrap(span_name, _pooled_map(original, tracer), quantity)
        else:
            wrapped = tracer.wrap(span_name, original, quantity)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _pooled_map(map_chunks, tracer: Tracer):
    def traced_map(fn, chunk_args, workers=None):
        parts = map_chunks(ChunkCall(fn), chunk_args, workers)
        for _, spans in parts:
            tracer.spans.extend(spans)
        return [result for result, _ in parts]
    return traced_map


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_metrics(spans, pool_workers: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.  Keys are metric names;
    counts are exact, times in seconds unless the name says otherwise."""
    by_id = {s[5]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        name, start, end = s[1], s[2], s[3]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += (end - start) - _covered(start, end, children.get(s[5], ()))

    def has_ancestor(span, name):
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = by_id.get(parent[4])
        return False

    sims = [s for s in spans if s[1] == "processes.simulate"]
    sim_ms = sorted((s[3] - s[2]) * 1e3 for s in sims)
    spectrum_trials = sum(s[6] for s in spans if s[1] == "bounds.noise_spectrum")
    spectrum_sims = sum(1 for s in sims if has_ancestor(s, "bounds.noise_spectrum"))
    decoupled_kept = sum(s[6] for s in spans if s[1] == "blocking.decoupled_resample")
    decoupled_rows = sum(s[6] for s in sims
                         if by_id.get(s[4], (None, None))[1] == "blocking.decoupled_resample")
    entries = [s for s in spans if s[1].startswith("harness.")]

    def pct(q):
        if not sim_ms:
            return 0.0
        return statistics.quantiles(sim_ms, n=100, method="inclusive")[q - 1] \
            if len(sim_ms) > 1 else sim_ms[0]

    out = {
        "processes.simulate.calls": calls["processes.simulate"],
        "processes.simulate.self_s": self_s["processes.simulate"],
        "processes.simulate.rows": sum(s[6] for s in sims),
        "processes.simulate.ms_p50": pct(50),
        "processes.simulate.ms_p99": pct(99),
        "processes.derive_seed.calls": calls["processes.derive_seed"],
        "processes.derive_seed.self_s": self_s["processes.derive_seed"],
        "blocking.block_sums.calls": calls["blocking.block_sums"],
        "blocking.block_sums.self_s": self_s["blocking.block_sums"],
        "blocking.decoupled_resample.calls": calls["blocking.decoupled_resample"],
        "blocking.decoupled_resample.self_s": self_s["blocking.decoupled_resample"],
        "blocking.decoupled_resample.kept_frac":
            decoupled_kept / decoupled_rows if decoupled_rows else 0.0,
        "bounds.noise_spectrum.s": total["bounds.noise_spectrum"],
        "bounds.noise_spectrum.self_s": self_s["bounds.noise_spectrum"],
        "bounds.noise_spectrum.sims_per_trial":
            spectrum_sims / spectrum_trials if spectrum_trials else 0.0,
        "bounds.estimate_r.s": total["bounds.estimate_r"],
        "bounds.estimate_r.self_s": self_s["bounds.estimate_r"],
        "regression.noise_walk.calls": calls["regression.noise_walk"],
        "regression.noise_walk.self_s": self_s["regression.noise_walk"],
        "regression.fit_ols.calls": calls["regression.fit_ols"],
        "regression.fit_ols.self_s": self_s["regression.fit_ols"],
        "regression.fit_ols.degenerate": sum(
            1 for s in spans
            if s[1] == "regression.fit_ols" and s[7] == "DegenerateDesignError"),
        "regression.excess_risk.self_s": self_s["regression.excess_risk"],
        "regression.population_optimum.s": total["regression.population_optimum"],
        "linalg.inv_sqrt_psd.calls": calls["linalg.inv_sqrt_psd"],
        "linalg.inv_sqrt_psd.self_s": self_s["linalg.inv_sqrt_psd"],
        "mixing.profile_from_spec.s": total["mixing.profile_from_spec"],
        "parallel.map_chunks.calls": calls["parallel.map_chunks"],
        "parallel.map_chunks.chunks": sum(s[6] for s in spans if s[1] == "parallel.map_chunks"),
        "parallel.map_chunks.s": total["parallel.map_chunks"],
        "parallel.map_chunks.workers": pool_workers,
        "harness.entry.s": sum(s[3] - s[2] for s in entries),
        "harness.self_s": sum(self_s[name] for name in {s[1] for s in entries}),
        "config.load_config.s": total["config.load_config"],
    }
    return out


def pool_metrics(spans, pool_workers: int) -> dict[str, float]:
    """The pool layer of one traced run with MIXREG_THREADS > 1: time inside
    `map_chunks` on the parent side, chunks mapped, and pool workers."""
    maps = [s for s in spans if s[1] == "parallel.map_chunks"]
    return {
        "parallel.pool.map_chunks.s": sum(s[3] - s[2] for s in maps),
        "parallel.pool.chunks": sum(s[6] for s in maps),
        "parallel.pool.workers": pool_workers,
    }
