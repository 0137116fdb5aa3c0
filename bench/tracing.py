"""Spans around bandlab's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of each layer module (and the
few methods listed in ``METHODS``) and puts the wrapper into every bandlab
namespace that holds the original, so ``from .x import f`` bindings are
traced too. ``Tracer.restore`` puts every original back. Spans are kept in
memory; ``layer_metrics`` turns one iteration's spans into the per-layer
metrics.

A span's parent is the innermost open span of its thread. Replica closures
run on the ensemble's worker threads, so a span opened on an otherwise empty
worker stack gets the running ``run_ensemble`` span as its parent. Self time
is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "profiles", "lattice", "spectral", "deterministic",
          "montecarlo", "reporting")

# Methods traced next to each module's public functions.
METHODS = {
    "profiles": {"VarianceProfile": ("assemble",)},
    "deterministic": {"KLoopCalculator": ("resolvent", "khat_tensor",
                                          "k_tensor")},
}

REPLICA = "montecarlo.replica"
ENSEMBLE = "montecarlo.run_ensemble"
_WRITERS = ("reporting.write_json", "reporting.write_csv",
            "reporting.write_plot_data")
_MARK = "__bench_original__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "error", "attrs")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = False
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def philox_words(rng) -> int:
    """64-bit Philox outputs consumed so far by ``rng``.

    After k draws the 256-bit counter is ceil(k/4) and the buffer position
    k - 4 (counter - 1), so 4 * counter + position differs from k by a
    constant and its change over a call is the number of words drawn.
    """
    state = rng.bit_generator.state
    counter = sum(int(v) << (64 * i)
                  for i, v in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def lu_flops(n: int) -> float:
    """Nominal real flops of a complex LU factorisation of an n x n matrix
    (8/3 n^3) plus its triangular solves against n right-hand sides (8 n^3).
    A computed count, not a measurement."""
    return (8.0 / 3.0 + 8.0) * float(n) ** 3


class Tracer:
    """Install span wrappers, collect spans, restore the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ensemble: Span | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._memory_started = False

    # ---- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._ensemble
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around a call into bandlab."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                token = before(span, args, kwargs) if before else None
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if after:
                result = after(span, token, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # ---- hooks: counts recorded at the layer boundary ---------------------

    def _hooks(self, name):
        if name == "montecarlo.sample_H":
            def before(span, args, kwargs):
                rng = kwargs.get("rng", args[1] if len(args) > 1 else None)
                return rng, philox_words(rng)

            def after(span, token, args, kwargs, result):
                rng, start = token
                span.attrs["draws"] = philox_words(rng) - start
                return result
            return before, after
        if name == "deterministic.theta_entrywise":
            def before(span, args, kwargs):
                span.attrs["n"] = int(np.shape(kwargs.get("S", args[0]))[0])
            return before, None
        if name in _WRITERS:
            def after(span, token, args, kwargs, result):
                path = args[0]
                size = os.path.getsize(path)
                if name.endswith("write_plot_data"):
                    title = kwargs.get("script_title",
                                       args[3] if len(args) > 3 else None)
                    if title is not None:
                        size += os.path.getsize(
                            os.path.splitext(path)[0] + ".gp")
                span.attrs["bytes"] = size
                return result
            return None, after
        if name.endswith("_replica_fn"):
            def after(span, token, args, kwargs, result):
                fn, reducers = result
                return self.wrap(REPLICA, fn), reducers
            return None, after
        if name == ENSEMBLE:
            def before(span, args, kwargs):
                config = kwargs.get("config", args[0])
                span.attrs["parallelism"] = int(config.parallelism)
                span.attrs["replicas"] = int(config.replicas)
                self._ensemble = span
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    self._memory_started = True
                tracemalloc.reset_peak()

            def after(span, token, args, kwargs, result):
                self._ensemble = None
                _, span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()
                self._stop_memory()
                return result
            return before, after
        return None, None

    # ---- install / restore -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = bandlab_modules()
        wrappers = {}
        try:
            for layer in LAYERS:
                mod = sys.modules[f"bandlab.{layer}"]
                for attr in getattr(mod, "__all__", ()):
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and \
                            fn.__module__ == mod.__name__:
                        wrappers[id(fn)] = (fn,
                                            self.wrap(f"{layer}.{attr}", fn))
                for cls_name, methods in METHODS.get(layer, {}).items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        fn = cls.__dict__[meth]
                        self._patch(cls, meth, fn,
                                    self.wrap(f"{layer}.{meth}", fn))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    entry = wrappers.get(id(val))
                    if entry is not None and entry[0] is val:
                        self._patch(mod, attr, val, entry[1])
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._ensemble = None
        self._stop_memory()

    def _stop_memory(self) -> None:
        if self._memory_started:
            tracemalloc.stop()
            self._memory_started = False


def write_spans(path, passes) -> None:
    """Write the spans of each traced pass as JSON lines. ``parent`` is the
    index of the parent span within the same pass, or null."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            index = {id(s): i for i, s in enumerate(spans)}
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": number, "index": i, "name": s.name,
                    "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "thread": s.thread,
                    "error": s.error, "attrs": s.attrs}) + "\n")


def bandlab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bandlab"
                                  or name.startswith("bandlab."))]


def leftover_wrappers() -> list[str]:
    """Names in bandlab namespaces (modules and their classes) that still
    hold a tracing wrapper; empty after ``restore``."""
    found = []
    for mod in bandlab_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{k}"
                          for k, v in vars(val).items() if hasattr(v, _MARK)]
    return found


# ---- per-layer metrics -------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - _covered(children.get(id(s), ()),
                                         s.start, s.end)
            for s in spans}


def _outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name, so a
    recursive function's time is counted once."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p.name != name:
            p = p.parent
        if p is None:
            out.append(s)
    return out


# Per-layer metrics and units. Times are per iteration; counts repeat
# exactly from iteration to iteration.
INCLUSIVE = (
    "cli.parse_config", "cli.build_profile", "profiles.assemble",
    "profiles.validate", "profiles.interaction_strength",
    "profiles.mean_field_matrix", "lattice.project_matrix",
    "lattice.project_tensor", "deterministic.theta_entrywise",
    "deterministic.propagator_invariants", "deterministic.theta_decay_report",
    "deterministic.finite_difference_report", "deterministic.khat_tensor",
    "deterministic.ward_residual",
    "deterministic.kloop_flow_derivative_residual", "montecarlo.sample_H",
    "montecarlo.green", "montecarlo.ward_gate_residual",
    "montecarlo.eigen_stats", "montecarlo.diffusion_predictions", REPLICA,
)
CALLS = ("profiles.mean_field_matrix", "lattice.project_matrix",
         "deterministic.theta_entrywise", "montecarlo.sample_H")
PERCENTILES = ("montecarlo.sample_H", "montecarlo.green",
               "montecarlo.eigen_stats", REPLICA)


def layer_metric_units() -> dict:
    units = {f"{name}_s": "s" for name in INCLUSIVE}
    units.update({f"{name}.calls": "count" for name in CALLS})
    for name in PERCENTILES:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.p90_ms"] = "ms"
    units.update({
        "spectral.total_s": "s",
        "deterministic.lu_flops_computed": "flop",
        "montecarlo.rng_draws": "count",
        "montecarlo.replica_wait_s": "s",
        "montecarlo.worker_busy_share": "share",
        "montecarlo.merge_s": "s",
        "montecarlo.ensemble_peak_traced_mb": "MB",
        "montecarlo.replica_failures": "count",
        "reporting.write_s": "s",
        "reporting.bytes_written": "byte",
        "trace.spans": "count",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-iteration metrics, and the per-call durations (ms) behind the
    percentile metrics, from one iteration's spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {f"{name}_s": sum(s.duration for s in _outermost(spans, name))
           for name in INCLUSIVE}
    out.update({f"{name}.calls": len(by_name.get(name, ()))
                for name in CALLS})
    out["spectral.total_s"] = sum(
        s.duration for s in spans
        if s.name.startswith("spectral.") and not _has_layer_ancestor(s))
    out["deterministic.lu_flops_computed"] = sum(
        lu_flops(s.attrs["n"])
        for s in by_name.get("deterministic.theta_entrywise", ()))
    out["montecarlo.rng_draws"] = sum(
        s.attrs["draws"] for s in by_name.get("montecarlo.sample_H", ())
        if "draws" in s.attrs)

    replicas = by_name.get(REPLICA, [])
    wait = merge = busy = capacity = 0.0
    peak = 0
    for ens in by_name.get(ENSEMBLE, []):
        mine = [r for r in replicas if r.parent is ens]
        if mine:
            wait += sum(r.start - ens.start for r in mine)
            merge += ens.end - max(r.end for r in mine)
            busy += sum(r.duration for r in mine)
            capacity += ens.attrs["parallelism"] * ens.duration
        peak = max(peak, ens.attrs.get("peak_bytes", 0))
    out["montecarlo.replica_wait_s"] = wait
    out["montecarlo.merge_s"] = merge
    out["montecarlo.worker_busy_share"] = busy / capacity if capacity else 0.0
    out["montecarlo.ensemble_peak_traced_mb"] = peak / 2**20
    out["montecarlo.replica_failures"] = sum(r.error for r in replicas)

    writes = [s for w in _WRITERS for s in by_name.get(w, ())]
    out["reporting.write_s"] = sum(s.duration for s in writes)
    out["reporting.bytes_written"] = sum(s.attrs.get("bytes", 0)
                                         for s in writes)
    out["trace.spans"] = len(spans)

    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[id(s)] for s in spans
                                     if s.name.split(".")[0] == layer)
    calls_ms = {name: [1e3 * s.duration for s in by_name.get(name, ())]
                for name in PERCENTILES}
    return out, calls_ms


def _has_layer_ancestor(span) -> bool:
    layer = span.name.split(".")[0]
    p = span.parent
    while p is not None:
        if p.name.split(".")[0] == layer:
            return True
        p = p.parent
    return False


def percentile_metrics(calls_ms: dict) -> dict:
    out = {}
    for name, values in calls_ms.items():
        p50, p90 = (np.percentile(values, [50, 90]) if values
                    else (0.0, 0.0))
        out[f"{name}.p50_ms"] = float(p50)
        out[f"{name}.p90_ms"] = float(p90)
    return out
