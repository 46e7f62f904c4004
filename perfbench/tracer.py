"""Outside-in tracing of `pdlab`: spans around every public function and
method, installed by rebinding, and the per-layer metrics derived from them.

`Tracer.install()` wraps each public function of each `pdlab` module and
each public method of each class the package defines.  Every module-level
alias of a function is rebound (`pdlab.experiments.apply_auto`,
`pdlab.cli.apply_auto`, ...), and methods are set on their classes
(`ChingSymbol.separable_terms`, the `table` overrides).  The program's
source is not touched.

A span is (id, name, start, end, parent id, thread ident, extra).  Work
that `pmap` hands to pool threads is parented to the `pmap` span that
submitted it, so nesting and self time are exact across threads.  Spans
stay in memory; the worker writes them out when the pass ends.

With tracemalloc running, each span also records its memory peak: the
highest traced allocation (process-wide, all threads) above the level at
span entry.

`layer_metrics` (standard library only) turns spans into the metrics named
in `PER_LAYER`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# (metric name, unit); the names are fixed, later changes cite them
PER_LAYER = (
    ("symbols.ChingSymbol.separable_terms.calls", "count"),
    ("symbols.ChingSymbol.separable_terms.busy_s", "s"),
    ("frame.smoothstep.calls", "count"),
    ("frame.smoothstep.busy_s", "s"),
    ("operators.apply_auto.calls", "count"),
    ("operators.apply_auto.busy_s", "s"),
    ("operators.apply_auto.fft_x", "roundtrips"),
    ("grid.fft_inverse.calls", "count"),
    ("grid.fft_forward.calls", "count"),
    ("grid.fft.busy_s", "s"),
    ("spaces.space_norm.calls", "count"),
    ("spaces.space_norm.busy_s", "s"),
    ("frame.lattice_blocks.busy_s", "s"),
    ("operators.paradiff_split.busy_s", "s"),
    ("operators.paradiff_split.peak_mb", "MiB"),
    ("symbols.symbol_partial_ft.busy_s", "s"),
    ("symbols.symbol_partial_ft.peak_mb", "MiB"),
    ("symbols.table.max_mb", "MiB"),
    ("operators.corona_ball_report.busy_s", "s"),
    ("pointwise.peetre_maximal.calls", "count"),
    ("pointwise.peetre_maximal.busy_s", "s"),
    ("pointwise.peetre_maximal.peak_mb", "MiB"),
    ("pointwise.symbol_factor.calls", "count"),
    ("pointwise.symbol_factor.busy_s", "s"),
    ("pointwise.symbol_factor.peak_mb", "MiB"),
    ("threads.pmap.calls", "count"),
    ("threads.pmap.nested_calls", "count"),
    ("threads.pmap.max_live_threads", "count"),
    ("operators.apply.calls", "count"),
    ("operators.apply.busy_s", "s"),
    ("experiments.run_counterexample.busy_s", "s"),
    ("experiments.run_wavefront.busy_s", "s"),
    ("experiments.run_continuity_table.busy_s", "s"),
    ("experiments.run_sigma_estimate.busy_s", "s"),
    ("reporting.write.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# metric layer -> predicate on span names; a layer may gather several spans
_LAYERS = {
    "frame.lattice_blocks": lambda s: s == "frame.LPFrame.lattice_blocks",
    "grid.fft": lambda s: s in ("grid.fft_forward", "grid.fft_inverse"),
    "symbols.table": lambda s: s.startswith("symbols.") and s.endswith(".table"),
    "threads.pmap": lambda s: s == "_threads.pmap",
    "reporting.write": lambda s: s.startswith("reporting.write"),
}

PMAP = "_threads.pmap"
APPLY_AUTO = "operators.apply_auto"  # its spans record the call's grid, for fft_x


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.originals: dict = {}
        self.max_live_threads = threading.active_count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._open: dict = {}  # span id -> [traced bytes at entry, peak seen]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import pdlab

        modules = [pdlab] + [
            importlib.import_module(f"pdlab.{info.name}")
            for info in pkgutil.iter_modules(pdlab.__path__)
        ]
        wrapped: dict = {}
        for mod in modules[1:]:
            short = mod.__name__.removeprefix("pdlab.")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            self.originals[name] = fn
                            setattr(obj, meth, self._wrap(name, fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for fn, wrapper in wrapped.items():
            self.originals[wrapper.span_name] = fn

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_threads(self) -> None:
        live = threading.active_count()
        if live > self.max_live_threads:
            self.max_live_threads = live

    def _wrap(self, name: str, fn):
        tracer = self
        is_pmap = name == PMAP
        wants_grid = name == APPLY_AUTO
        is_table = name.startswith("symbols.") and name.endswith(".table")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            extra = None
            if is_pmap:
                tracer._note_threads()
                args = (tracer._carry(sid, args[0]),) + args[1:]
            if wants_grid and len(args) > 1:
                spec = getattr(args[1], "spec", None)
                if spec is not None:
                    extra = {"grid": f"{spec.n}x{spec.N}"}
            if tracer.memory:
                tracer._mem_enter(sid)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if tracer.memory:
                    extra = dict(extra or {}, peak=tracer._mem_exit(sid))
                record = [sid, name, t0, t1, parent, threading.get_ident(), extra]
                tracer.spans.append(record)
            if is_table:
                record[6] = dict(extra or {}, nbytes=int(getattr(result, "nbytes", 0)))
            return result

        traced.span_name = name
        return traced

    def _carry(self, sid: int, fn):
        """Run each pmap item with the pmap span as its parent, also on pool
        threads (whose own span stacks are empty)."""
        tracer = self

        def item(x):
            stack = tracer._stack()
            if stack and stack[-1] == sid:  # pmap ran the item inline
                return fn(x)
            tracer._note_threads()
            saved = stack[:]
            stack[:] = [sid]
            try:
                return fn(x)
            finally:
                stack[:] = saved

        return item

    def _mem_enter(self, sid: int) -> None:
        with self._mem_lock:
            current, peak = tracemalloc.get_traced_memory()
            for rec in self._open.values():
                rec[1] = max(rec[1], peak)
            tracemalloc.reset_peak()
            self._open[sid] = [current, current]

    def _mem_exit(self, sid: int) -> int:
        with self._mem_lock:
            _, peak = tracemalloc.get_traced_memory()
            start, seen = self._open.pop(sid)
            return max(seen, peak) - start


# -- derivation (standard library only) -----------------------------------


def _layer_of(span_name: str) -> list:
    """Metric layers a span counts toward: its own name, plus any group."""
    out = [span_name]
    out.extend(layer for layer, match in _LAYERS.items() if match(span_name))
    return out


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(
    spans, roundtrip_s: dict, max_live_threads: int, memory_spans=None, overhead_s=0.0
) -> tuple:
    """Per-layer metrics from a timing pass (and a tracemalloc pass).

    fft_x is apply_auto's span time over the round trips of the calls'
    grids: the average cost of one whole call in FFT round trips on its
    grid, the ROADMAP yardstick.  It uses span time, not self time,
    because apply_auto's own body only dispatches to the traced paths.
    Returns (metrics {name: value}, apply_auto breakdown by grid).
    """
    self_s = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    for sid, name, *_ in spans:
        for layer in _layer_of(name):
            calls[layer] += 1
            busy[layer] += self_s[sid]

    by_id = {s[0]: s for s in spans}
    nested = 0
    for sid, name, _, _, parent, _, _ in spans:
        if name != PMAP:
            continue
        while parent is not None:
            if by_id[parent][1] == PMAP:
                nested += 1
                break
            parent = by_id[parent][4]

    table_max = max(
        (s[6]["nbytes"] for s in spans if s[6] and "nbytes" in s[6]), default=0
    )

    by_grid: dict = {}
    for sid, name, t0, t1, _, _, extra in spans:
        if name == APPLY_AUTO and extra and "grid" in extra:
            g = by_grid.setdefault(extra["grid"], {"calls": 0, "self_s": 0.0, "span_s": 0.0})
            g["calls"] += 1
            g["self_s"] += self_s[sid]
            g["span_s"] += t1 - t0
    rt_total = 0.0
    for grid, g in by_grid.items():
        rt = roundtrip_s[grid]
        g["roundtrip_s"] = rt
        g["fft_x_self"] = g["self_s"] / (g["calls"] * rt)
        g["fft_x_span"] = g["span_s"] / (g["calls"] * rt)
        rt_total += g["calls"] * rt
    fft_x = sum(g["span_s"] for g in by_grid.values()) / rt_total if rt_total else 0.0

    peaks = defaultdict(int)
    for _, name, _, _, _, _, extra in memory_spans or ():
        if extra and "peak" in extra:
            for layer in _layer_of(name):
                peaks[layer] = max(peaks[layer], extra["peak"])

    metrics = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric == "trace.overhead_s":
            value = overhead_s
        elif stat == "calls":
            value = calls[layer]
        elif stat == "busy_s":
            value = busy[layer]
        elif stat == "fft_x":
            value = fft_x
        elif stat == "peak_mb":
            value = peaks[layer] / MIB
        elif stat == "max_mb":
            value = table_max / MIB
        elif stat == "nested_calls":
            value = nested
        elif stat == "max_live_threads":
            value = max_live_threads
        else:
            raise KeyError(metric)
        metrics[metric] = value
    return metrics, by_grid
