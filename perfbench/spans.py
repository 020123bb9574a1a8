"""Thread-aware spans around the public functions of gbswitch.

``Tracer`` wraps the functions named in ``TARGETS`` from outside the
package: every gbswitch module attribute bound to one of them is replaced
by a wrapper for as long as the tracer is installed, so calls between
modules (``solvers`` calling ``tensor.evaluate``, ``cli`` calling
``solvers.exact_max``) are seen as well as calls from the benchmark.

Each span records its id, name, start, end, thread and parent. The parent
is the innermost open span of the calling context; the thread pool in
``experiments`` is swapped for one that copies that context into each
task, so a span on a worker thread points at the driver span that
submitted it. Spans stay in memory until ``summarize`` turns them into
per-layer numbers and ``write_spans`` writes them out.
"""

from __future__ import annotations

import contextvars
import csv
import gzip
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional

import numpy as np


def _exact_attrs(result):
    return (result.witness.dims.m, result.evaluations)


def _local_sweeps(result):
    # local_search counts 1 for the start plus n per axis per sweep
    dims = result.witness.dims
    return (result.evaluations - 1) // (dims.m * dims.n)


def _ascent_attrs(result):
    return (len(result.points), result.trace.converged)


_CONTRACTION_NAMES = {np.dtype(t): f"tensor.partial_contraction.{t}" for t in ("int64", "float64")}


def _contraction_name(result) -> str:
    return _CONTRACTION_NAMES.get(result.dtype) or f"tensor.partial_contraction.{result.dtype}"


class Target(NamedTuple):
    module: str
    function: str
    #: Per-call counters taken from the result; None when unused.
    attrs: Optional[Callable] = None
    #: Span name from the result, for targets split by outcome (dtype).
    name_of: Optional[Callable] = None


TARGETS = (
    Target("tensor", "partial_contraction", name_of=_contraction_name),
    Target("tensor", "evaluate"),
    Target("tensor", "evaluate_real"),
    Target("tensor", "make_tensor"),
    Target("tensor", "make_assignment"),
    Target("tensor", "random_tensor"),
    Target("solvers", "exact_max", attrs=_exact_attrs),
    Target("solvers", "random_restart_greedy", attrs=lambda result: result.evaluations),
    Target("solvers", "majority_fix"),
    Target("solvers", "local_search", attrs=_local_sweeps),
    Target("lp", "alternating_max", attrs=_ascent_attrs),
    Target("experiments", "sharpness_experiment"),
    Target("experiments", "sample_min_norm"),
    Target("cli", "run"),
    Target("cli", "render"),
    Target("rng", "generator"),
    Target("bounds", "km_constant"),
    Target("bounds", "bh_asymptotic_constant"),
)

#: Layers whose ``calls`` and ``self_s`` are reported (``cli.render`` only self_s).
LAYERS = (
    "tensor.partial_contraction.float64",
    "tensor.partial_contraction.int64",
    "tensor.evaluate",
    "tensor.make_tensor",
    "tensor.make_assignment",
    "tensor.random_tensor",
    "tensor.evaluate_real",
    "solvers.exact_max",
    "solvers.random_restart_greedy",
    "solvers.majority_fix",
    "solvers.local_search",
    "lp.alternating_max",
    "experiments.sharpness_experiment",
    "experiments.sample_min_norm",
    "cli.run",
    "cli.render",
    "rng.generator",
    "bounds.km_constant",
    "bounds.bh_asymptotic_constant",
)

#: Spans that hand work to the ``experiments`` thread pool. ``parallel_ratio``
#: is the busy time of every thread under a top-level driver (its own thread
#: minus waits, plus each pool task's span minus its waits) over the
#: driver's wall time; a pool thread inside a span counts as busy while it
#: waits for the interpreter lock.
DRIVERS = ("experiments.sharpness_experiment", "experiments.sample_min_norm")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    attrs: object


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Installs span wrappers on gbswitch while used as a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, target: Target):
        # Spans are appended as plain tuples of numbers and strings: the
        # garbage collector stops tracking those, so a pass with hundreds
        # of thousands of spans does not slow every later collection.
        append, ids, current = self.spans.append, self._ids, self._current
        attrs_of, name_of = target.attrs, target.name_of
        clock, thread_id = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                current.reset(token)
                append((sid, name, start, end, thread_id(), parent, None))
                raise
            end = clock()
            current.reset(token)
            append((sid, name_of(result) if name_of else name, start, end, thread_id(), parent,
                    attrs_of(result) if attrs_of else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _bind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gbswitch" or mod_name.startswith("gbswitch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            module = importlib.import_module(f"gbswitch.{target.module}")
            original = getattr(module, target.function)
            name = f"{target.module}.{target.function}"
            self._bind(original, self._wrap(original, name, target))
        self._bind(ThreadPoolExecutor, _ContextExecutor)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_and_wait(span: Span, children: list[Span]) -> tuple[float, float]:
    """Self time and wait time of ``span`` given its direct children.

    Children on the span's own thread run inside it one after another, so
    their durations add up. Children on other threads (pool tasks) count
    as waiting for the part of the span they cover that no same-thread
    child already covers.
    """
    duration = span.end - span.start
    same = [(c.start, c.end) for c in children if c.thread == span.thread]
    same_time = sum(hi - lo for lo, hi in same)
    wait = 0.0
    if len(same) < len(children):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children
            if c.thread != span.thread and c.end > span.start and c.start < span.end
        ]
        wait = _covered(clipped + same) - same_time
    return duration - same_time - wait, wait


def summarize(records: list[tuple]) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass; None marks a layer not reached."""
    spans = [Span._make(r) for r in records]
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s.id] = s
        if s.parent is not None:
            children[s.parent].append(s)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    wait_s: dict[str, float] = defaultdict(float)
    busy = 0.0  # time threads spent working inside experiments drivers
    driver_wall = 0.0
    assignments = defaultdict(int)
    exact_time = defaultdict(float)
    restarts = local_sweeps = ascent_sweeps = converged = 0
    ascent_time = 0.0
    for s in spans:
        own, wait = _self_and_wait(s, children.get(s.id, ()))
        calls[s.name] += 1
        self_s[s.name] += own
        wait_s[s.name] += wait
        parent = by_id.get(s.parent)
        if s.name in DRIVERS and (parent is None or parent.name not in DRIVERS):
            driver_wall += s.end - s.start
            busy += s.end - s.start - wait
        elif parent is not None and parent.thread != s.thread:
            busy += s.end - s.start - wait
        if s.attrs is None:
            continue
        if s.name == "solvers.exact_max":
            m, evaluations = s.attrs
            kind = "m2" if m == 2 else "m3plus"
            assignments[kind] += evaluations
            exact_time[kind] += s.end - s.start
        elif s.name == "solvers.random_restart_greedy":
            restarts += s.attrs
        elif s.name == "solvers.local_search":
            local_sweeps += s.attrs
        elif s.name == "lp.alternating_max":
            m, did_converge = s.attrs
            contractions = sum(
                1 for c in children.get(s.id, ()) if c.name == "tensor.partial_contraction.float64"
            )
            ascent_sweeps += contractions // m
            ascent_time += s.end - s.start
            converged += bool(did_converge)

    out: dict[str, Optional[float]] = {}

    def put(name: str, value, reached: bool) -> None:
        out[name] = value if reached else None

    for layer in LAYERS:
        reached = calls[layer] > 0
        if layer != "cli.render":
            put(f"{layer}.calls", calls[layer], reached)
        put(f"{layer}.self_s", self_s[layer], reached)
    for layer in DRIVERS:
        put(f"{layer}.wait_s", wait_s[layer], calls[layer] > 0)
    put("experiments.parallel_ratio", busy / driver_wall if driver_wall else 0.0, driver_wall > 0)
    exact_calls = calls["solvers.exact_max"]
    put("solvers.exact_max.assignments", sum(assignments.values()), exact_calls > 0)
    for kind in ("m2", "m3plus"):
        rate = assignments[kind] / exact_time[kind] if exact_time[kind] else 0.0
        put(f"solvers.exact_max.{kind}.assignments_per_s", rate, assignments[kind] > 0)
    put("solvers.random_restart_greedy.restarts", restarts, calls["solvers.random_restart_greedy"] > 0)
    put("solvers.local_search.sweeps", local_sweeps, calls["solvers.local_search"] > 0)
    ascent_calls = calls["lp.alternating_max"]
    put("lp.alternating_max.sweeps", ascent_sweeps, ascent_calls > 0)
    put("lp.alternating_max.sweep_ms", 1000.0 * ascent_time / ascent_sweeps if ascent_sweeps else 0.0,
        ascent_sweeps > 0)
    put("lp.alternating_max.converged_ratio", converged / ascent_calls if ascent_calls else 0.0, ascent_calls > 0)
    return out


def median_metrics(passes: list[dict[str, Optional[float]]]) -> dict[str, Optional[float]]:
    """Per-metric median over traced passes; a metric absent in any pass stays absent."""
    merged = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        merged[name] = None if any(v is None for v in values) else statistics.median(values)
    return merged


def write_spans(path, records: list[tuple]) -> None:
    """Write spans as gzipped CSV, one row per span, times relative to the first start."""
    spans = [Span._make(r) for r in records]
    origin = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "name", "start_s", "end_s", "thread", "parent"))
        for s in sorted(spans, key=lambda s: s.id):
            writer.writerow((s.id, s.name, f"{s.start - origin:.9f}", f"{s.end - origin:.9f}", s.thread,
                             "" if s.parent is None else s.parent))
