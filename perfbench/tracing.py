"""Per-layer self time for traced benchmark runs.

A :class:`Tracer` installs wrappers around the public entry points of
each layer of ``repro`` (see :data:`LAYER_ENTRY_POINTS`).  Every call
through a wrapper records a span — layer name, start, end, parent — in
memory.  Start and end are the thread's CPU clock, so the advisor's two
worker threads, which take turns under the interpreter lock, are not
counted twice.  A span's *self time* is its duration minus the time its
direct child spans cover; the harness opens a ``job`` span around every job,
so time inside a job that no layer span covers is the ``job`` span's
self time and is reported as ``unattributed``.

Wrappers replace the entry point on its defining module and on every
``repro`` module that imported it by name, and are removed again by
:meth:`Tracer.uninstall`: an untraced round runs the program's own
functions, untouched.

Spans nest per thread (the advisor's job service runs jobs on two
executor threads).  ``repro.perf`` counters are process-global, so the
counters a layer reports are read at round boundaries, where their
totals are exact even with two workers.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

#: layer -> public entry points, as (module, attribute) pairs; an
#: attribute ``Class.method`` wraps a method on the class.
LAYER_ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "lang": (("repro.lang", "compile_source"),),
    "analysis": (("repro.analysis", "analyze_program"),),
    "transform": (("repro.transform", "decide_transformations"),),
    "interp": (("repro.runtime.interpreter", "Interpreter.run"),),
    "store": (
        ("repro.runtime.trace_cache", "load_run"),
        ("repro.runtime.trace_cache", "store_run"),
    ),
    "events": (("repro.sim.events", "build_events"),),
    "kernel": (
        ("repro.sim.engine", "simulate_events"),
        ("repro.sim.coherence", "simulate_trace"),
    ),
    "memo": (("repro.sim.simcache", "cached_simulate"),),
    "dynamic": (("repro.dynamic.engine", "mitigate"),),
    "oracle": (("repro.verify.oracle", "check_program"),),
    "tune": (("repro.tune.report", "tune_source"),),
    "service": (("repro.service.executor", "execute_job"),),
    "attribution": (("repro.obs.attribution", "fs_table"),),
    "machine": (
        ("repro.machine.ksr2", "time_run"),
        ("repro.machine.ksr2", "execution_time"),
    ),
}

LAYERS = tuple(LAYER_ENTRY_POINTS)

#: the harness's own span around one job (its self time is unattributed)
JOB = "job"


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    parent: Optional[int]
    thread: int
    end: float = 0.0
    #: time covered by direct children
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


@dataclass(slots=True)
class LayerWork:
    """Work counts measured inside the wrappers (per layer)."""

    interp_refs: int = 0
    events_refs_in: int = 0
    events_out: int = 0
    kernel_events: dict[str, int] = field(default_factory=dict)
    kernel_seconds: dict[str, float] = field(default_factory=dict)
    repairs: int = 0
    plan_checks: int = 0
    plans_ok: int = 0
    tune_evaluations: int = 0
    tune_dedup_hits: int = 0
    store_bytes_read: int = 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.work = LayerWork()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.recording = False

    # -- spans ------------------------------------------------------------------

    @contextmanager
    def span(self, layer: str):
        if not self.recording:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sp = Span(
            layer=layer,
            start=time.thread_time(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.thread_time()
            stack.pop()
            if sp.parent is not None:
                self.spans[sp.parent].child_s += sp.end - sp.start

    def self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in (*LAYERS, JOB)}
        for sp in self.spans:
            out[sp.layer] += sp.self_s
        return out

    def calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in (*LAYERS, JOB)}
        for sp in self.spans:
            out[sp.layer] += 1
        return out

    def root_seconds(self) -> float:
        """Busy time: the summed duration of all root spans."""
        return sum(sp.end - sp.start for sp in self.spans if sp.parent is None)

    def to_records(self) -> list[dict]:
        return [
            {
                "id": i, "layer": sp.layer, "start": sp.start, "end": sp.end,
                "parent": sp.parent, "thread": sp.thread,
            }
            for i, sp in enumerate(self.spans)
        ]

    # -- wrappers ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
        for layer, points in LAYER_ENTRY_POINTS.items():
            for module_name, attr in points:
                module = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original, _AFTER.get(layer))
                self._patch(owner, name, original, wrapper)
                if owner is module:
                    for other in list(sys.modules.values()):
                        if (
                            other is not None
                            and other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, name, None) is original
                        ):
                            self._patch(other, name, original, wrapper)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, fn: Callable, after) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(layer) as sp:
                result = fn(*args, **kwargs)
                if after is not None and sp is not None:
                    after(tracer, sp, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper


# -- work counted at the wrappers ----------------------------------------------


def _after_interp(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    with tracer._lock:
        tracer.work.interp_refs += len(result.trace)


def _after_events(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    trace = args[0] if args else kwargs["trace"]
    with tracer._lock:
        tracer.work.events_refs_in += len(trace)
        tracer.work.events_out += len(result)


def _after_kernel(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    # simulate_events(events, ...) or simulate_trace(trace, ...): the
    # first argument's length is the number of protocol steps fed in
    n = len(args[0] if args else next(iter(kwargs.values())))
    core = result.kernel
    dt = time.thread_time() - sp.start
    with tracer._lock:
        w = tracer.work
        w.kernel_events[core] = w.kernel_events.get(core, 0) + n
        w.kernel_seconds[core] = w.kernel_seconds.get(core, 0.0) + dt


def _after_store(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    # load_run returns the RunResult (or None on a miss); the bytes read
    # are the size of the stored payload
    if result is None or not hasattr(result, "trace"):
        return
    from repro.runtime import trace_cache

    key = args[0] if args else kwargs.get("key")
    path = trace_cache.entry_path(key) if key is not None else None
    if path is not None and path.exists():
        with tracer._lock:
            tracer.work.store_bytes_read += path.stat().st_size


def _after_dynamic(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    with tracer._lock:
        tracer.work.repairs += len(result.repairs)


def _after_oracle(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    verdicts, _run = result
    with tracer._lock:
        tracer.work.plan_checks += len(verdicts)
        tracer.work.plans_ok += sum(1 for v in verdicts if v.ok)


def _after_tune(tracer: Tracer, sp: Span, args, kwargs, result) -> None:
    with tracer._lock:
        tracer.work.tune_evaluations += result.outcome.evaluations
        tracer.work.tune_dedup_hits += result.outcome.dedup_hits


_AFTER = {
    "interp": _after_interp,
    "events": _after_events,
    "kernel": _after_kernel,
    "store": _after_store,
    "dynamic": _after_dynamic,
    "oracle": _after_oracle,
    "tune": _after_tune,
}
