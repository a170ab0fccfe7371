"""Fast-path simulation engine.

Drives the coherence protocol with the pre-split, run-length-compacted
event streams of :mod:`repro.sim.events` instead of re-deriving block
splits and word indices per reference in Python.  Output is
bit-identical to :func:`repro.sim.coherence.simulate_trace` (enforced by
``tests/test_engine_equivalence.py``, ``tests/test_kernel.py`` and the
hypothesis property suites).

Two orthogonal selections of a :class:`~repro.config.RunConfig` compose
here: the ``engine`` — ``fast`` (default: vectorized precompute +
compaction) or ``reference`` (the original per-reference Python loop)
— and the protocol core ``kernel`` (modes in :mod:`repro.sim.kernel`).
The kernel only applies to the fast engine's block-invalidate mode;
``word_invalidate=True`` and the reference engine always run the Python
core.

Streaming
---------

:func:`simulate_event_chunks` consumes an *iterable* of event chunks
with carry-over protocol state, so a trace never has to be materialized
whole: peak memory is O(chunk).  :func:`simulate_trace_chunked` slices
an in-memory trace through the same path (the equivalence-testing
harness for the streaming boundary); the real producer-consumer
pipeline lives in :mod:`repro.runtime.stream`.

Everything above this module (``simulate_run``, the KSR2 timing model,
the experiment drivers) goes through :func:`repro.sim.simcache.cached_simulate`,
which memoizes results per (trace fingerprint, geometry, engine,
kernel, chunking) on top of this.
"""

from __future__ import annotations

import logging
import time as _time
from typing import Iterable, Iterator

from repro import perf
from repro.config import RunConfig
from repro.errors import SimulationError
from repro.obs import spans as obs
from repro.runtime.trace import Trace
from repro.sim.cache import CacheConfig
from repro.sim.coherence import CoherenceSim, SimResult
from repro.sim.kernel import (
    NATIVE,
    PYTHON,
    NativeSim,
    active_kernel,
    chunk_fits,
)
from repro.sim.events import EventChunker, EventStream, build_events

log = logging.getLogger("repro.sim.engine")

FAST = "fast"
REFERENCE = "reference"


# ---------------------------------------------------------------------------
# protocol cores
# ---------------------------------------------------------------------------


class _PythonCore:
    """The reference protocol core behind the chunk-consumer interface."""

    __slots__ = ("sim",)

    def __init__(self, nprocs: int, config: CacheConfig,
                 word_invalidate: bool):
        self.sim = CoherenceSim(nprocs, config, word_invalidate=word_invalidate)

    def consume(self, events: EventStream) -> None:
        step = self.sim._access_block
        for ev in zip(
            events.proc.tolist(),
            events.block.tolist(),
            events.w_lo.tolist(),
            events.w_hi.tolist(),
            events.is_write.tolist(),
            events.repeat.tolist(),
        ):
            step(*ev)

    def result(self, *, extra_refs: int, sim_seconds: float,
               engine: str) -> SimResult:
        res = self.sim.result(
            extra_refs=extra_refs, sim_seconds=sim_seconds, engine=engine
        )
        res.kernel = PYTHON
        return res


def resolve_kernel(
    *,
    word_invalidate: bool = False,
    events: EventStream | None = None,
    kernel: str | None = None,
    protocol: str = "msi",
) -> str:
    """Pick the protocol core for one simulation.

    ``kernel`` is the requested mode (``auto``/``native``/``python``).
    ``word_invalidate`` always runs on the Python core (a cold
    comparison path, out of the C kernel's scope).  The C kernel is
    MSI-only, and with the full event stream in hand its envelope is
    pre-checked: a non-MSI ``protocol`` or an ineligible stream falls
    back to Python under ``auto`` and raises under ``native``
    (silently simulating the wrong protocol would poison every
    downstream miss count).
    """
    if word_invalidate:
        return PYTHON
    mode = kernel or RunConfig.from_env().kernel
    if mode == NATIVE and protocol != "msi":
        raise SimulationError(
            f"the native kernel implements the MSI protocol only "
            f"(machine protocol is {protocol!r}) and kernel mode "
            f"native forbids the Python fallback"
        )
    resolved = active_kernel(mode)
    if resolved == NATIVE and protocol != "msi":
        log.info(
            "native kernel skipped: protocol %r needs the Python core "
            "(the C kernel is MSI-only)", protocol,
        )
        perf.add("kernel.protocol_fallback")
        return PYTHON
    if resolved == NATIVE and events is not None and not chunk_fits(
        events.proc, events.block
    ):
        if mode == NATIVE:
            raise SimulationError(
                "trace exceeds the native kernel envelope "
                "(procs in [-1, 62], blocks < 2**50) and "
                "kernel mode native forbids the Python fallback"
            )
        perf.add("kernel.envelope_fallback")
        return PYTHON
    return resolved


def _make_core(kernel: str, nprocs: int, config: CacheConfig,
               word_invalidate: bool):
    if kernel == NATIVE:
        return NativeSim(nprocs, config)
    return _PythonCore(nprocs, config, word_invalidate)


def _export_core_counters(res: SimResult) -> None:
    """Surface one simulation's protocol counters through
    :mod:`repro.perf`, tagged by the core that ran it.

    This is what makes native-kernel runs visible to spans and run
    manifests: the C kernel accumulates its statistics internally, so
    without this export a native run leaves no counter trail at all.
    """
    k = res.kernel
    perf.add(f"sim.{k}.runs")
    perf.add(f"sim.{k}.refs", res.refs)
    perf.add(f"sim.{k}.invalidations", res.invalidations)
    perf.add(f"sim.{k}.writebacks", res.writebacks)
    perf.add(f"sim.{k}.upgrades", res.upgrades)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def simulate_events(
    events: EventStream,
    nprocs: int,
    config: CacheConfig,
    *,
    word_invalidate: bool = False,
    extra_refs: int = 0,
    kernel: str | None = None,
) -> SimResult:
    """Run the coherence protocol over a precomputed event stream."""
    if word_invalidate and not events.word_granularity:
        raise ValueError(
            "word_invalidate simulation needs an event stream built with "
            "word_granularity=True (write compaction is unsafe there)"
        )
    t0 = _time.perf_counter()
    resolved = resolve_kernel(
        word_invalidate=word_invalidate, events=events, kernel=kernel,
        protocol=config.protocol,
    )
    with perf.timer(f"sim.kernel.{resolved}"):
        core = _make_core(resolved, nprocs, config, word_invalidate)
        core.consume(events)
        res = core.result(
            extra_refs=extra_refs,
            sim_seconds=_time.perf_counter() - t0,
            engine=FAST,
        )
    _export_core_counters(res)
    return res


def simulate_event_chunks(
    chunks: Iterable[EventStream],
    nprocs: int,
    config: CacheConfig,
    *,
    word_invalidate: bool = False,
    extra_refs: int = 0,
    kernel: str | None = None,
) -> SimResult:
    """Run the protocol over a *stream* of event chunks with carry-over
    cache/directory state.

    Bit-identical to :func:`simulate_events` over the concatenated
    stream; peak memory is O(largest chunk) instead of O(trace).  The
    kernel is resolved up front (a core cannot be swapped mid-stream);
    in ``auto`` mode a chunk that later escapes the native envelope
    raises rather than silently corrupting results.
    """
    t0 = _time.perf_counter()
    resolved = resolve_kernel(
        word_invalidate=word_invalidate, kernel=kernel,
        protocol=config.protocol,
    )
    n_chunks = 0
    n_events = 0
    with obs.span(
        "sim.stream", kernel=resolved, nprocs=nprocs,
        block_size=config.block_size,
    ) as sp:
        with perf.timer(f"sim.kernel.{resolved}"):
            core = _make_core(resolved, nprocs, config, word_invalidate)
            for events in chunks:
                if word_invalidate and not events.word_granularity:
                    raise ValueError(
                        "word_invalidate needs word_granularity event chunks"
                    )
                core.consume(events)
                n_chunks += 1
                n_events += len(events)
            res = core.result(
                extra_refs=extra_refs,
                sim_seconds=_time.perf_counter() - t0,
                engine=FAST,
            )
        perf.add("sim.stream_chunks", n_chunks)
        _export_core_counters(res)
        if sp is not None:
            sp.meta["chunks"] = n_chunks
            sp.meta["events"] = n_events
            sp.meta["invalidations"] = res.invalidations
            sp.meta["writebacks"] = res.writebacks
            sp.meta["upgrades"] = res.upgrades
    return res


def iter_trace_chunks(trace: Trace, chunk_refs: int) -> Iterator[tuple]:
    """Slice a materialized trace into column chunks of ``chunk_refs``
    references (testing/replay helper)."""
    n = len(trace)
    for start in range(0, n, chunk_refs):
        stop = min(start + chunk_refs, n)
        yield (
            trace.proc[start:stop],
            trace.addr[start:stop],
            trace.size[start:stop],
            trace.is_write[start:stop],
        )


def simulate_trace_chunked(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    chunk_refs: int,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    kernel: str | None = None,
) -> SimResult:
    """Simulate an in-memory trace through the streaming boundary:
    chunked event precompute (with compaction carry) feeding a
    carry-over protocol core.  Exists so the streaming path can be
    equivalence-tested against the monolithic one on identical input.
    """
    if chunk_refs <= 0:
        raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
    chunker = EventChunker(
        config.block_size, word_granularity=word_invalidate
    )

    def gen() -> Iterator[EventStream]:
        for cols in iter_trace_chunks(trace, chunk_refs):
            ev = chunker.feed(*cols)
            if len(ev):
                yield ev
        tail = chunker.flush()
        if len(tail):
            yield tail

    return simulate_event_chunks(
        gen(), nprocs, config,
        word_invalidate=word_invalidate, extra_refs=extra_refs,
        kernel=kernel,
    )


def simulate_trace_fast(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    events: EventStream | None = None,
    kernel: str | None = None,
) -> SimResult:
    """Fast-path equivalent of :func:`repro.sim.coherence.simulate_trace`.

    ``events`` lets block-size sweeps reuse a precomputed stream (see
    :mod:`repro.sim.simcache`); when omitted it is built here.
    """
    if events is None:
        events = build_events(
            trace, config.block_size, word_granularity=word_invalidate
        )
    return simulate_events(
        events, nprocs, config,
        word_invalidate=word_invalidate, extra_refs=extra_refs,
        kernel=kernel,
    )


def simulate(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    engine: str | None = None,
    kernel: str | None = None,
) -> SimResult:
    """Simulate ``trace`` with the selected engine (uncached)."""
    from repro.sim.coherence import simulate_trace

    engine = engine or RunConfig.from_env().engine
    if engine == REFERENCE:
        with perf.timer("sim.reference"):
            return simulate_trace(
                trace, nprocs, config,
                extra_refs=extra_refs, word_invalidate=word_invalidate,
            )
    with perf.timer("sim.fast"):
        return simulate_trace_fast(
            trace, nprocs, config,
            extra_refs=extra_refs, word_invalidate=word_invalidate,
            kernel=kernel,
        )
