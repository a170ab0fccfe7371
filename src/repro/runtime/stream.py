"""Streaming interpreter→simulator boundary.

The batch pipeline materializes a whole-program trace
(:class:`~repro.runtime.trace.TraceBuffer` → frozen
:class:`~repro.runtime.trace.Trace` → ``.npz``), which caps workload
scale at whatever fits in memory (~24 bytes/reference × every
reference).  This module replaces that boundary with a producer-consumer
pipeline of **fixed-size trace chunks through a bounded queue**:

* the interpreter runs in a worker thread, appending into a
  :class:`ChunkSink` that freezes and emits a chunk every
  ``chunk_refs`` references;
* chunks flow through a ``queue.Queue(maxsize=queue_chunks)`` — the
  interpreter blocks when the simulator falls behind, bounding peak
  memory at O(``chunk_refs`` × ``queue_chunks``) regardless of trace
  length;
* the consumer feeds each chunk through the compaction-carrying
  :class:`~repro.sim.events.EventChunker` into a protocol core with
  carry-over state (:func:`repro.sim.engine.simulate_event_chunks`).

Results are bit-identical to the batch path (property-tested in
``tests/test_stream.py``): the chunker re-slices — never re-orders or
re-folds — the event stream, and the cores are streaming by
construction.

Environment knobs: ``REPRO_TRACE_CHUNK`` (references per chunk, default
262144) and ``REPRO_TRACE_QUEUE`` (chunks in flight, default 4).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro import perf
from repro.obs import spans as obs
from repro.runtime.trace import RunResult, Trace, TraceBuffer

CHUNK_ENV = "REPRO_TRACE_CHUNK"
QUEUE_ENV = "REPRO_TRACE_QUEUE"

DEFAULT_CHUNK_REFS = 262_144
DEFAULT_QUEUE_CHUNKS = 4

#: Queue sentinel marking the end of the chunk stream.
_DONE = object()


@dataclass(slots=True)
class StreamStats:
    """Per-run counters of one streamed interpretation.

    These are what a chunked run *cannot* reconstruct after the fact —
    how the producer-consumer boundary behaved — and what manifest
    schema 2 records under ``"stream"``: how many chunks crossed the
    queue, the deepest the queue ever got, and how long the interpreter
    thread sat blocked because the simulator fell behind.
    """

    #: chunks the interpreter side emitted into the queue
    chunks_produced: int = 0
    #: chunks the simulator side drained from the queue
    chunks_consumed: int = 0
    #: references carried by the produced chunks
    refs: int = 0
    #: deepest queue occupancy observed right after a put
    queue_high_water: int = 0
    #: seconds the producer spent blocked in ``queue.put``
    stall_seconds: float = 0.0
    #: references per chunk the stream was configured with
    chunk_refs: int = 0

    def to_dict(self) -> dict:
        """The JSON form stored in manifest schema-2 records."""
        return {
            "chunks_produced": self.chunks_produced,
            "chunks_consumed": self.chunks_consumed,
            "refs": self.refs,
            "queue_high_water": self.queue_high_water,
            "stall_seconds": round(self.stall_seconds, 6),
            "chunk_refs": self.chunk_refs,
        }


def default_chunk_refs() -> int:
    try:
        n = int(os.environ.get(CHUNK_ENV, DEFAULT_CHUNK_REFS))
    except ValueError:
        return DEFAULT_CHUNK_REFS
    return n if n > 0 else DEFAULT_CHUNK_REFS


def default_queue_chunks() -> int:
    try:
        n = int(os.environ.get(QUEUE_ENV, DEFAULT_QUEUE_CHUNKS))
    except ValueError:
        return DEFAULT_QUEUE_CHUNKS
    return n if n > 0 else DEFAULT_QUEUE_CHUNKS


class ChunkSink:
    """Drop-in for :class:`~repro.runtime.trace.TraceBuffer` that emits
    frozen :class:`~repro.runtime.trace.Trace` chunks instead of
    accumulating the whole trace.

    ``emit`` is called with each full chunk (and the tail at
    :meth:`freeze` time); the sink then starts a fresh buffer, so it
    never holds more than one chunk.  ``freeze`` returns an **empty**
    trace — a streamed :class:`~repro.runtime.trace.RunResult` carries
    its counters but not the reference stream.
    """

    __slots__ = ("_buf", "_chunk_refs", "_emit", "total_refs", "chunks")

    def __init__(self, emit: Callable[[Trace], None],
                 chunk_refs: int = DEFAULT_CHUNK_REFS):
        if chunk_refs <= 0:
            raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
        self._buf = TraceBuffer()
        self._chunk_refs = chunk_refs
        self._emit = emit
        self.total_refs = 0
        self.chunks = 0

    def append(self, proc: int, addr: int, size: int, is_write: bool) -> None:
        self._buf.append(proc, addr, size, is_write)
        if len(self._buf) >= self._chunk_refs:
            self.flush()

    def __len__(self) -> int:
        return self.total_refs + len(self._buf)

    def column_appends(self) -> tuple:
        """Column appends into the current chunk (see
        :meth:`TraceBuffer.column_appends`); the write-flag append, which
        completes a reference, flushes a full chunk exactly as
        :meth:`append` does."""
        procs, addrs, sizes, writes = self._buf.column_appends()

        def write(flag: int) -> None:
            writes(flag)
            if len(self._buf) >= self._chunk_refs:
                self.flush()

        return procs, addrs, sizes, write

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def flush(self) -> None:
        if len(self._buf) == 0:
            return
        chunk = self._buf.freeze()
        self._buf.clear()
        self.total_refs += len(chunk)
        self.chunks += 1
        self._emit(chunk)

    def freeze(self) -> Trace:
        """Flush the tail; the returned trace is an empty placeholder
        (streamed runs do not materialize their reference stream)."""
        self.flush()
        return TraceBuffer().freeze()


class TraceStream:
    """One streamed interpretation: iterate to receive trace chunks in
    order while the interpreter runs in a worker thread.

    After the iterator is exhausted, :attr:`run` holds the
    :class:`~repro.runtime.trace.RunResult` (counters, output, heap
    segments — with an empty trace).  Interpreter errors re-raise in
    the consumer.  Iterate exactly once.
    """

    def __init__(
        self,
        checked,
        layout,
        nprocs: int,
        *,
        chunk_refs: Optional[int] = None,
        queue_chunks: Optional[int] = None,
        quantum: int = 4,
        max_steps: int = 200_000_000,
        sched=None,
    ):
        from repro.runtime.interpreter import Interpreter

        self.chunk_refs = chunk_refs or default_chunk_refs()
        self.queue_chunks = queue_chunks or default_queue_chunks()
        self.run: RunResult | None = None
        self.stats = StreamStats(chunk_refs=self.chunk_refs)
        self._error: BaseException | None = None
        self._q: queue.Queue = queue.Queue(maxsize=self.queue_chunks)
        self._sink = ChunkSink(self._emit, self.chunk_refs)
        self._interp = Interpreter(
            checked, layout, nprocs,
            quantum=quantum, max_steps=max_steps, trace_sink=self._sink,
            sched=sched,
        )
        self._thread = threading.Thread(
            target=self._produce, name="repro-interp-stream", daemon=True
        )
        self._started = False
        #: absolute perf_counter bounds of the producer thread and the
        #: consumer loop (for the stream.produce/stream.consume spans)
        self.produce_t0 = 0.0
        self.produce_t1 = 0.0
        #: spans the producer thread recorded (``interp.run`` and below)
        self.produce_spans: list = []
        self.consume_t0 = 0.0
        self.consume_t1 = 0.0

    def _emit(self, chunk: Trace) -> None:
        """Queue one chunk, accounting for producer stall time (the
        interpreter blocks here whenever the simulator falls behind)
        and the queue's high-water mark."""
        t0 = time.perf_counter()
        self._q.put(chunk)
        self.stats.stall_seconds += time.perf_counter() - t0
        depth = self._q.qsize()
        if depth > self.stats.queue_high_water:
            self.stats.queue_high_water = depth

    def _produce(self) -> None:
        self.produce_t0 = time.perf_counter()
        try:
            with obs.adopt_roots(self.produce_spans):
                self.run = self._interp.run()
        except BaseException as e:  # propagated by __iter__
            self._error = e
        finally:
            self.produce_t1 = time.perf_counter()
            self._q.put(_DONE)

    def __iter__(self) -> Iterator[Trace]:
        if self._started:
            raise RuntimeError("a TraceStream can only be iterated once")
        self._started = True
        self._thread.start()
        self.consume_t0 = time.perf_counter()
        while True:
            chunk = self._q.get()
            if chunk is _DONE:
                break
            self.stats.chunks_consumed += 1
            yield chunk
        self.consume_t1 = time.perf_counter()
        self._thread.join()
        if self._error is not None:
            raise self._error
        self.stats.chunks_produced = self._sink.chunks
        self.stats.refs = self._sink.total_refs
        perf.add("stream.chunks", self._sink.chunks)
        perf.add("stream.refs", self._sink.total_refs)
        perf.add("stream.stall_seconds", self.stats.stall_seconds)
        perf.peak("stream.queue_high_water", self.stats.queue_high_water)

    @property
    def chunks_emitted(self) -> int:
        return self._sink.chunks


def stream_events(
    chunks: Iterator[Trace],
    block_size: int,
    *,
    word_granularity: bool = False,
):
    """Adapt a stream of trace chunks into a stream of compacted event
    chunks via a carry-over :class:`~repro.sim.events.EventChunker`."""
    from repro.sim.events import EventChunker

    chunker = EventChunker(block_size, word_granularity=word_granularity)
    for chunk in chunks:
        ev = chunker.feed(chunk.proc, chunk.addr, chunk.size, chunk.is_write)
        if len(ev):
            yield ev
    tail = chunker.flush()
    if len(tail):
        yield tail


def stream_simulate(
    checked,
    layout,
    nprocs: int,
    config,
    *,
    word_invalidate: bool = False,
    kernel: Optional[str] = None,
    chunk_refs: Optional[int] = None,
    queue_chunks: Optional[int] = None,
    quantum: int = 4,
    max_steps: int = 200_000_000,
    sink: Optional[Callable[[Trace], None]] = None,
    sched=None,
):
    """Interpret and simulate a program **concurrently** with bounded
    memory: trace chunks stream from the interpreter thread through a
    bounded queue into the chunked event builder and a carry-over
    protocol core.

    ``sink`` (optional) additionally receives every trace chunk — the
    hook the sharded trace cache uses to persist the stream as it
    passes (see :class:`repro.runtime.trace_cache.ShardWriter`).

    Returns ``(SimResult, RunResult, StreamStats)``; the run result's
    trace is empty (the whole point), but its counters, output and heap
    segments are complete, and the sim result's ``extra_refs`` already
    includes the run's private references.  The stats record how the
    producer-consumer boundary behaved (chunk counts, queue high-water,
    producer stall time).
    """
    from repro.sim.engine import simulate_event_chunks

    stream = TraceStream(
        checked, layout, nprocs,
        chunk_refs=chunk_refs, queue_chunks=queue_chunks,
        quantum=quantum, max_steps=max_steps, sched=sched,
    )

    def tee(chunks: Iterator[Trace]) -> Iterator[Trace]:
        for chunk in chunks:
            if sink is not None:
                sink(chunk)
            yield chunk

    with obs.span(
        "sim.stream_run", nprocs=nprocs, block_size=config.block_size,
        chunk_refs=stream.chunk_refs, queue_chunks=stream.queue_chunks,
    ) as sp:
        res = simulate_event_chunks(
            stream_events(
                tee(iter(stream)), config.block_size,
                word_granularity=word_invalidate,
            ),
            nprocs, config,
            word_invalidate=word_invalidate, kernel=kernel,
        )
        run = stream.run
        assert run is not None  # the iterator was exhausted
        res.extra_refs = sum(run.private_refs.values())
        stats = stream.stats
        if sp is not None:
            sp.meta["chunks"] = stream.chunks_emitted
            sp.meta["refs"] = res.refs
            sp.meta["kernel"] = res.kernel
            # The producer thread and the consumer loop cannot wrap
            # themselves in context-managed spans (thread-local stacks,
            # lifetimes known only after join) — stitch them in as
            # concurrent children so the profile shows the overlap.
            produce = obs.manual_span(
                "stream.produce", stream.produce_t0, stream.produce_t1,
                chunks=stats.chunks_produced, refs=stats.refs,
                stall_seconds=round(stats.stall_seconds, 6),
                queue_high_water=stats.queue_high_water,
            )
            produce.children += stream.produce_spans
            sp.children.append(produce)
            sp.children.append(obs.manual_span(
                "stream.consume", stream.consume_t0, stream.consume_t1,
                chunks=stats.chunks_consumed, kernel=res.kernel,
            ))
    return res, run, stats
