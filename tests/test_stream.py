"""Streaming boundary: chunked simulation must be *bit-identical* to
monolithic, and peak memory must stay O(chunk) no matter how long the
trace is.

The load-bearing invariant is the :class:`~repro.sim.events.EventChunker`
carry: run-length compaction folds adjacent events, so a naive per-chunk
compaction would fold differently at chunk boundaries and shift
write-log timestamps.  The chunker holds back one event per chunk, so
the concatenated chunked emission is an exact re-slicing of the
monolithic compacted stream — verified directly, and end-to-end across
the chunk-size × block-size matrix the issue prescribes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.stream import ChunkSink, TraceStream, stream_events
from repro.runtime.trace import Trace, TraceBuffer
from repro.sim import CacheConfig, EventChunker, build_events
from repro.sim.engine import (
    simulate_event_chunks,
    simulate_trace_chunked,
    simulate_trace_fast,
)
from repro.sim.kernel import load_kernel

from test_engine_equivalence import make_trace
from test_kernel import assert_same_result

HAVE_NATIVE = load_kernel() is not None


def random_trace(n, seed, *, procs=4, span=512):
    """A trace with real sharing: hot blocks, straddles, migratory data."""
    rng = np.random.default_rng(seed)
    addr = rng.integers(0, span, n) * 4
    # overlay a hot shared region so invalidations/FS actually happen
    hot = rng.random(n) < 0.25
    addr[hot] = rng.integers(0, 16, hot.sum()) * 4
    return Trace(
        proc=rng.integers(-1, procs, n).astype(np.int32),
        addr=addr.astype(np.int64),
        size=rng.choice([1, 2, 4, 8, 12], n).astype(np.int32),
        is_write=(rng.random(n) < 0.4),
    )


# ---------------------------------------------------------------------------
# EventChunker: chunked emission == monolithic compaction
# ---------------------------------------------------------------------------


def concat_streams(streams):
    cols = ("proc", "block", "w_lo", "w_hi", "is_write", "repeat")
    return {
        c: np.concatenate([getattr(s, c) for s in streams] or [np.empty(0)])
        for c in cols
    }


@settings(max_examples=100, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=3),
            st.integers(min_value=0, max_value=255),
            st.sampled_from([1, 3, 4, 8, 12]),
            st.booleans(),
        ),
        min_size=1,
        max_size=150,
    ),
    chunk=st.sampled_from([1, 2, 7, 33]),
    block=st.sampled_from([8, 32]),
)
def test_chunker_reslices_monolithic_stream(events, chunk, block):
    trace = make_trace(events)
    mono = build_events(trace, block)
    chunker = EventChunker(block)
    emitted = []
    for start in range(0, len(trace), chunk):
        stop = min(start + chunk, len(trace))
        ev = chunker.feed(
            trace.proc[start:stop], trace.addr[start:stop],
            trace.size[start:stop], trace.is_write[start:stop],
        )
        if len(ev):
            emitted.append(ev)
    tail = chunker.flush()
    if len(tail):
        emitted.append(tail)
    got = concat_streams(emitted)
    for col in ("proc", "block", "w_lo", "w_hi", "is_write", "repeat"):
        np.testing.assert_array_equal(
            got[col], getattr(mono, col), err_msg=col
        )
    assert sum(s.n_refs for s in emitted) == mono.n_refs


# ---------------------------------------------------------------------------
# satellite 4: the chunk-size × block-size identity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block_size", [4, 64, 128])
@pytest.mark.parametrize("chunk_refs", [1, 7, 4096])
def test_chunked_simulation_identical(chunk_refs, block_size):
    """Chunked simulation with carry-over state reproduces the
    monolithic SimResult exactly — every miss class, per-proc split,
    and fs_pair_by_block entry — across pathological (1), odd (7) and
    larger-than-trace (4096) chunk sizes."""
    trace = random_trace(2500, seed=block_size)
    cfg = CacheConfig(size=16 * block_size, block_size=block_size, assoc=2)
    mono = simulate_trace_fast(trace, 4, cfg, extra_refs=17)
    chunked = simulate_trace_chunked(
        trace, 4, cfg, chunk_refs, extra_refs=17
    )
    assert_same_result(chunked, mono)
    assert chunked.extra_refs == mono.extra_refs == 17
    assert chunked.misses == mono.misses


@pytest.mark.parametrize("chunk_refs", [1, 7, 4096])
def test_chunked_simulation_identical_word_invalidate(chunk_refs):
    """The streaming boundary also preserves the word-granularity
    (Dubois) comparison path, which always runs the Python core."""
    trace = random_trace(800, seed=3)
    cfg = CacheConfig(size=512, block_size=64, assoc=2)
    mono = simulate_trace_fast(trace, 4, cfg, word_invalidate=True)
    chunked = simulate_trace_chunked(
        trace, 4, cfg, chunk_refs, word_invalidate=True
    )
    assert_same_result(chunked, mono)


def test_chunked_workload_identical(workload_run):
    from repro.workloads.registry import SIMULATION_WORKLOADS

    wl = SIMULATION_WORKLOADS[0]
    run = workload_run(wl)
    cfg = CacheConfig(size=32 * 1024, block_size=128, assoc=4)
    mono = simulate_trace_fast(run.trace, run.nprocs, cfg)
    chunked = simulate_trace_chunked(run.trace, run.nprocs, cfg, 1000)
    assert_same_result(chunked, mono)


# ---------------------------------------------------------------------------
# ChunkSink / TraceStream: the interpreter side of the boundary
# ---------------------------------------------------------------------------


def test_chunk_sink_reassembles_exactly():
    sink_chunks = []
    sink = ChunkSink(sink_chunks.append, chunk_refs=10)
    ref = TraceBuffer()
    rng = np.random.default_rng(5)
    for i in range(237):
        row = (int(rng.integers(0, 4)), int(rng.integers(0, 1024)) * 4,
               4, bool(rng.random() < 0.5))
        sink.append(*row)
        ref.append(*row)
    frozen = sink.freeze()
    assert len(frozen) == 0  # streamed runs carry no materialized trace
    assert sink.total_refs == 237 and sink.chunks == 24
    got = np.concatenate([c.addr for c in sink_chunks])
    np.testing.assert_array_equal(got, ref.freeze().addr)


def test_trace_stream_matches_batch_run(counter_checked):
    """Streaming interpretation emits the same trace (chunk-concatenated)
    and the same RunResult counters as the batch interpreter."""
    from repro.layout import DataLayout
    from repro.runtime import run_program

    layout = DataLayout(counter_checked, nprocs=4, block_size=64)
    batch = run_program(counter_checked, layout, 4)

    stream = TraceStream(counter_checked, layout, 4, chunk_refs=500)
    chunks = list(stream)
    run = stream.run
    assert run is not None and len(run.trace) == 0
    assert run.output == batch.output
    assert run.exit_value == batch.exit_value
    assert run.work == batch.work
    assert run.private_refs == batch.private_refs
    assert run.shared_refs == batch.shared_refs
    assert run.heap_segments == batch.heap_segments
    for col in ("proc", "addr", "size", "is_write"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(c, col) for c in chunks]),
            getattr(batch.trace, col), err_msg=col,
        )
    with pytest.raises(RuntimeError):
        iter(stream).__next__()  # iterate-once guard


def test_trace_stream_propagates_errors(counter_checked):
    from repro.layout import DataLayout

    layout = DataLayout(counter_checked, nprocs=4, block_size=64)
    stream = TraceStream(
        counter_checked, layout, 4, chunk_refs=100, max_steps=50
    )
    with pytest.raises(Exception, match="step"):
        list(stream)


def test_stream_simulate_matches_batch(counter_checked):
    from repro.layout import DataLayout
    from repro.runtime import run_program
    from repro.runtime.stream import stream_simulate
    from repro.sim import simulate_trace_fast as fast

    layout = DataLayout(counter_checked, nprocs=4, block_size=64)
    cfg = CacheConfig(size=32 * 1024, block_size=64, assoc=4)
    batch = run_program(counter_checked, layout, 4)
    expect = fast(
        batch.trace, 4, cfg,
        extra_refs=sum(batch.private_refs.values()),
    )
    seen = []
    res, run, stats = stream_simulate(
        counter_checked, layout, 4, cfg,
        chunk_refs=300, sink=seen.append,
    )
    assert_same_result(res, expect)
    assert res.extra_refs == expect.extra_refs
    assert run.output == batch.output
    assert sum(len(c) for c in seen) == len(batch.trace)  # tee saw it all
    assert stats.chunks_produced == stats.chunks_consumed == len(seen)
    assert stats.refs == len(batch.trace)
    assert stats.queue_high_water >= 1
    d = stats.to_dict()
    assert d["chunks_produced"] == stats.chunks_produced
    assert d["stall_seconds"] >= 0.0


def test_streamed_span_parity(monkeypatch):
    """The streamed path emits the same ``pipeline.execute`` span as the
    batch path (tagged ``streamed``), with ``stream.produce`` /
    ``stream.consume`` children covering the concurrent stages."""
    monkeypatch.setenv("REPRO_ARTIFACTS", "0")
    from repro.harness.pipeline import Pipeline
    from repro.obs import spans as obs

    from conftest import COUNTER_SRC

    obs.enable()
    obs.reset()
    try:
        pipe = Pipeline(COUNTER_SRC, block_size=64)
        res, vr = pipe.simulate_streamed(4, chunk_refs=300)

        def find(spans, name):
            for sp in spans:
                if sp.name == name:
                    return sp
                got = find(sp.children, name)
                if got is not None:
                    return got
            return None

        execute = find(obs.roots(), "pipeline.execute")
        assert execute is not None
        assert execute.meta["streamed"] is True
        assert execute.meta["from_cache"] is False
        run_sp = find([execute], "sim.stream_run")
        assert run_sp is not None
        produce = find([run_sp], "stream.produce")
        consume = find([run_sp], "stream.consume")
        assert produce is not None and consume is not None
        assert produce.meta["chunks"] == consume.meta["chunks"] > 0
        assert produce.meta["queue_high_water"] >= 1
        assert produce.dur > 0 and consume.dur > 0
        # the stats the spans were stitched from ride on the VersionRun
        assert vr.stream_stats is not None
        assert vr.stream_stats.chunks_produced == produce.meta["chunks"]
    finally:
        obs.reset()
        obs.disable()


def test_pipeline_streamed_roundtrip(tmp_path, monkeypatch):
    """Pipeline.simulate_streamed: fresh interpretation persists shards;
    the second call replays them chunk-by-chunk with identical results."""
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
    monkeypatch.setenv("REPRO_TRACE_SHARD_REFS", "400")
    from repro.harness.pipeline import Pipeline
    from repro.layout import DataLayout
    from repro.runtime import run_program
    from repro.sim import simulate_trace_fast as fast

    from conftest import COUNTER_SRC

    pipe = Pipeline(COUNTER_SRC, block_size=64)
    # expectation via the batch interpreter, bypassing the trace cache
    layout = DataLayout(pipe.checked, nprocs=4, block_size=64)
    batch = run_program(pipe.checked, layout, 4)
    cfg = CacheConfig(size=32 * 1024, block_size=64, assoc=4)
    expect = fast(
        batch.trace, 4, cfg, extra_refs=sum(batch.private_refs.values())
    )

    res1, v1 = pipe.simulate_streamed(4, chunk_refs=300)
    assert not v1.from_cache
    assert list(tmp_path.rglob("*.npz")), "streamed run must persist shards"
    res2, v2 = pipe.simulate_streamed(4, chunk_refs=300)
    assert v2.from_cache
    assert_same_result(res1, expect)
    assert_same_result(res2, expect)
    assert res1.extra_refs == res2.extra_refs == expect.extra_refs
    assert v1.run.output == v2.run.output == batch.output


def test_pipeline_streamed_uses_config_machine(monkeypatch):
    """The streamed path simulates the config's machine: under
    modern64 it equals ``VersionRun.simulate`` at the same block size,
    MESI included."""
    monkeypatch.setenv("REPRO_ARTIFACTS", "0")
    from repro.config import RunConfig
    from repro.harness.pipeline import Pipeline

    from conftest import COUNTER_SRC

    pipe = Pipeline(COUNTER_SRC, block_size=64,
                    config=RunConfig(machine="modern64"))
    res, _ = pipe.simulate_streamed(4, chunk_refs=300)
    batch = pipe.execute(4).simulate(64)
    assert res.config == batch.config
    assert res.config.protocol == "mesi" and res.config.assoc == 8
    assert_same_result(res, batch)
    assert res.extra_refs == batch.extra_refs


# ---------------------------------------------------------------------------
# scale: 10x the events, O(chunk) memory
# ---------------------------------------------------------------------------


def synthetic_chunks(total_refs, chunk_refs, *, procs=8, seed=1):
    """Generate trace chunks on the fly — the full trace never exists."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < total_refs:
        n = min(chunk_refs, total_refs - done)
        addr = rng.integers(0, 1 << 16, n) * 4
        hot = rng.random(n) < 0.2
        addr[hot] = rng.integers(0, 64, int(hot.sum())) * 4
        yield Trace(
            proc=rng.integers(0, procs, n).astype(np.int32),
            addr=addr.astype(np.int64),
            size=np.full(n, 4, np.int32),
            is_write=(rng.random(n) < 0.3),
        )
        done += n


@pytest.mark.skipif(not HAVE_NATIVE, reason="needs the native kernel "
                    "(10x-scale run is too slow on the Python core)")
def test_scaled_workload_capped_memory():
    """A workload ~10x the batch path's biggest event counts runs
    through the streaming boundary under a hard peak-memory cap far
    below what materializing the trace would need (~170 MB of columns
    for 10M refs at ~17 bytes/ref)."""
    total = 10_000_000
    chunk = 262_144
    cfg = CacheConfig(size=32 * 1024, block_size=64, assoc=4)
    tracemalloc.start()
    tracemalloc.reset_peak()
    res = simulate_event_chunks(
        stream_events(synthetic_chunks(total, chunk), 64),
        8, cfg, kernel="native",
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert res.refs == total
    assert res.kernel == "native"
    assert res.misses.false_sharing > 0  # the hot region shares for real
    cap = 80 * 1024 * 1024
    assert peak < cap, (
        f"peak traced memory {peak / 1e6:.1f} MB exceeds the "
        f"{cap / 1e6:.0f} MB O(chunk) budget"
    )


def test_scaled_equivalence_sampled():
    """A smaller slice of the scaled generator, cross-checked against
    the monolithic path (both cores exercised when available)."""
    chunks = list(synthetic_chunks(60_000, 7_000, seed=9))
    whole = Trace(
        proc=np.concatenate([c.proc for c in chunks]),
        addr=np.concatenate([c.addr for c in chunks]),
        size=np.concatenate([c.size for c in chunks]),
        is_write=np.concatenate([c.is_write for c in chunks]),
    )
    cfg = CacheConfig(size=16 * 1024, block_size=64, assoc=4)
    mono = simulate_trace_fast(whole, 8, cfg)
    streamed = simulate_event_chunks(
        stream_events(iter(chunks), 64), 8, cfg,
    )
    assert_same_result(streamed, mono)
