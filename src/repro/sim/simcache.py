"""Memoization of simulation results and event streams.

A block-size sweep (Figure 3, Table 2, the headline statistics) and the
timing model (Figure 4, Table 3, section-5 improvements) repeatedly
simulate the *same frozen trace* — across drivers, at overlapping
geometries.  This module keys both the precomputed
:class:`~repro.sim.events.EventStream` and the finished
:class:`~repro.sim.coherence.SimResult` by the trace's content
fingerprint, so each (trace, geometry) pair is simulated exactly once
per process, and each (trace, block size) pair is split/compacted
exactly once.

Results are treated as immutable by every consumer (nothing in the repo
mutates a ``SimResult`` after construction); the caches are bounded FIFO
so property tests churning thousands of tiny traces cannot grow memory
without bound.

Persistence
-----------

``REPRO_SIM_MEMO=1`` turns the in-process memo into a durable one
backed by the artifact store (:mod:`repro.runtime.artifacts`,
namespace ``sim``), in the same root and under the same byte budget as
stored traces; any other value keeps the memo process-local, as does
``REPRO_ARTIFACTS=0``.
Persisted results are small JSON records (:func:`result_to_record`),
keyed by the same (trace fingerprint, geometry, engine, kernel,
chunking) tuple as the memo — so a service worker that already
simulated a (trace, geometry) pair hands the result to every later job
without re-simulating, across processes and restarts.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro import perf
from repro.config import RunConfig
from repro.obs import spans as obs
from repro.runtime import artifacts
from repro.runtime.trace import Trace
from repro.sim.cache import CacheConfig
from repro.sim.coherence import PerProcCounts, MissCounts, SimResult
from repro.sim.engine import PYTHON, REFERENCE, simulate_trace_fast
from repro.sim.events import EventStream, build_events

#: Bounds (entries) for the two memo tables.
MAX_RESULTS = 4096
MAX_EVENT_STREAMS = 256

#: Persistent-memo record schema (bump on incompatible change; 2: the
#: coherence protocol joins the config record and the memo key).
RECORD_SCHEMA = 2

ENV_MEMO = "REPRO_SIM_MEMO"

_results: OrderedDict[tuple, SimResult] = OrderedDict()
_events: OrderedDict[tuple, EventStream] = OrderedDict()


def clear() -> None:
    """Drop every memoized result and event stream (tests)."""
    _results.clear()
    _events.clear()


def memo_store() -> Optional[artifacts.ArtifactStore]:
    """The persistent memo's artifact store, or None when disabled."""
    if os.environ.get(ENV_MEMO, "").strip() != "1":
        return None
    return artifacts.default_store()


def result_to_record(res: SimResult) -> dict:
    """Flatten a :class:`SimResult` into a JSON-serializable record."""
    return {
        "schema": RECORD_SCHEMA,
        "config": {
            "size": res.config.size,
            "block_size": res.config.block_size,
            "assoc": res.config.assoc,
            "protocol": res.config.protocol,
        },
        "nprocs": res.nprocs,
        "refs": res.refs,
        "misses": list(res.misses.as_tuple()),
        "invalidations": res.invalidations,
        "writebacks": res.writebacks,
        "upgrades": res.upgrades,
        "per_proc": {
            str(pid): list(res.per_proc[pid].as_tuple())
            for pid in res.per_proc
        },
        "fs_by_block": {str(b): n for b, n in res.fs_by_block.items()},
        "miss_by_block": {str(b): n for b, n in res.miss_by_block.items()},
        "fs_pair_by_block": {
            str(b): {f"{a},{c}": n for (a, c), n in pairs.items()}
            for b, pairs in res.fs_pair_by_block.items()
        },
        "extra_refs": res.extra_refs,
        "engine": res.engine,
        "kernel": res.kernel,
    }


def result_from_record(rec: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_record` output
    (raises on any deformity — callers treat that as a miss)."""
    if rec.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"sim memo schema {rec.get('schema')!r}")
    cfg = rec["config"]
    nprocs = int(rec["nprocs"])
    pids = tuple(sorted(int(p) for p in rec["per_proc"]))
    counts = np.zeros((nprocs + 1, 4), dtype=np.int64)
    for pid_s, row in rec["per_proc"].items():
        counts[int(pid_s) + 1] = row
    m = rec["misses"]
    return SimResult(
        config=CacheConfig(
            size=int(cfg["size"]), block_size=int(cfg["block_size"]),
            assoc=int(cfg["assoc"]),
            protocol=str(cfg.get("protocol", "msi")),
        ),
        nprocs=nprocs,
        refs=int(rec["refs"]),
        misses=MissCounts(int(m[0]), int(m[1]), int(m[2]), int(m[3])),
        invalidations=int(rec["invalidations"]),
        writebacks=int(rec["writebacks"]),
        upgrades=int(rec["upgrades"]),
        per_proc=PerProcCounts(counts, pids),
        fs_by_block={int(b): int(n) for b, n in rec["fs_by_block"].items()},
        miss_by_block={
            int(b): int(n) for b, n in rec["miss_by_block"].items()
        },
        fs_pair_by_block={
            int(b): {
                (int(p.split(",")[0]), int(p.split(",")[1])): int(n)
                for p, n in pairs.items()
            }
            for b, pairs in rec["fs_pair_by_block"].items()
        },
        extra_refs=int(rec["extra_refs"]),
        engine=str(rec["engine"]),
        kernel=str(rec["kernel"]),
    )


def _persist_key(key: tuple) -> str:
    return artifacts.content_key("sim", *(str(part) for part in key))


def _persist_load(store: artifacts.ArtifactStore, key: tuple) -> Optional[SimResult]:
    data = store.read_bytes(artifacts.NS_SIM, _persist_key(key))
    if data is None:
        return None
    try:
        res = result_from_record(json.loads(data.decode()))
    except (ValueError, KeyError, TypeError, IndexError):
        store.delete(artifacts.NS_SIM, _persist_key(key))
        perf.add("sim_memo.corrupt")
        return None
    perf.add("sim_memo.hit")
    return res


def _persist_store(store: artifacts.ArtifactStore, key: tuple,
                   res: SimResult) -> None:
    blob = json.dumps(result_to_record(res), sort_keys=True).encode()
    if store.put_bytes(
        artifacts.NS_SIM, _persist_key(key), blob, ".json"
    ) is not None:
        perf.add("sim_memo.store")


def cached_events(
    trace: Trace, block_size: int, *, word_granularity: bool = False
) -> EventStream:
    """The (memoized) pre-split event stream for one (trace, block size)."""
    key = (trace.fingerprint, block_size, word_granularity)
    got = _events.get(key)
    if got is not None:
        perf.add("events_cache.hit")
        return got
    perf.add("events_cache.miss")
    got = build_events(trace, block_size, word_granularity=word_granularity)
    _events[key] = got
    while len(_events) > MAX_EVENT_STREAMS:
        _events.popitem(last=False)
    return got


def cached_simulate(
    trace: Trace,
    nprocs: int,
    config: CacheConfig,
    *,
    extra_refs: int = 0,
    word_invalidate: bool = False,
    engine: str | None = None,
    kernel: str | None = None,
    chunk_refs: int | None = None,
) -> SimResult:
    """Simulate with the selected engine, memoizing per
    (trace fingerprint, geometry, engine, kernel, chunking).

    ``engine`` and the kernel mode come from the run's config.  The
    *resolved* kernel variant (native vs python) and the chunking
    parameters are part of the memo key: two configurations that are
    merely asserted equivalent must never share a cache slot, or a bug
    in one could masquerade as the other's result (regression-tested in
    ``tests/test_kernel.py``).

    ``chunk_refs`` routes the simulation through the streaming boundary
    (:func:`repro.sim.engine.simulate_trace_chunked`) in chunks of that
    many references; ``None`` simulates the trace monolithically.

    The returned ``SimResult`` is shared between callers — treat it as
    read-only.
    """
    from repro.sim.coherence import simulate_trace
    from repro.sim.engine import resolve_kernel, simulate_trace_chunked

    if engine is None or kernel is None:
        env = RunConfig.from_env()
        engine, kernel = engine or env.engine, kernel or env.kernel
    if engine == REFERENCE:
        resolved_kernel = PYTHON
    else:
        resolved_kernel = resolve_kernel(
            word_invalidate=word_invalidate, kernel=kernel,
        )
    # a python resolution is final; a native one is re-checked against
    # the kernel envelope under the requested mode
    core = PYTHON if resolved_kernel == PYTHON else kernel
    key = (
        trace.fingerprint, nprocs, config.size, config.block_size,
        config.assoc, config.protocol, word_invalidate, extra_refs, engine,
        resolved_kernel, chunk_refs or 0,
    )
    got = _results.get(key)
    if got is not None:
        perf.add("sim_cache.hit")
        return got
    perf.add("sim_cache.miss")
    persist = memo_store()
    if persist is not None:
        got = _persist_load(persist, key)
        if got is not None:
            _results[key] = got
            while len(_results) > MAX_RESULTS:
                _results.popitem(last=False)
            return got
        perf.add("sim_memo.miss")
    with obs.span(
        "sim.simulate",
        engine=engine,
        kernel=resolved_kernel,
        nprocs=nprocs,
        block_size=config.block_size,
        refs=len(trace),
    ):
        if engine == REFERENCE:
            with perf.timer("sim.reference"):
                got = simulate_trace(
                    trace, nprocs, config,
                    extra_refs=extra_refs, word_invalidate=word_invalidate,
                )
        elif chunk_refs:
            with perf.timer("sim.fast"):
                got = simulate_trace_chunked(
                    trace, nprocs, config, chunk_refs,
                    extra_refs=extra_refs, word_invalidate=word_invalidate,
                    kernel=core,
                )
        else:
            events = cached_events(
                trace, config.block_size, word_granularity=word_invalidate
            )
            with perf.timer("sim.fast"):
                got = simulate_trace_fast(
                    trace, nprocs, config,
                    extra_refs=extra_refs, word_invalidate=word_invalidate,
                    events=events, kernel=core,
                )
    _results[key] = got
    while len(_results) > MAX_RESULTS:
        _results.popitem(last=False)
    if persist is not None:
        _persist_store(persist, key, got)
    return got
