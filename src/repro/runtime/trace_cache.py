"""Persistent trace cache: frozen runs stored as ``.npz`` files.

Interpreting a workload is by far the most expensive stage of the
pipeline (the trace is replayed cheaply, many times, at many cache
geometries).  Because the interpreter is fully deterministic, a run is
a pure function of ``(source, transform plan, nprocs, block size,
scheduler quantum, step limit)`` — so the complete
:class:`~repro.runtime.trace.RunResult` can be persisted keyed by a
hash of those inputs, and *repeat benchmark runs skip interpretation
entirely*.

Entries live in the artifact store (:mod:`repro.runtime.artifacts`,
namespace ``trace``) under ``<store root>/shards/<hex digit>/
trace--<key>.npz`` with an integrity sidecar, published atomically
under the store's ``flock`` so concurrent writers (the parallel
experiment lab, service jobs) can race on the same key safely and
eviction sweeps can never interleave with a publish.  The store's root,
byte budget and off switch (``REPRO_ARTIFACTS``,
``REPRO_ARTIFACTS_MAX_MB``) are the only ones: ``repro artifacts``
counts and prunes stored traces with everything else.

Small runs hold the four trace columns whole (``proc``/``addr``/
``size``/``is_write``); runs at or above ``REPRO_TRACE_SHARD_REFS``
references are stored as **chunked shards** — per-chunk members
``proc_0000``, ``addr_0000``, … — written incrementally (peak memory
O(chunk)) and replayable incrementally via :func:`open_run`, which is
how the streaming simulation boundary replays big workloads without
ever materializing them.  Either way a JSON ``meta`` member carries the
scalar counters.

Environment knobs
-----------------

``REPRO_TRACE_CACHE_MIN``
    Minimum shared-reference count for a run to be persisted
    (default 4096) — keeps unit-test-sized runs from littering the
    cache.
``REPRO_TRACE_SHARD_REFS``
    Reference count at which a stored trace switches to chunked
    shards (default 1048576; 0 forces sharding off).

Invalidation: keys include :data:`SCHEMA` — bump it whenever the
interpreter's observable behaviour (addresses, scheduling, counters)
changes.  Stale entries are never read because their keys are never
regenerated; ``prune()`` deletes everything for a fresh start.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import perf
from repro.config import env_number
from repro.runtime import artifacts
from repro.runtime.trace import RunResult, Trace

log = logging.getLogger("repro.trace_cache")

#: Bump when interpreter/layout semantics change observable runs (2:
#: entries self-identify with their key and are validated on load; 3:
#: the scheduler — kind, seed, grain — joins the key, so a steal-mode
#: run can never replay an rr-mode entry or vice versa; 4: runs carry
#: ``phase_marks`` — barrier-release trace indices — which the dynamic
#: mitigation engine needs, so pre-4 entries must re-interpret).
SCHEMA = 4

#: Metadata fields a well-formed entry must carry.
_REQUIRED_META = (
    "key", "nprocs", "work", "private_refs", "shared_refs",
    "output", "exit_value", "heap_segments",
)

_ENV_MIN = "REPRO_TRACE_CACHE_MIN"
_ENV_SHARD = "REPRO_TRACE_SHARD_REFS"

_COLUMNS = ("proc", "addr", "size", "is_write")


def min_refs() -> int:
    return env_number(_ENV_MIN, 4096)


def shard_refs() -> int:
    """References per stored shard (0 disables sharding)."""
    return max(env_number(_ENV_SHARD, 1 << 20), 0)


def run_key(
    source: str,
    plan_desc: str,
    nprocs: int,
    block_size: int,
    quantum: int,
    max_steps: int,
    *,
    sched: str = "rr",
) -> str:
    """Deterministic content key for one interpreted run.

    ``sched`` is the scheduling policy's canonical description
    (:meth:`repro.runtime.stealing.SchedConfig.describe`).  It *must*
    participate in the hash: a randomized-work-stealing run produces a
    different trace for every (seed, grain), and before the scheduler
    joined the key a steal-mode run would silently replay a cached
    round-robin trace.
    """
    h = hashlib.sha256()
    for part in (
        f"schema={SCHEMA}", source, plan_desc,
        f"nprocs={nprocs}", f"block={block_size}",
        f"quantum={quantum}", f"max_steps={max_steps}",
        f"sched={sched}",
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def store() -> artifacts.ArtifactStore | None:
    """The artifact store holding traces (namespace ``trace``); None
    when persistence is off."""
    return artifacts.default_store()


def entry_path(key: str) -> Path | None:
    """Where ``key``'s payload lives once published (tests, tooling)."""
    st = store()
    if st is None:
        return None
    return st._payload_path(artifacts.NS_TRACE, key, ".npz")


def _lookup(key: str) -> Path | None:
    """Resolve ``key`` to a readable payload path."""
    st = store()
    info = st.get(artifacts.NS_TRACE, key) if st is not None else None
    return info.path if info is not None else None


def _drop(key: str) -> None:
    st = store()
    if st is not None:
        st.delete(artifacts.NS_TRACE, key)


def _meta_dict(key: str, run: RunResult) -> dict:
    return {
        "key": key,
        "nprocs": run.nprocs,
        "work": run.work,
        "private_refs": run.private_refs,
        "shared_refs": run.shared_refs,
        "output": run.output,
        "exit_value": run.exit_value,
        "heap_segments": run.heap_segments,
        "sched": run.sched,
        "phase_marks": run.phase_marks,
    }


def _run_from_meta(meta: dict, trace: Trace) -> RunResult:
    return RunResult(
        trace=trace,
        nprocs=int(meta["nprocs"]),
        work={int(k): v for k, v in meta["work"].items()},
        private_refs={int(k): v for k, v in meta["private_refs"].items()},
        shared_refs={int(k): v for k, v in meta["shared_refs"].items()},
        output=list(meta["output"]),
        exit_value=meta["exit_value"],
        heap_segments=[tuple(seg) for seg in meta["heap_segments"]],
        sched=meta.get("sched"),
        phase_marks=[int(m) for m in meta.get("phase_marks", [])],
    )


def _check_meta(meta: dict, key: str | None) -> None:
    missing = [f for f in _REQUIRED_META if f not in meta]
    if missing:
        raise ValueError(f"metadata missing fields {missing}")
    if key is not None and meta["key"] != key:
        raise ValueError(
            f"stale-key collision: entry identifies as {meta['key'][:12]}…, "
            f"requested {key[:12]}…"
        )


def _chunk_members(i: int) -> tuple[str, ...]:
    return tuple(f"{c}_{i:04d}" for c in _COLUMNS)


def _chunk_trace(z, i: int) -> Trace:
    pn, an, sn, wn = _chunk_members(i)
    cols = {name: z[member] for name, member in
            zip(_COLUMNS, (pn, an, sn, wn))}
    lengths = {name: len(col) for name, col in cols.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"shard {i} columns disagree on length: {lengths}")
    return Trace(
        proc=cols["proc"], addr=cols["addr"],
        size=cols["size"], is_write=cols["is_write"].astype(bool),
    )


def _validated_run(z, key: str | None) -> RunResult:
    """Decode and *validate* one cache entry; raises on any deformity.

    Validation covers the failure modes a shared on-disk cache actually
    sees: truncated ``.npz`` payloads, garbage bytes, entries written by
    an older layout, and stale-key collisions (a file renamed or a hash
    prefix reused for different inputs) — the ``key`` echoed in the
    metadata must match the key being asked for.  Handles both the
    whole-column and the chunked-shard layouts.
    """
    meta = json.loads(bytes(z["meta"]).decode())
    _check_meta(meta, key)
    nchunks = int(meta.get("chunks", 0))
    if nchunks:
        chunks = [_chunk_trace(z, i) for i in range(nchunks)]
        trace = Trace(
            proc=np.concatenate([c.proc for c in chunks]),
            addr=np.concatenate([c.addr for c in chunks]),
            size=np.concatenate([c.size for c in chunks]),
            is_write=np.concatenate([c.is_write for c in chunks]),
        )
        return _run_from_meta(meta, trace)
    return _run_from_meta(meta, _whole_trace(z))


def load_run(key: str) -> RunResult | None:
    """Fetch a persisted run, or None on miss/corruption/disabled.

    A corrupt, truncated, or stale entry is never fatal: the entry is
    dropped with a logged warning and the caller falls back to
    re-interpreting the run.
    """
    path = _lookup(key)
    if path is None:
        perf.add("trace_cache.miss")
        return None
    try:
        with np.load(path, allow_pickle=False) as z:
            run = _validated_run(z, key)
    except Exception as e:
        # Corrupt or incompatible entry: drop it and re-interpret.
        perf.add("trace_cache.corrupt")
        log.warning(
            "trace cache entry %s is unusable (%s: %s); "
            "recomputing the run", path.name, type(e).__name__, e,
        )
        _drop(key)
        return None
    perf.add("trace_cache.hit")
    return run


class StoredRun:
    """Streaming view of one persisted run.

    ``meta`` is the :class:`~repro.runtime.trace.RunResult` counters
    with an *empty* trace; :meth:`chunks` yields the trace as
    :class:`~repro.runtime.trace.Trace` chunks, reading one shard at a
    time (whole-column entries yield a single chunk).  Keep the handle
    open while iterating; it is a context manager.
    """

    def __init__(self, path: Path):
        self._path = path
        self._z = np.load(path, allow_pickle=False)
        meta = json.loads(bytes(self._z["meta"]).decode())
        _check_meta(meta, None)
        self.nchunks = int(meta.get("chunks", 0))
        empty = Trace(
            proc=np.empty(0, np.int32), addr=np.empty(0, np.int64),
            size=np.empty(0, np.int32), is_write=np.empty(0, bool),
        )
        self.meta = _run_from_meta(meta, empty)

    def chunks(self) -> Iterator[Trace]:
        if self.nchunks == 0:
            yield _whole_trace(self._z)
            return
        for i in range(self.nchunks):
            yield _chunk_trace(self._z, i)

    def close(self) -> None:
        self._z.close()

    def __enter__(self) -> "StoredRun":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _whole_trace(z) -> Trace:
    columns = {name: z[name] for name in _COLUMNS}
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"trace columns disagree on length: {lengths}")
    return Trace(
        proc=columns["proc"], addr=columns["addr"],
        size=columns["size"], is_write=columns["is_write"].astype(bool),
    )


def open_run(key: str) -> StoredRun | None:
    """Open a persisted run for **chunk-streamed replay** (the
    simulation side never materializes the whole trace).  None on
    miss/corruption/disabled; corrupt entries are dropped."""
    path = _lookup(key)
    if path is None:
        perf.add("trace_cache.miss")
        return None
    try:
        stored = StoredRun(path)
    except Exception as e:
        perf.add("trace_cache.corrupt")
        log.warning(
            "trace cache entry %s is unusable (%s: %s); dropping it",
            path.name, type(e).__name__, e,
        )
        _drop(key)
        return None
    perf.add("trace_cache.hit")
    return stored


def load_file(path: str | Path) -> RunResult:
    """Decode one explicitly named cache entry, validating its shape.

    Unlike :func:`load_run` — where corruption silently falls back to
    re-interpretation — an explicit file is the user's input, so any
    deformity raises a :class:`~repro.errors.ReproError` with the
    reason (the ``repro verify --trace`` path turns it into a one-line
    diagnostic).  The key echo is checked for presence, not value: the
    caller names the file directly rather than deriving it from run
    inputs.
    """
    from repro.errors import ReproError

    p = Path(path)
    if not p.exists():
        raise ReproError(f"trace file {p} does not exist")
    try:
        with np.load(p, allow_pickle=False) as z:
            return _validated_run(z, None)
    except ReproError:
        raise
    except Exception as e:
        raise ReproError(
            f"trace file {p} is not a usable cache entry "
            f"({type(e).__name__}: {e})"
        ) from e


class ShardWriter:
    """Incremental writer for a chunked cache entry.

    Feed trace chunks with :meth:`add` as they stream past (peak memory
    O(chunk)); :meth:`finish` seals the entry with its metadata and
    atomically publishes it.  :meth:`abort` (or ``finish`` never being
    called) leaves no trace in the store.
    """

    def __init__(self, key: str):
        self.key = key
        self._zf: zipfile.ZipFile | None = None
        self._writer: artifacts.ArtifactWriter | None = None
        self._n = 0
        self._refs = 0
        st = store()
        if st is None:
            return
        self._writer = st.writer(artifacts.NS_TRACE, key, ".npz")
        if not self._writer.active:
            perf.add("trace_cache.store_failed")
            self._writer = None
            return
        try:
            self._zf = zipfile.ZipFile(
                open(self._writer.path, "wb"), "w", zipfile.ZIP_STORED
            )
        except OSError:
            perf.add("trace_cache.store_failed")
            self._cleanup()

    @property
    def active(self) -> bool:
        return self._zf is not None

    def _member(self, name: str, arr: np.ndarray) -> None:
        assert self._zf is not None
        with self._zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
            np.save(fh, arr)

    def add(self, chunk: Trace) -> None:
        if self._zf is None or len(chunk) == 0:
            return
        try:
            pn, an, sn, wn = _chunk_members(self._n)
            self._member(pn, chunk.proc)
            self._member(an, chunk.addr)
            self._member(sn, chunk.size)
            self._member(wn, chunk.is_write)
            self._n += 1
            self._refs += len(chunk)
            perf.add("trace_cache.shard_chunks")
        except OSError:
            perf.add("trace_cache.store_failed")
            self._cleanup()

    def finish(self, run: RunResult) -> bool:
        """Seal and publish; False when the entry was not written
        (disabled cache, too small, or an I/O failure along the way)."""
        if self._zf is None:
            return False
        if self._refs < min_refs():
            self._cleanup()
            return False
        meta = _meta_dict(self.key, run)
        meta["chunks"] = self._n
        try:
            self._member("meta", np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8
            ))
            self._zf.close()
            self._zf = None
            assert self._writer is not None
            if self._writer.commit() is None:
                perf.add("trace_cache.store_failed")
                self._writer = None
                return False
            self._writer = None
        except OSError:
            perf.add("trace_cache.store_failed")
            self._cleanup()
            return False
        perf.add("trace_cache.store")
        perf.add("trace_cache.shards", self._n)
        return True

    def abort(self) -> None:
        self._cleanup()

    def _cleanup(self) -> None:
        if self._zf is not None:
            try:
                self._zf.close()
            except OSError:
                pass
            self._zf = None
        if self._writer is not None:
            self._writer.abort()
            self._writer = None


def store_run(key: str, run: RunResult) -> bool:
    """Persist ``run`` under ``key``; returns True when written.

    Traces at or above ``REPRO_TRACE_SHARD_REFS`` references are stored
    chunked (replayable shard by shard); smaller ones keep the compact
    whole-column layout.
    """
    st = store()
    if st is None or len(run.trace) < min_refs():
        return False
    shard = shard_refs()
    if shard and len(run.trace) >= shard:
        writer = ShardWriter(key)
        tr = run.trace
        for start in range(0, len(tr), shard):
            stop = min(start + shard, len(tr))
            writer.add(Trace(
                proc=tr.proc[start:stop], addr=tr.addr[start:stop],
                size=tr.size[start:stop], is_write=tr.is_write[start:stop],
            ))
        return writer.finish(run)
    meta = json.dumps(_meta_dict(key, run)).encode()
    writer = st.writer(artifacts.NS_TRACE, key, ".npz")
    if not writer.active:
        perf.add("trace_cache.store_failed")
        return False
    try:
        with open(writer.path, "wb") as fh:
            np.savez(
                fh,
                proc=run.trace.proc,
                addr=run.trace.addr,
                size=run.trace.size,
                is_write=run.trace.is_write,
                meta=np.frombuffer(meta, dtype=np.uint8),
            )
    except OSError:
        perf.add("trace_cache.store_failed")
        writer.abort()
        return False
    if writer.commit() is None:
        perf.add("trace_cache.store_failed")
        return False
    perf.add("trace_cache.store")
    return True


def prune() -> int:
    """Delete every stored run; returns the number removed."""
    st = store()
    return st.prune(artifacts.NS_TRACE) if st is not None else 0
