"""Run manifests: one JSONL record per pipeline run.

A manifest record captures everything needed to account for a run after
the fact — what was run (source hash, plan, geometry), on what machine
model, how the caches behaved (trace-cache and sim-memo hit/miss
counters), where the time went (aggregated span timings), and what the
simulator observed (miss breakdown, per-structure false sharing).

Records are appended to the file named by the ``REPRO_RUN_LOG``
environment variable; when it is unset, recording is a no-op (the
pipeline never pays for observability it was not asked for).  Appends
are line-atomic (one ``write`` of one ``\\n``-terminated line), so
concurrent experiment processes can share a log.

Schema 3 (one JSON object per line)::

    {
      "schema": 3,
      "ts": "2026-08-06T12:00:00+00:00",   # UTC, ISO-8601
      "kind": "simulate" | "profile" | "experiment" | "dynamic" | ...,
      "config": "machine=ksr2 sched=rr kernel=auto engine=fast",
      "workload": "Maxflow",
      "source_sha256": "...",              # hash of the source text
      "plan": "TransformPlan(...)",        # or "natural"
      "nprocs": 12, "block_size": 128,
      "machine": {"name": "ksr2", "protocol": "msi", "line_size": 128,
                  "cache_size": ..., "assoc": ..., "block_size": ...},
      "kernel": "native" | "python" | null,  # protocol core that ran
      "chunk_size": 262144 | null,         # refs/chunk of a streamed run
      "stream": {"chunks_produced": ..., "chunks_consumed": ...,
                 "queue_high_water": ..., "stall_seconds": ...},
      "refs": 123456, "trace_len": 120000,
      "misses": {"cold": ..., "replace": ..., "true": ..., "false": ...},
      "fs_by_structure": {"counter": 123, ...},
      "dynamic": {"repairs": 2, "phases": 5, ...},  # runtime-repair counters
      "perf": {"trace_cache.hit": 1, ...}, # cache/stream/kernel counters
      "spans": {"pipeline.execute": 0.81, ...}  # seconds per span name
    }

Records of any other schema are not read: :func:`read_all` skips
them and the manifest store's ingest counts them as corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from repro.config import RunConfig

RUN_LOG_ENV = "REPRO_RUN_LOG"

#: Bump when the record shape changes incompatibly.  2 adds the
#: streaming/native-era fields: ``kernel``, ``chunk_size``, ``stream``,
#: and the trace-cache shard/eviction + stream + per-core counters.
#: 3 adds the machine identity (``machine.name``/``.protocol``/
#: ``.line_size``) and the ``dynamic`` runtime-repair counters.
SCHEMA = 3

#: perf counters worth persisting (cache behaviour + stage seconds +
#: streaming-boundary and protocol-core accounting).
_PERF_KEYS = (
    "trace_cache.hit",
    "trace_cache.miss",
    "trace_cache.store",
    "trace_cache.store_failed",
    "trace_cache.corrupt",
    "trace_cache.evicted",
    "trace_cache.evicted_bytes",
    "trace_cache.shards",
    "trace_cache.shard_chunks",
    "sim_cache.hit",
    "sim_cache.miss",
    "events_cache.hit",
    "events_cache.miss",
    "interp.runs",
    "interp.seconds",
    "sim.fast",
    "sim.reference",
    "sim.stream_chunks",
    "sim.native.runs",
    "sim.native.refs",
    "sim.native.events",
    "sim.native.invalidations",
    "sim.native.writebacks",
    "sim.native.upgrades",
    "sim.python.runs",
    "sim.python.refs",
    "sim.python.invalidations",
    "sim.python.writebacks",
    "sim.python.upgrades",
    "sim.kernel.native",
    "sim.kernel.python",
    "kernel.build",
    "kernel.built",
    "kernel.envelope_fallback",
    "kernel.protocol_fallback",
    "stream.chunks",
    "stream.refs",
    "stream.stall_seconds",
    "stream.queue_high_water",
    "parallel.points",
)

def log_path() -> Path | None:
    """The active manifest log, or None when recording is off."""
    raw = os.environ.get(RUN_LOG_ENV, "").strip()
    if not raw or raw.lower() in {"0", "off", "no", "none", "false"}:
        return None
    return Path(raw)


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def build_record(
    *,
    kind: str,
    workload: str,
    source: str,
    plan_desc: str,
    nprocs: int,
    block_size: int,
    config=None,
    machine: dict | None = None,
    kernel: str | None = None,
    chunk_size: int | None = None,
    stream: dict | None = None,
    refs: int = 0,
    trace_len: int = 0,
    misses: dict | None = None,
    fs_by_structure: dict | None = None,
    dynamic: dict | None = None,
    perf_snapshot: dict | None = None,
    span_timings: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble one manifest record (pure; does not write).

    ``config`` is the run's :class:`~repro.config.RunConfig`.
    ``kernel`` names the protocol core that ran (``SimResult.kernel``);
    ``chunk_size`` is the refs-per-chunk of a streamed run (None for
    the monolithic path); ``stream`` is
    :meth:`repro.runtime.stream.StreamStats.to_dict` when the run went
    through the producer-consumer boundary; ``dynamic`` carries the
    runtime-repair counters of a dynamic-mitigation run
    (:meth:`repro.dynamic.engine.DynamicRun.counters`).
    """
    perf_part = {
        k: v for k, v in (perf_snapshot or {}).items() if k in _PERF_KEYS
    }
    rec = {
        "schema": SCHEMA,
        "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kind": kind,
        "config": (config or RunConfig.from_env()).describe(),
        "workload": workload,
        "source_sha256": source_hash(source),
        "plan": plan_desc,
        "nprocs": nprocs,
        "block_size": block_size,
        "machine": machine or {},
        "kernel": kernel,
        "chunk_size": int(chunk_size) if chunk_size else None,
        "stream": stream or {},
        "refs": int(refs),
        "trace_len": int(trace_len),
        "misses": misses or {},
        "fs_by_structure": fs_by_structure or {},
        "dynamic": dynamic or {},
        "perf": perf_part,
        "spans": {k: round(v, 6) for k, v in (span_timings or {}).items()},
    }
    if extra:
        rec.update(extra)
    return rec


def sim_record(
    *,
    kind: str,
    workload: str,
    source: str,
    plan_desc: str,
    nprocs: int,
    block_size: int,
    config=None,
    sim=None,
    fs_by_structure: dict | None = None,
    dynamic: dict | None = None,
    chunk_size: int | None = None,
    stream: dict | None = None,
    span_timings: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Build a record straight from a
    :class:`~repro.sim.coherence.SimResult` — the shared assembly used
    by the CLI commands and the experiment drivers, so every ingest
    path records the same shape (machine identity + geometry, miss
    breakdown, kernel choice, perf snapshot)."""
    from repro import perf as _perf

    config = config or RunConfig.from_env()
    if sim is None:
        mach = {}
    else:
        mach = {
            "name": config.machine,
            "protocol": sim.config.protocol,
            "line_size": sim.config.block_size,
            "cache_size": sim.config.size,
            "assoc": sim.config.assoc,
            "block_size": sim.config.block_size,
        }
    return build_record(
        kind=kind,
        workload=workload,
        source=source,
        plan_desc=plan_desc,
        nprocs=nprocs,
        block_size=block_size,
        config=config,
        machine=mach,
        kernel=None if sim is None else sim.kernel,
        chunk_size=chunk_size,
        stream=stream,
        refs=0 if sim is None else sim.refs + sim.extra_refs,
        trace_len=0 if sim is None else sim.refs,
        misses=(
            {}
            if sim is None
            else {
                "cold": sim.misses.cold,
                "replace": sim.misses.replace,
                "true": sim.misses.true_sharing,
                "false": sim.misses.false_sharing,
            }
        ),
        fs_by_structure=fs_by_structure or {},
        dynamic=dynamic or {},
        perf_snapshot=_perf.snapshot(),
        span_timings=span_timings,
        extra=extra,
    )


def record(rec: dict) -> Path | None:
    """Append ``rec`` to the run log; returns the path written, or None
    when recording is disabled or the write failed."""
    path = log_path()
    if path is None:
        return None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    except OSError:
        return None
    return path


def read_all(path: str | Path | None = None) -> list[dict]:
    """Every schema-3 record in the log (corrupt lines and records of
    any other schema are skipped)."""
    p = Path(path) if path is not None else log_path()
    if p is None or not p.exists():
        return []
    out: list[dict] = []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and rec.get("schema") == SCHEMA:
            out.append(rec)
    return out


def last_for(workload: str, path: str | Path | None = None) -> dict | None:
    """The most recent record for ``workload`` (case-insensitive).

    Records label versioned runs ``Workload/version``; the version
    suffix is ignored when matching.
    """
    want = workload.lower()
    got = None
    for rec in read_all(path):
        name = str(rec.get("workload", "")).lower()
        if name == want or name.split("/", 1)[0] == want:
            got = rec
    return got
