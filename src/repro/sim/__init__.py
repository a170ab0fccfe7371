"""Multiprocessor cache simulation: private write-invalidate caches over
interpreter traces, with cold/replace/true/false-sharing miss
classification (the paper's simulation methodology, section 4)."""

from repro.sim.cache import Cache, CacheConfig, INVALID, MODIFIED, SHARED
from repro.sim.coherence import (
    COLD,
    FALSE_SHARING,
    REPLACE,
    TRUE_SHARING,
    CoherenceSim,
    MissCounts,
    SimResult,
    simulate_trace,
)
from repro.sim.engine import (
    simulate,
    simulate_event_chunks,
    simulate_trace_chunked,
    simulate_trace_fast,
)
from repro.sim.events import EventChunker, EventStream, build_events
from repro.sim.kernel import active_kernel
from repro.sim.simcache import cached_events, cached_simulate
from repro.sim.metrics import (
    BlockSizeSweep,
    StructureMisses,
    attribute_misses,
    simulate_run,
    sweep_block_sizes,
    top_fs_structures,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "INVALID",
    "MODIFIED",
    "SHARED",
    "COLD",
    "FALSE_SHARING",
    "REPLACE",
    "TRUE_SHARING",
    "CoherenceSim",
    "MissCounts",
    "SimResult",
    "simulate_trace",
    "active_kernel",
    "simulate",
    "simulate_event_chunks",
    "simulate_trace_chunked",
    "simulate_trace_fast",
    "EventChunker",
    "EventStream",
    "build_events",
    "cached_events",
    "cached_simulate",
    "BlockSizeSweep",
    "StructureMisses",
    "attribute_misses",
    "simulate_run",
    "sweep_block_sizes",
    "top_fs_structures",
]
