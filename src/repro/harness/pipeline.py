"""End-to-end pipeline: source → analysis → plan → layout → trace →
simulation → timing.

Program versions follow the paper's methodology (section 4):

* **N** (unoptimized): the natural layout of the source;
* **C** (compiler): the plan produced by the static analyses and the
  section-3.3 heuristics;
* **P** (programmer): a hand-written plan modelling the documented
  programmer efforts — including what the programmers *missed* (unpadded
  locks, skipped group&transpose chances, an over-eager pad), which is
  what the compiler-vs-programmer comparison measures.

Execution goes through the persistent trace cache
(:mod:`repro.runtime.trace_cache`): a run is keyed by its full input
hash, so a cache hit skips interpretation — the dominant cost — and
repeat experiment suites replay frozen traces only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # circular at runtime: stream imports the interpreter
    from repro.runtime.stream import StreamStats

from repro import perf
from repro.obs import spans as obs
from repro.analysis import ProgramAnalysis, analyze_program
from repro.lang import CheckedProgram, compile_source
from repro.layout import DataLayout
from repro.layout.regions import RegionMap, build_region_map
from repro.config import RunConfig
from repro.machine import KSR2Config, TimingResult, time_run
from repro.runtime import RunResult, run_program
from repro.runtime import trace_cache
from repro.sim import SimResult, simulate_run
from repro.transform import TransformPlan, decide_transformations


@dataclass(slots=True)
class VersionRun:
    """One program version executed at one process count."""

    version: str  # "N" | "C" | "P" (or an attribution label)
    nprocs: int
    checked: CheckedProgram
    plan: Optional[TransformPlan]
    layout: DataLayout
    run: RunResult
    #: what the run executed under; :meth:`simulate` uses it too
    config: RunConfig
    #: wall-clock seconds spent interpreting (0.0 on a cache hit)
    interp_seconds: float = 0.0
    #: True when the run was replayed from the persistent trace cache
    from_cache: bool = False
    #: producer-consumer accounting when the run went through
    #: :meth:`Pipeline.simulate_streamed` (None on the batch path)
    stream_stats: Optional["StreamStats"] = None
    #: lazily built by :meth:`regions` — layout and heap segments are
    #: fixed once the run exists, so one map serves every block size
    _region_map: Optional[RegionMap] = None

    def simulate(self, block_size: int, **kw) -> SimResult:
        return simulate_run(self.run, block_size, config=self.config, **kw)

    def regions(self) -> RegionMap:
        if self._region_map is None:
            self._region_map = build_region_map(
                self.layout, self.run.heap_segments
            )
        return self._region_map

    def timing(self, cfg: KSR2Config | None = None) -> TimingResult:
        return time_run(self.run, cfg, self.config)


class Pipeline:
    """Compiles a source once and executes versions of it on demand.

    Analysis results and transformation plans are cached per process
    count; runs are cached per (version label, plan identity, nprocs)
    by :class:`~repro.harness.experiments.WorkloadLab`, and persistently
    by the trace cache.
    """

    def __init__(self, source: str, *, block_size: int = 128,
                 max_steps: int = 200_000_000, filename: str = "<input>",
                 config: Optional[RunConfig] = None):
        self.source = source
        self.block_size = block_size
        self.max_steps = max_steps
        #: the run configuration of every version this pipeline runs
        self.config = config or RunConfig.from_env()
        with obs.span("pipeline.compile"):
            self.checked = compile_source(source, filename)
        self._analyses: dict[int, ProgramAnalysis] = {}
        self._plans: dict[int, TransformPlan] = {}

    # -- analysis ---------------------------------------------------------------

    def analysis(self, nprocs: int) -> ProgramAnalysis:
        pa = self._analyses.get(nprocs)
        if pa is None:
            with obs.span("pipeline.analysis", nprocs=nprocs):
                pa = analyze_program(self.checked, nprocs)
            self._analyses[nprocs] = pa
        return pa

    def compiler_plan(self, nprocs: int) -> TransformPlan:
        plan = self._plans.get(nprocs)
        if plan is None:
            with obs.span("pipeline.plan", nprocs=nprocs):
                plan = decide_transformations(
                    self.analysis(nprocs), block_size=self.block_size
                )
            self._plans[nprocs] = plan
        return plan

    # -- execution ----------------------------------------------------------------

    def _run_key(self, plan: Optional[TransformPlan], nprocs: int) -> str:
        plan_desc = "natural" if plan is None else plan.describe()
        return trace_cache.run_key(
            self.source, plan_desc, nprocs, self.block_size,
            quantum=4, max_steps=self.max_steps,
            sched=self.config.sched.describe(),
        )

    def execute(
        self,
        nprocs: int,
        plan: Optional[TransformPlan] = None,
        version: str = "N",
        run: Optional[RunResult] = None,
    ) -> VersionRun:
        """Execute (or replay) one version at one process count.

        ``run`` lets callers attach a precomputed
        :class:`~repro.runtime.trace.RunResult` — the parallel
        experiment lab interprets in worker processes and rebuilds the
        ``VersionRun`` here without re-interpreting.
        """
        layout = DataLayout(
            self.checked, plan, block_size=self.block_size, nprocs=nprocs
        )
        interp_seconds = 0.0
        from_cache = False
        if run is None:
            with obs.span(
                "pipeline.execute", version=version, nprocs=nprocs
            ) as sp:
                key = self._run_key(plan, nprocs)
                run = trace_cache.load_run(key)
                if run is None:
                    t0 = time.perf_counter()
                    run = run_program(
                        self.checked, layout, nprocs,
                        max_steps=self.max_steps, sched=self.config.sched,
                    )
                    interp_seconds = time.perf_counter() - t0
                    perf.add("interp.seconds", interp_seconds)
                    perf.add("interp.runs")
                    trace_cache.store_run(key, run)
                else:
                    from_cache = True
                if sp is not None:
                    sp.meta["from_cache"] = from_cache
        return VersionRun(
            version=version,
            nprocs=nprocs,
            checked=self.checked,
            plan=plan,
            layout=layout,
            run=run,
            config=self.config,
            interp_seconds=interp_seconds,
            from_cache=from_cache,
        )

    def simulate_streamed(
        self,
        nprocs: int,
        plan: Optional[TransformPlan] = None,
        version: str = "N",
        *,
        cache_size: int = 32 * 1024,
        assoc: int = 4,
        word_invalidate: bool = False,
        chunk_refs: Optional[int] = None,
    ) -> tuple[SimResult, VersionRun]:
        """Interpret **and** simulate one version with bounded memory.

        Unlike :meth:`execute` + ``VersionRun.simulate`` — which
        materializes the whole trace between the two stages — this
        routes trace chunks from the interpreter thread straight into a
        carry-over protocol core (:mod:`repro.runtime.stream`), so peak
        memory is O(chunk) regardless of trace length.  Results are
        bit-identical to the batch path.

        The trace cache still participates: a cached entry is replayed
        shard by shard (no interpretation, no materialization), and a
        fresh interpretation persists its chunks through a
        :class:`~repro.runtime.trace_cache.ShardWriter` as they stream
        past.  The returned ``VersionRun``'s trace is empty — use
        :meth:`execute` when the raw reference stream itself is needed.
        """
        from repro.runtime.stream import stream_simulate, stream_events
        from repro.sim import CacheConfig
        from repro.sim.engine import simulate_event_chunks

        config = CacheConfig(
            size=cache_size, block_size=self.block_size, assoc=assoc
        )
        layout = DataLayout(
            self.checked, plan, block_size=self.block_size, nprocs=nprocs
        )
        key = self._run_key(plan, nprocs)
        interp_seconds = 0.0
        stats = None
        stored = trace_cache.open_run(key)
        if stored is not None:
            with stored, obs.span(
                "pipeline.execute", version=version, nprocs=nprocs,
                streamed=True, from_cache=True,
            ):
                res = simulate_event_chunks(
                    stream_events(
                        stored.chunks(), self.block_size,
                        word_granularity=word_invalidate,
                    ),
                    nprocs, config,
                    word_invalidate=word_invalidate,
                    kernel=self.config.kernel,
                )
                run = stored.meta
                res.extra_refs = sum(run.private_refs.values())
            from_cache = True
        else:
            writer = trace_cache.ShardWriter(key)
            t0 = time.perf_counter()
            try:
                with obs.span(
                    "pipeline.execute", version=version, nprocs=nprocs,
                    streamed=True, from_cache=False,
                ):
                    res, run, stats = stream_simulate(
                        self.checked, layout, nprocs, config,
                        word_invalidate=word_invalidate,
                        kernel=self.config.kernel,
                        chunk_refs=chunk_refs, max_steps=self.max_steps,
                        sink=writer.add if writer.active else None,
                        sched=self.config.sched,
                    )
            except BaseException:
                writer.abort()
                raise
            interp_seconds = time.perf_counter() - t0
            perf.add("interp.seconds", interp_seconds)
            perf.add("interp.runs")
            writer.finish(run)
            from_cache = False
        vrun = VersionRun(
            version=version,
            nprocs=nprocs,
            checked=self.checked,
            plan=plan,
            layout=layout,
            run=run,
            config=self.config,
            interp_seconds=interp_seconds,
            from_cache=from_cache,
            stream_stats=stats,
        )
        return res, vrun

    def run_unoptimized(self, nprocs: int) -> VersionRun:
        return self.execute(nprocs, None, "N")

    def run_compiler(self, nprocs: int) -> VersionRun:
        return self.execute(nprocs, self.compiler_plan(nprocs), "C")

    def run_with_plan(
        self, nprocs: int, plan: TransformPlan, version: str
    ) -> VersionRun:
        return self.execute(nprocs, plan, version)
