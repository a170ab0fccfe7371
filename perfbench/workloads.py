"""The three workloads: what a job is, how a seed draws a round of jobs,
and how a job drives the program's public functions.

Every workload is a closed loop over *rounds*.  A round is a fixed list
of jobs drawn from the seed; the loop repeats it (``advisor`` reorders
it), with the state a round may reuse reset in between, as many times
as ``--seconds`` asks for (see ``Workload.ROUND_SECONDS``).  The
simulated metrics are taken over the distinct jobs of the first round.

Every round holds the same jobs whatever the seed: every program of its
workload (the paper programs in ``cold-paper`` and ``warm-sweep``, a
fixed set of generated programs in ``advisor``) with fixed process
counts, job kinds and resubmissions.  The seed orders the jobs.  Letting
the seed sample programs, deal out process counts or pick the tuned and
resubmitted programs moved the metrics more than the code did.

Layer entry points are always called through their module
(``attribution.fs_table``, never a local binding), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.dynamic import engine as dyn_engine
from repro.harness.parallel import resolve_plan
from repro.harness.pipeline import Pipeline
from repro.layout import DataLayout
from repro.machine import ksr2
from repro.machine.ksr2 import KSR2Config
from repro.machine.models import get_machine
from repro.obs import attribution
from repro.service import server
from repro.service.jobs import JobSpec, JobState
from repro.sim import kernel as sim_kernel
from repro.sim import metrics as sim_metrics
from repro.sim import simcache
from repro.tune.objective import layout_bytes
from repro.verify import progen
from repro.workloads.registry import ALL_WORKLOADS, by_name

#: Figure 3's block sizes (cold-paper) and Table 2's (warm-sweep).
COLD_BLOCKS = (16, 128)
WARM_BLOCKS = (8, 16, 32, 64, 128, 256)
MACHINES = ("ksr2", "modern64", "numa2")


@dataclass(frozen=True, slots=True)
class Job:
    #: key of the job's record in the expected-output file
    id: str
    program: str
    #: N/C/P for paper points, analyze/tune for advisor jobs
    version: str
    nprocs: int


@dataclass(slots=True)
class Outcome:
    job: Job
    seconds: float
    #: ``time.perf_counter()`` when the job started
    start: float
    observed: Optional[dict] = None
    error: Optional[str] = None
    #: contributions to the simulated end-to-end metrics
    sim: dict = field(default_factory=dict)
    queue_wait: Optional[float] = None


class Context:
    """Private roots and tracer of one workload process."""

    def __init__(self, root: Path):
        self.root = root
        self.tracer = None
        self._n = 0

    def fresh_dir(self, what: str) -> Path:
        self._n += 1
        path = self.root / f"{what}-{self._n}"
        path.mkdir(parents=True)
        return path

    def fresh_store(self) -> Path:
        """Point the trace store at a new, empty private root."""
        path = self.fresh_dir("store")
        os.environ["REPRO_TRACE_CACHE"] = str(path)
        os.environ["REPRO_ARTIFACTS"] = str(path)
        return path

    def build_kernel(self) -> None:
        """Compile the native protocol kernel into a new private cache."""
        os.environ["REPRO_KERNEL_CACHE"] = str(self.fresh_dir("kernel"))
        sim_kernel.reset_for_tests()
        sim_kernel.load_kernel()

    def span(self, layer: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(layer)


def _misses(sim) -> list[int]:
    m = sim.misses
    return [m.cold, m.replace, m.true_sharing, m.false_sharing]


def _run_fields(vr) -> dict:
    return {
        "plan": "natural" if vr.plan is None else vr.plan.describe(),
        "output": list(vr.run.output),
        "exit_value": vr.run.exit_value,
        "trace_len": len(vr.run.trace),
    }


class Workload:
    """What every workload provides; jobs run one after another from a
    single client unless a workload says otherwise."""

    name = ""
    CLIENTS = 1
    #: a round's nominal duration on the 2-CPU machine the benchmark was
    #: built on; a run of ``--seconds`` measures ``seconds / ROUND_SECONDS``
    #: whole rounds (at least one), so both sides of a comparison do the
    #: same work and report statistics over the same job mix
    ROUND_SECONDS = 1.0

    def space(self) -> list[Job]:
        """Every job any seed can draw (what ``--record`` runs)."""
        raise NotImplementedError

    def draw(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def round_jobs(self, seed: int, n: int, jobs: list[Job]) -> list[Job]:
        """The jobs of round ``n`` of a run that drew ``jobs``: the same
        round again."""
        return jobs

    def setup(self, ctx: Context, jobs: list[Job]) -> None:
        raise NotImplementedError

    def run_job(self, ctx: Context, job: Job) -> Outcome:
        raise NotImplementedError

    def sim_metrics(self, outcomes: list[Outcome]) -> dict:
        raise NotImplementedError

    async def run_round(self, ctx: Context,
                        jobs: list[Job]) -> list[Outcome]:
        return [self.run_job(ctx, job) for job in jobs]

    async def close(self) -> None:
        pass

    def recorded_extra(self, job: Job) -> dict:
        """Fields the expected-output file keeps beside what a job
        observes."""
        return {}

    def resubmit_share(self, jobs: list[Job]) -> float:
        return 1.0 - len(set(jobs)) / len(jobs)

    def paper_rows(self, jobs: list[Job]) -> list[str]:
        return _paper_rows(sorted({j.program for j in jobs}))


# ---------------------------------------------------------------------------
# cold-paper
# ---------------------------------------------------------------------------


class ColdPaper(Workload):
    """Regenerating figure points from scratch: every job compiles,
    plans, interprets into an empty store and simulates."""

    name = "cold-paper"
    NPROCS = (8, 12, 16)
    ROUND_SECONDS = 18.0

    def space(self) -> list[Job]:
        return [
            self._job(wl.name, v, p)
            for wl in ALL_WORKLOADS
            for v in ("N", "C", "P") if v == "N" or v in wl.versions
            for p in self.NPROCS
        ]

    def _job(self, program: str, version: str, nprocs: int) -> Job:
        return Job(f"{self.name}/{program}/{version}/{nprocs}",
                   program, version, nprocs)

    def draw(self, seed: int) -> list[Job]:
        """Every version of every paper program, the natural one (the
        base of ``fs_removed_frac``) included, each as its own job, at
        8, 12 and 16 processors in turn in registry order; the seed
        orders the jobs.  Dealing the process counts out by seed instead
        moved the median job between programs."""
        rng = random.Random(f"{self.name}/{seed}")
        jobs = [
            self._job(wl.name, v, self.NPROCS[i % len(self.NPROCS)])
            for i, wl in enumerate(ALL_WORKLOADS)
            for v in ("N", "C", "P") if v == "N" or v in wl.versions
        ]
        rng.shuffle(jobs)
        return jobs

    def setup(self, ctx: Context, jobs: list[Job]) -> None:
        ctx.build_kernel()

    def run_job(self, ctx: Context, job: Job) -> Outcome:
        store = ctx.fresh_store()
        simcache.clear()
        wl = by_name(job.program)
        t0 = time.perf_counter()
        try:
            with ctx.span("job"):
                pipe = Pipeline(wl.source)
                plan = resolve_plan(pipe, wl, job.version, job.nprocs)
                vr = pipe.execute(job.nprocs, plan, job.version)
                sims = {
                    bs: sim_metrics.simulate_run(vr.run, bs, machine="ksr2")
                    for bs in COLD_BLOCKS
                }
                regions = vr.regions()
                fs = {bs: attribution.fs_table(sims[bs], regions)
                      for bs in COLD_BLOCKS}
                timing = ksr2.time_run(vr.run, KSR2Config(cpi=wl.cpi))
            seconds = time.perf_counter() - t0
        except Exception as e:
            return Outcome(job, time.perf_counter() - t0, t0,
                           error=f"{type(e).__name__}: {e}")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        observed = _run_fields(vr)
        observed["misses"] = {
            f"ksr2/{bs}": _misses(sims[bs]) for bs in COLD_BLOCKS
        }
        observed["fs_by_structure"] = fs[128].fs_by_structure
        observed["cycles"] = timing.cycles
        sim = {
            "fs": sum(s.misses.false_sharing for s in sims.values()),
            "bytes": layout_bytes(vr.layout),
            "cycles": timing.cycles,
        }
        return Outcome(job, seconds, t0, observed, sim=sim)

    def sim_metrics(self, outcomes: list[Outcome]) -> dict:
        """Each optimized version against the natural version of the
        same (program, nprocs)."""
        by_key = {(o.job.program, o.job.nprocs, o.job.version): o.sim
                  for o in outcomes if o.observed is not None}
        pairs = []
        for (program, nprocs, version), sim in by_key.items():
            base = by_key.get((program, nprocs, "N"))
            if version != "N" and base is not None:
                pairs.append(Chosen(base["fs"], sim["fs"], base["bytes"],
                                    sim["bytes"], sim["cycles"]))
        return _sim_summary(pairs, "optimized versions, FS at 16+128 B")


# ---------------------------------------------------------------------------
# warm-sweep
# ---------------------------------------------------------------------------


class WarmSweep(Workload):
    """Sweeping stored traces over block sizes and machines: no
    interpretation, all simulation, repair and store reads."""

    name = "warm-sweep"
    NPROCS = (8, 16)
    ROUND_SECONDS = 8.0

    def __init__(self) -> None:
        self.pipes: dict[tuple[str, int], Pipeline] = {}

    def space(self) -> list[Job]:
        return [self._job(wl.name, n) for wl in ALL_WORKLOADS
                for n in self.NPROCS]

    def _job(self, program: str, nprocs: int) -> Job:
        return Job(f"{self.name}/{program}/N/{nprocs}", program, "N", nprocs)

    def draw(self, seed: int) -> list[Job]:
        """Every paper program's natural version, at 8 and 16
        processors in turn in registry order; the seed orders the jobs.
        Dealing the process counts out by seed instead moved the median
        job from one program to another (``job_p50_s`` spread 0.13 over
        seeds)."""
        rng = random.Random(f"{self.name}/{seed}")
        jobs = [self._job(wl.name, self.NPROCS[i % len(self.NPROCS)])
                for i, wl in enumerate(ALL_WORKLOADS)]
        rng.shuffle(jobs)
        return jobs

    def setup(self, ctx: Context, jobs: list[Job]) -> None:
        """Interpret every drawn point into a new private store."""
        ctx.build_kernel()
        ctx.fresh_store()
        self.pipes = {}
        for job in jobs:
            pipe = Pipeline(by_name(job.program).source)
            pipe.analysis(job.nprocs)
            pipe.execute(job.nprocs, None, "N")
            self.pipes[(job.program, job.nprocs)] = pipe

    def run_job(self, ctx: Context, job: Job) -> Outcome:
        pipe = self.pipes[(job.program, job.nprocs)]
        cfg = KSR2Config(cpi=by_name(job.program).cpi)
        simcache.clear()
        t0 = time.perf_counter()
        try:
            with ctx.span("job"):
                vr = pipe.execute(job.nprocs, None, "N")
                if not vr.from_cache:
                    raise RuntimeError("stored trace missing: re-interpreted")
                sweep = {
                    (m, bs): sim_metrics.simulate_run(vr.run, bs, machine=m)
                    for m in MACHINES for bs in WARM_BLOCKS
                }
                dyn = {
                    m: dyn_engine.mitigate(
                        pipe.checked, vr.layout, vr.run,
                        nprocs=job.nprocs,
                        block_size=get_machine(m).line_size, machine=m,
                        analysis=pipe.analysis(job.nprocs),
                    )
                    for m in MACHINES
                }
                regions = vr.regions()
                fs = {
                    m: attribution.fs_table(
                        sweep[(m, get_machine(m).line_size)], regions
                    )
                    for m in MACHINES
                }
                natural = ksr2.time_run(vr.run, cfg)
                repaired = ksr2.execution_time(
                    vr.run, dyn["ksr2"].result, cfg
                )
        except Exception as e:
            return Outcome(job, time.perf_counter() - t0, t0,
                           error=f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
        observed = _run_fields(vr)
        observed["misses"] = {f"{m}/{bs}": _misses(s)
                              for (m, bs), s in sweep.items()}
        observed["fs_by_structure"] = {m: a.fs_by_structure
                                       for m, a in fs.items()}
        observed["dynamic"] = {
            m: {"plan": d.plan.describe(), "repairs": len(d.repairs),
                "misses": _misses(d.result)}
            for m, d in dyn.items()
        }
        observed["cycles"] = natural.cycles
        observed["dynamic_cycles"] = repaired.cycles
        chosen = []
        for m, d in dyn.items():
            line = get_machine(m).line_size
            chosen.append(Chosen(
                sweep[(m, line)].misses.false_sharing,
                d.result.misses.false_sharing,
                layout_bytes(DataLayout(pipe.checked, None, block_size=line,
                                        nprocs=job.nprocs)),
                layout_bytes(DataLayout(pipe.checked, d.plan,
                                        block_size=line, nprocs=job.nprocs)),
                # cycles are modelled once per job, on ksr2
                repaired.cycles if m == "ksr2" else None,
            ))
        return Outcome(job, seconds, t0, observed, sim={"chosen": chosen})

    def sim_metrics(self, outcomes: list[Outcome]) -> dict:
        """Each machine's repaired layout against the plain run of the
        same stored trace, at the machine's line size."""
        sims = {o.job.id: o.sim for o in outcomes if o.observed is not None}
        return _sim_summary(
            [c for s in sims.values() for c in s["chosen"]],
            "repaired layouts (job x machine), FS at the line size",
        )


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------


class Advisor(Workload):
    """Many small layout-advice requests to the in-process job service,
    from two closed-loop clients."""

    name = "advisor"
    #: the generated programs (``progen`` seeds) every round submits;
    #: a smaller sample would let the few programs that pad many times
    #: over decide ``layout_growth_frac``
    UNIVERSE = 64
    #: a quarter of the programs are tune jobs, the rest analyze
    TUNE = UNIVERSE // 4
    #: resubmissions of an earlier (program, kind) of the same round
    RESUBMIT_TUNE = 4
    RESUBMIT_ANALYZE = 12
    NPROCS = 4
    BLOCK = 128
    CLIENTS = 2
    ROUND_SECONDS = 10.0
    #: the tuner's timing model (``tune_source``'s default ``cpi``)
    CPI = 4.0

    def __init__(self, costs: Optional[dict[str, float]] = None):
        #: job id -> recorded cost proxy, the stratification key
        self.costs = costs or {}
        self.sources: dict[str, str] = {}
        self.manager: Optional[server.JobManager] = None

    def space(self) -> list[Job]:
        return [self._job(s, k) for s in range(self.UNIVERSE)
                for k in ("analyze", "tune")]

    def _job(self, seed: int, kind: str) -> Job:
        return Job(f"{self.name}/{seed}/{kind}", str(seed), kind,
                   self.NPROCS)

    def _spread_pick(self, jobs: list[Job], n: int) -> list[Job]:
        """``n`` of ``jobs``: the middle one of each of ``n`` blocks of
        the jobs ordered by cost."""
        ordered = sorted(jobs, key=lambda j: (self.costs.get(j.id, 0), j.id))
        blocks = [ordered[len(ordered) * i // n:len(ordered) * (i + 1) // n]
                  for i in range(n)]
        return [b[len(b) // 2] for b in blocks]

    def draw(self, seed: int, n: int = 0) -> list[Job]:
        """Every program once, plus resubmissions of earlier jobs.  The
        tune jobs and the resubmitted jobs are the same in every draw,
        the middle job of each cost stratum: drawing them put one of the
        costliest tuner runs or another into the tail and moved
        ``job_tail_s`` by 0.1 to 0.2 between seeds.  The order of the
        stream is drawn, anew for each round ``n``."""
        rng = random.Random(f"{self.name}/{seed}" + (f"/{n}" if n else ""))
        analyze = [self._job(s, "analyze") for s in range(self.UNIVERSE)]
        tune = self._spread_pick(
            [self._job(s, "tune") for s in range(self.UNIVERSE)], self.TUNE)
        tuned = {j.program for j in tune}
        analyze = [j for j in analyze if j.program not in tuned]
        new = analyze + tune
        rng.shuffle(new)
        stream = list(new)
        repeats = (self._spread_pick(tune, self.RESUBMIT_TUNE)
                   + self._spread_pick(analyze, self.RESUBMIT_ANALYZE))
        for job in repeats:
            first = stream.index(job)
            stream.insert(rng.randint(first + 1, len(stream)), job)
        return stream

    def round_jobs(self, seed: int, n: int, jobs: list[Job]) -> list[Job]:
        """Round ``n`` is drawn anew: the same jobs in another order, so
        a job's latency, which counts the other client's job running
        beside it, is taken beside other jobs in each round."""
        return self.draw(seed, n)[:len(jobs)]

    def setup(self, ctx: Context, jobs: list[Job]) -> None:
        ctx.build_kernel()
        ctx.fresh_store()
        self.sources = {
            j.program: progen.render(progen.generate(int(j.program)))
            for j in self.space()
        }

    def spec(self, job: Job) -> JobSpec:
        return JobSpec(
            source=self.sources[job.program], label=f"progen-{job.program}",
            kind=job.version, nprocs=job.nprocs, block_size=self.BLOCK,
        )

    async def run_round(self, ctx: Context,
                        jobs: list[Job]) -> list[Outcome]:
        if self.manager is None:
            self.manager = server.JobManager(workers=self.CLIENTS)
            await self.manager.start()
        ctx.fresh_store()
        simcache.clear()
        pending = list(jobs)
        outcomes: list[Optional[Outcome]] = [None] * len(jobs)

        async def client() -> None:
            while pending:
                i = len(jobs) - len(pending)
                job = pending.pop(0)
                t0 = time.perf_counter()
                record = self.manager.submit(self.spec(job))
                record = await self.manager.wait(record.id)
                outcomes[i] = self._outcome(job, record, t0)

        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        return outcomes

    async def close(self) -> None:
        if self.manager is not None:
            await self.manager.stop()
            self.manager = None

    def _outcome(self, job: Job, record, t0: float) -> Outcome:
        seconds = time.perf_counter() - t0
        if record.state is not JobState.DONE:
            return Outcome(job, seconds, t0, error=f"job {record.state.value}: "
                           f"{record.error}",
                           queue_wait=record.queue_wait_seconds)
        res = record.result
        tune = res["tune"]
        observed = {
            "plan": res["plan"],
            "heuristic_plan": res["heuristic_plan"],
            "verified": res["verified"],
            "verdicts": [v["ok"] for v in res["verdicts"]],
            "natural": res["natural"],
            "recommended": res["recommended"],
            "shared_structures": res["shared_structures"],
            "tune": None if tune is None else {
                k: tune[k] for k in ("evaluations", "improved", "matched",
                                     "heuristic_score", "best_score")
            },
        }
        sim = {"fs_nat": res["natural"]["fs_misses"],
               "fs_rec": res["recommended"]["fs_misses"],
               "best_score": None if tune is None else tune["best_score"]}
        return Outcome(job, seconds, t0, observed, sim=sim,
                       queue_wait=record.queue_wait_seconds)

    def sim_metrics(self, outcomes: list[Outcome]) -> dict:
        """Recommended against natural layouts over the round's
        distinct jobs.  Cycles and bytes of an analyze job's plan are
        modelled here, after the timed loop, with the tuner's own
        timing model; a tune job's come from its reply."""
        distinct = {o.job: o for o in outcomes if o.observed is not None}
        pairs = []
        for job, o in distinct.items():
            pipe = Pipeline(self.sources[job.program], block_size=self.BLOCK)
            nat = layout_bytes(DataLayout(pipe.checked, None,
                                          block_size=self.BLOCK,
                                          nprocs=job.nprocs))
            if o.sim["best_score"] is not None:
                score = o.sim["best_score"]
                cyc = float(re.search(r"cycles=(\d+)", score).group(1))
                added = int(re.search(r"mem=\+(\d+)B", score).group(1))
            else:
                plan = pipe.compiler_plan(job.nprocs)
                vr = pipe.execute(job.nprocs, plan, "T")
                cyc = ksr2.time_run(vr.run, KSR2Config(cpi=self.CPI)).cycles
                added = layout_bytes(vr.layout) - nat
            pairs.append(Chosen(o.sim["fs_nat"], o.sim["fs_rec"], nat,
                                nat + added, cyc))
        return _sim_summary(pairs, "recommended layouts, FS at 128 B")

    def recorded_extra(self, job: Job) -> dict:
        """The natural trace length: with the tuner's evaluation count
        it sets the cost strata of the draw."""
        pipe = Pipeline(self.sources[job.program], block_size=self.BLOCK)
        return {"trace_len": len(pipe.execute(job.nprocs, None, "N").run.trace)}

    def paper_rows(self, jobs: list[Job]) -> list[str]:
        return ["paper Table 2/3: none (generated programs)"]


# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Chosen:
    """A chosen layout against the natural layout of the same run."""

    fs_nat: int
    fs: int
    bytes_nat: int
    bytes: int
    #: modelled KSR2 cycles of the chosen layout (None: not modelled)
    cycles: Optional[float]


def _sim_summary(chosen: list[Chosen], what: str) -> dict:
    """False-sharing removal as the mean of per-layout ratios (a ratio of
    sums would let the program with most misses decide), growth as a
    ratio of sums (small layouts padded many times over would decide a
    mean), cycles as a geometric mean."""
    with_fs = [c for c in chosen if c.fs_nat]
    cycles = [c.cycles for c in chosen if c.cycles is not None]
    bytes_nat = sum(c.bytes_nat for c in chosen)
    return {
        "fs_removed_frac": statistics.fmean(
            [1.0 - c.fs / c.fs_nat for c in with_fs]) if with_fs else 0.0,
        "fs_base": f"mean over {len(with_fs)} {what}; "
                   f"{sum(c.fs_nat for c in with_fs)} natural FS misses",
        "layout_growth_frac": (sum(c.bytes for c in chosen) - bytes_nat)
        / bytes_nat if bytes_nat else 0.0,
        "growth_base": f"{bytes_nat} natural bytes over {len(chosen)} layouts",
        "modelled_cycles": statistics.geometric_mean(cycles) if cycles else 0.0,
        "cycles_base": f"geometric mean over {len(cycles)} chosen layouts",
    }


def _paper_rows(programs: list[str]) -> list[str]:
    """The paper's reported Table 2 FS reduction and Table 3 maximum
    speedups of the drawn programs (the only reference numbers the repo
    holds; the timing model is not validated against hardware)."""
    rows = []
    for name in programs:
        wl = by_name(name)
        t2 = ("-" if wl.paper_fs_reduction is None
               else f"{wl.paper_fs_reduction:.1f}%")
        t3 = ", ".join(f"{v} {s:.1f}x@{p}"
                       for v, (s, p) in sorted(wl.paper_max_speedup.items()))
        rows.append(f"paper {name}: Table 2 FS reduction {t2}; "
                    f"Table 3 max speedup {t3}")
    return rows


WORKLOADS = {w.name: w for w in (ColdPaper, WarmSweep, Advisor)}


def make(name: str, expected: Optional[dict] = None):
    cls = WORKLOADS[name]
    if cls is Advisor:
        # a job interprets its program about three times (oracle and
        # attribution), plus once per tuner evaluation
        costs = {
            key: rec["trace_len"] * (3 + (rec["tune"] or {}).get(
                "evaluations", 0))
            for key, rec in (expected or {}).items()
            if key.startswith("advisor/")
        }
        return Advisor(costs)
    return cls()

