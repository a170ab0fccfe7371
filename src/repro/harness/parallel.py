"""Parallel experiment fan-out.

The experiment grid — every ``(workload, version, nprocs)`` point a
table or figure needs — is embarrassingly parallel: each point is one
deterministic interpreter execution.  This module fans the grid out
over a :class:`concurrent.futures.ProcessPoolExecutor` and merges the
results *deterministically*: points are submitted and collected in grid
order, so the lab's caches end up byte-identical to a serial run no
matter how the workers were scheduled.

Each task carries the parent's :class:`~repro.config.RunConfig`.
Workers return only the picklable :class:`~repro.runtime.trace.RunResult`
payload (the compiled program holds ``id()``-keyed symbol tables and
must never cross a process boundary); the parent re-derives the
compiled program, plan and layout from its own pipeline cache — cheap
next to interpretation — and attaches the worker's run.

``REPRO_JOBS`` selects the worker count (default: the CPU count);
``REPRO_JOBS=1`` forces the serial path; a non-integer is an error.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

from repro import perf
from repro.config import RunConfig, env_number
from repro.obs import spans as obs
from repro.transform import TransformPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.pipeline import Pipeline
    from repro.runtime.trace import RunResult
    from repro.workloads.base import Workload

JOBS_ENV = "REPRO_JOBS"

#: A grid point: (workload name, version label, process count).
Point = tuple[str, str, int]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default: CPU count)."""
    return max(env_number(JOBS_ENV, os.cpu_count() or 1), 1)


def resolve_plan(
    pipe: "Pipeline", wl: "Workload", version: str, nprocs: int
) -> Optional[TransformPlan]:
    """The transform plan a version label denotes.

    ``N``/``C``/``P`` follow the paper's methodology; ``C[<kind>]`` is
    the Table 2 attribution label — the compiler plan restricted to one
    transformation kind.
    """
    if version == "N":
        return None
    if version == "C":
        return pipe.compiler_plan(nprocs)
    if version == "P":
        if wl.programmer_plan is None:
            raise ValueError(f"{wl.name} has no programmer version")
        return wl.programmer_plan(pipe.analysis(nprocs))
    if version.startswith("C[") and version.endswith("]"):
        return pipe.compiler_plan(nprocs).restricted_to({version[2:-1]})
    raise ValueError(f"unknown version {version!r}")


# -- worker side --------------------------------------------------------------

#: Per-worker-process pipeline cache: (workload, block size, config).
_worker_pipes: dict = {}


def _run_point(
    name: str, version: str, nprocs: int, block_size: int,
    config: RunConfig, profiling: bool,
) -> tuple["RunResult", dict[str, float], list[dict]]:
    """Interpret one grid point in a worker process.

    Returns the run plus the worker's perf-counter snapshot and span
    snapshot, so the parent can fold stage timings (and, when
    ``profiling``, the span tree) back into its own trace.
    """
    from repro.workloads.registry import by_name

    perf.reset()
    if profiling:  # the flag, not the environment, carries it
        obs.enable()
    obs.reset()
    wl = by_name(name)
    key = (name, block_size, config)
    pipe = _worker_pipes.get(key)
    if pipe is None:
        pipe = _worker_pipes[key] = wl.pipeline(block_size, config)
    plan = resolve_plan(pipe, wl, version, nprocs)
    with obs.span("worker.point", point=f"{name}/{version}/{nprocs}"):
        vr = pipe.execute(nprocs, plan, version)
    return vr.run, perf.snapshot(), obs.span_snapshot()


# -- parent side --------------------------------------------------------------


def run_points(
    points: Sequence[Point],
    block_size: int,
    jobs: Optional[int] = None,
    failures: Optional[dict[Point, str]] = None,
    config: Optional[RunConfig] = None,
) -> dict[Point, "RunResult"]:
    """Interpret ``points`` under ``config`` with up to ``jobs`` worker
    processes.

    Returns runs keyed by point, populated in grid order (deterministic
    merge).  Falls back to an empty mapping when parallelism cannot
    help (single worker, single point, or a broken pool) — callers then
    take the ordinary serial path.

    Worker perf-counter and span snapshots are merged back into the
    parent for **every** completed point, even when another point (or
    the pool itself) fails mid-collection — a worker's cache and timing
    statistics must never be silently dropped.  A failing point is
    recorded in ``failures`` (point -> exception text) when the caller
    passes a dict; every other point still yields its result.
    """
    jobs = default_jobs() if jobs is None else jobs
    jobs = min(jobs, len(points))
    if jobs <= 1 or len(points) <= 1:
        return {}
    config = config or RunConfig.from_env()
    out: dict[Point, "RunResult"] = {}
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (p, pool.submit(
                    _run_point, p[0], p[1], p[2], block_size, config,
                    obs.enabled(),
                ))
                for p in points
            ]
            # Grid order, not completion order: deterministic merging.
            for i, (point, fut) in enumerate(futures):
                try:
                    run, counters, spans = fut.result()
                except Exception as e:  # one bad point must not lose the rest
                    perf.add("parallel.point_failed")
                    if failures is not None:
                        failures[point] = f"{type(e).__name__}: {e}"
                    continue
                out[point] = run
                perf.merge(
                    {f"worker.{k}": v for k, v in counters.items()}
                )
                obs.attach_worker_spans(
                    f"worker[{i}]:{point[0]}/{point[1]}/{point[2]}", spans
                )
    except (OSError, RuntimeError):  # broken pool, fork limits, ...
        perf.add("parallel.pool_failed")
        return out
    perf.add("parallel.points", len(out))
    return out


def map_tasks(
    fn,
    argslist: Sequence[tuple],
    jobs: Optional[int] = None,
    failures: Optional[dict[int, str]] = None,
) -> dict[int, object]:
    """Generic fan-out: apply picklable ``fn`` to each argument tuple.

    Returns ``index -> result`` for every task that completed; a task
    that raises is recorded in ``failures`` (index -> exception text)
    and never disturbs its siblings.  ``jobs <= 1`` (or a single task)
    runs serially with identical failure semantics, so callers get one
    behaviour regardless of pool availability; a pool that cannot start
    at all also degrades to the serial path.
    """
    jobs = default_jobs() if jobs is None else jobs
    jobs = min(jobs, len(argslist))
    out: dict[int, object] = {}

    def _serial() -> dict[int, object]:
        for i, task_args in enumerate(argslist):
            if i in out:
                continue
            try:
                out[i] = fn(*task_args)
            except Exception as e:
                perf.add("parallel.task_failed")
                if failures is not None:
                    failures[i] = f"{type(e).__name__}: {e}"
        return out

    if jobs <= 1 or len(argslist) <= 1:
        return _serial()
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (i, pool.submit(fn, *task_args))
                for i, task_args in enumerate(argslist)
            ]
            for i, fut in futures:
                try:
                    out[i] = fut.result()
                except Exception as e:
                    perf.add("parallel.task_failed")
                    if failures is not None:
                        failures[i] = f"{type(e).__name__}: {e}"
    except (OSError, RuntimeError):  # broken pool: finish serially
        perf.add("parallel.pool_failed")
        return _serial()
    perf.add("parallel.tasks", len(out))
    return out
