"""The synchronous stage runner behind the job service.

One job = the full advisory pipeline over a submitted program::

    compile ──> analyze ──> [tune] ──> verify ──> attribute

* **compile** type-checks the source (:class:`Pipeline` construction);
* **analyze** derives the per-structure sharing summary and the
  paper's heuristic plan;
* **tune** (kind ``tune`` only) searches the plan space under the
  submitted objective, fanning plan evaluations over
  :func:`repro.harness.parallel.map_tasks` when ``spec.jobs > 1`` —
  the same worker pool the batch experiment grid uses;
* **verify** runs the semantic-equivalence oracle over the recommended
  plan (every recommendation the service returns is oracle-checked);
* **attribute** simulates the natural and recommended layouts at the
  submitted geometry and folds miss tags into per-structure evidence,
  so the reply *shows* which structures stopped false sharing.

The runner is deliberately synchronous and picklable-free: the asyncio
server calls it through a thread executor, and everything process-bound
underneath (tuner evaluations) already goes through ``map_tasks``.

Each finished job appends a ``kind="service"`` record to the run
manifest (:mod:`repro.obs.manifest`), carrying the job id, queue wait,
execution time, and retry count next to the usual miss breakdown — so
``repro history`` and the regression sentinel see service traffic the
same way they see batch runs.
"""

from __future__ import annotations

import time

from repro import perf
from repro.config import RunConfig
from repro.errors import ReproError
from repro.harness.pipeline import Pipeline
from repro.obs import attribution, manifest
from repro.obs import spans as obs
from repro.service.jobs import JobSpec
from repro.tune.objective import Objective
from repro.tune.report import tune_source
from repro.verify.oracle import check_program


class WorkerDeath(RuntimeError):
    """A job attempt died under the executor (injected or real).

    The job manager treats this — and any other ``RuntimeError``
    escaping a stage, including ``BrokenExecutor`` from a lost worker
    pool — as retryable."""


def _attribution_evidence(vr, block_size: int) -> dict:
    sim = vr.simulate(block_size)
    att = attribution.fs_table(sim, vr.regions())
    return {
        "fs_misses": sim.misses.false_sharing,
        "total_misses": sim.misses.total,
        "fs_by_structure": att.fs_by_structure,
    }


def execute_job(
    spec: JobSpec, attempt: int = 1, config: RunConfig | None = None
) -> dict:
    """Run one job attempt to completion under ``config``; returns the
    result payload.

    Raises :class:`WorkerDeath` for the first ``spec.inject_failures``
    attempts (the CI smoke test drives the retry path with this), and
    lets stage errors propagate — the manager decides retry vs fail.
    """
    if attempt <= spec.inject_failures:
        raise WorkerDeath(
            f"injected failure on attempt {attempt}/{spec.inject_failures}"
        )
    t0 = time.perf_counter()
    stage_seconds: dict[str, float] = {}

    def _mark(stage: str, since: float) -> float:
        now = time.perf_counter()
        stage_seconds[stage] = round(now - since, 6)
        return now

    with obs.span("service.job", kind=spec.kind, label=spec.label,
                  nprocs=spec.nprocs):
        t = time.perf_counter()
        try:
            pipe = Pipeline(
                spec.source, block_size=spec.block_size, config=config
            )
        except ReproError:
            raise
        except Exception as e:
            raise ReproError(f"compile failed: {e}") from e
        t = _mark("compile", t)

        pa = pipe.analysis(spec.nprocs)
        heuristic = pipe.compiler_plan(spec.nprocs)
        t = _mark("analyze", t)

        tune_part = None
        plan = heuristic
        if spec.kind == "tune":
            report = tune_source(
                spec.source, spec.label,
                nprocs=spec.nprocs, block_size=spec.block_size,
                objective=Objective.parse(spec.objective),
                budget=spec.budget, top=spec.top, jobs=spec.jobs,
                verify_front=False,  # the verify stage checks the pick
                config=pipe.config,
            )
            plan = report.best.plan
            tune_part = {
                "strategy": report.strategy,
                "evaluations": report.outcome.evaluations,
                "improved": report.improved,
                "matched": report.matched,
                "heuristic_score": str(report.heuristic.score),
                "best_score": str(report.best.score),
            }
        t = _mark("tune", t)

        verdicts, natural_run = check_program(
            pipe.checked, spec.nprocs,
            block_size=spec.block_size,
            plans=[("service", plan)], sched=pipe.config.sched,
        )
        verified = all(v.ok for v in verdicts)
        t = _mark("verify", t)

        natural_vr = pipe.execute(spec.nprocs, None, version="N",
                                  run=natural_run)
        recommended_vr = pipe.execute(spec.nprocs, plan, version="T")
        natural_ev = _attribution_evidence(natural_vr, spec.block_size)
        recommended_ev = _attribution_evidence(
            recommended_vr, spec.block_size
        )
        _mark("attribute", t)

    result = {
        "kind": spec.kind,
        "label": spec.label,
        "nprocs": spec.nprocs,
        "block_size": spec.block_size,
        "objective": spec.objective,
        "plan": plan.describe(),
        "heuristic_plan": heuristic.describe(),
        "verified": verified,
        "verdicts": [
            {"label": v.plan_label, "ok": v.ok,
             "error": v.error or "; ".join(v.mismatches)}
            for v in verdicts
        ],
        "natural": natural_ev,
        "recommended": recommended_ev,
        "fs_removed": (
            natural_ev["fs_misses"] - recommended_ev["fs_misses"]
        ),
        "shared_structures": len(pa.patterns),
        "tune": tune_part,
        "attempt": attempt,
        "stage_seconds": stage_seconds,
        "total_seconds": round(time.perf_counter() - t0, 6),
    }
    perf.add("service.jobs_done")
    return result


def record_job(record, config: RunConfig | None = None) -> None:
    """Append one ``kind="service"`` manifest line for a finished job.

    Best-effort like every manifest write: a missing or unwritable
    manifest never fails the job."""
    spec = record.spec
    res = record.result or {}
    rec = manifest.build_record(
        kind="service",
        workload=spec.label,
        source=spec.source,
        plan_desc=res.get("plan", ""),
        nprocs=spec.nprocs,
        block_size=spec.block_size,
        config=config,
        misses=(
            {}
            if "recommended" not in res
            else {"false": res["recommended"]["fs_misses"],
                  "total": res["recommended"]["total_misses"]}
        ),
        fs_by_structure=res.get("recommended", {}).get(
            "fs_by_structure", {}
        ),
        perf_snapshot=perf.snapshot(),
        extra={
            "job_id": record.id,
            "job_kind": spec.kind,
            "job_state": record.state.value,
            "queue_wait_seconds": round(record.queue_wait_seconds, 3),
            "exec_seconds": round(record.exec_seconds, 3),
            "retries": record.retries,
            "verified": res.get("verified"),
            "fs_removed": res.get("fs_removed"),
            "error": record.error,
        },
    )
    manifest.record(rec)
