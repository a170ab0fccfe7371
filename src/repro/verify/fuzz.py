"""Budgeted differential fuzzing over generated programs.

Each fuzz iteration takes one seed through the whole stack:

    progen → lexer → parser → checker → interpreter (natural layout)
           → every candidate transform plan → interpreter again
           → oracle comparison → both simulators → invariant checks

Any disagreement — a crash anywhere in the stack, an oracle mismatch,
or a simulator invariant violation — becomes a :class:`FuzzFailure`
carrying the *shrunk* program source, so the report ends with the
smallest program that still exhibits the problem.  Reproducing any
failure later needs only its seed: ``repro verify --seed N --count 1``.

The loop is budgeted by wall-clock time (``budget``) and optionally a
program count; seeds advance deterministically from the base seed, so
``--seed 0 --count 100`` always fuzzes the same 100 programs.  With
``jobs > 1`` seeds fan out over worker processes through
:func:`repro.harness.map_tasks`, whose per-task failure capture
guarantees one pathological seed cannot take down the batch.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.harness.parallel import map_tasks
from repro.lang import compile_source
from repro.config import RunConfig
from repro.runtime.stealing import RR, SchedConfig
from repro.verify import invariants, oracle, progen

#: Block sizes the invariant leg sweeps per program (word-size first).
FUZZ_BLOCK_SIZES = (4, 32, 128)

#: Scheduler axes one fuzz run can sweep.  ``rr`` and ``steal`` run the
#: oracle + invariant legs under that one schedule; ``both`` runs both
#: legs *and* the cross-scheduler metamorphic
#: (:func:`repro.verify.invariants.check_schedule_independence`).
SCHED_AXES = ("rr", "steal", "both")

#: Task grain for steal-mode fuzz legs (small enough that the tiny
#: generated programs actually migrate).
FUZZ_STEAL_GRAIN = 16

#: Where candidate plans come from.  ``fixed`` is the five-plan oracle
#: list; ``space`` draws them from the tuner's per-structure action
#: space (:func:`repro.tune.space.space_candidate_plans`), so generated
#: programs exercise every composable action combination, not just the
#: synthesized exhaustive plans.
PLAN_SOURCES = ("fixed", "space")

#: Plans drawn per program in ``space`` mode (bounded: space size is
#: exponential in the structure count).
SPACE_PLAN_LIMIT = 8


def _candidate_plans(checked, nprocs: int, plan_source: str):
    if plan_source == "fixed":
        return None  # oracle default
    if plan_source == "space":
        from repro.tune.space import space_candidate_plans

        return space_candidate_plans(
            checked, nprocs, limit=SPACE_PLAN_LIMIT
        )
    raise ValueError(
        f"unknown plan source {plan_source!r} "
        f"(choose from {', '.join(PLAN_SOURCES)})"
    )


@dataclass(slots=True)
class FuzzFailure:
    """One seed that broke something, minimized."""

    seed: int
    kind: str  # "crash" | "oracle" | "invariant"
    details: list[str]
    source: str  # shrunk reproducer
    shrunk_from: int  # ops in the original spec
    shrunk_to: int  # ops after shrinking

    def describe(self) -> str:
        head = f"seed {self.seed} [{self.kind}]"
        body = "".join(f"\n  {d}" for d in self.details[:10])
        return head + body


@dataclass(slots=True)
class FuzzReport:
    """Outcome of one fuzzing session."""

    seed: int
    nprocs: int
    programs: int = 0
    plans: int = 0
    elapsed: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"verify: {self.programs} programs x {self.plans} plan-checks "
            f"in {self.elapsed:.1f}s (base seed {self.seed}, "
            f"nprocs {self.nprocs}): {status}"
        )


def _sched_legs(
    spec: progen.ProgramSpec, sched: str
) -> list[tuple[str, SchedConfig]]:
    """The scheduler configs one spec is checked under.

    The steal leg seeds its RNG from the spec's own seed, so every
    generated program exercises a *different* stochastic schedule while
    each remains exactly reproducible from the fuzz seed alone.  Both
    legs are explicit configs (never ``None``) so a ``REPRO_SCHED``
    environment override can never silently turn the rr leg into a
    second steal leg.
    """
    steal = SchedConfig("steal", seed=spec.seed, grain=FUZZ_STEAL_GRAIN)
    if sched == "rr":
        return [("rr", RR)]
    if sched == "steal":
        return [("steal", steal)]
    if sched == "both":
        return [("rr", RR), ("steal", steal)]
    raise ValueError(
        f"unknown sched axis {sched!r} (choose from {', '.join(SCHED_AXES)})"
    )


def _spec_failures(
    spec: progen.ProgramSpec,
    nprocs: int,
    plan_source: str = "fixed",
    sched: str = "rr",
    config: RunConfig | None = None,
) -> tuple[list[str], int]:
    """All failures one spec exhibits, plus the number of plans checked.

    A crash anywhere in the stack is itself a failure — the generator
    only emits programs the checker documents as valid, so a
    ``CheckError`` here means the generator and the language disagree,
    which is exactly what fuzzing exists to find.

    ``sched`` picks the scheduler axis: each leg runs the full oracle +
    simulator-invariant stack under that schedule, and ``both``
    additionally compares the rr and steal baseline runs against the
    schedule-independence metamorphics.  The simulator legs run on the
    protocol core of ``config``.
    """
    try:
        checked = compile_source(progen.render(spec))
    except ReproError as e:
        return [f"crash: compile: {type(e).__name__}: {e}"], 0
    out: list[str] = []
    nplans = 0
    base_runs: dict[str, object] = {}
    for leg, cfg in _sched_legs(spec, sched):
        try:
            plans = _candidate_plans(checked, nprocs, plan_source)
            verdicts, base_run = oracle.check_program(
                checked, nprocs, plans=plans, sched=cfg
            )
        except Exception as e:
            out.append(f"crash: oracle[{leg}]: {type(e).__name__}: {e}")
            continue
        base_runs[leg] = base_run
        nplans += len(verdicts)
        out += [f"oracle[{leg}]: {v}" for v in verdicts if not v.ok]
        try:
            out += [
                f"invariant[{leg}]: {m}"
                for m in invariants.check_trace(
                    base_run.trace, nprocs, block_sizes=FUZZ_BLOCK_SIZES,
                    kernel=config and config.kernel,
                )
            ]
        except Exception as e:
            out.append(f"crash: simulator[{leg}]: {type(e).__name__}: {e}")
    if "rr" in base_runs and "steal" in base_runs:
        try:
            out += [
                f"metamorphic: {m}"
                for m in invariants.check_schedule_independence(
                    base_runs["rr"],
                    base_runs["steal"],
                    deterministic=progen.is_schedule_deterministic(spec),
                    label="steal-vs-rr",
                )
            ]
        except Exception as e:
            out.append(f"crash: metamorphic: {type(e).__name__}: {e}")
    return out, nplans


def check_seed(
    seed: int, nprocs: int, plan_source: str = "fixed", sched: str = "rr",
    config: RunConfig | None = None,
) -> tuple[int, list[str]]:
    """Fuzz one seed (picklable worker entry point)."""
    msgs, nplans = _spec_failures(
        progen.generate(seed), nprocs, plan_source, sched, config
    )
    return nplans, msgs


def _classify(msgs: list[str]) -> str:
    if any(m.startswith("crash") for m in msgs):
        return "crash"
    if any(m.startswith("oracle") for m in msgs):
        return "oracle"
    if any(m.startswith("metamorphic") for m in msgs):
        return "metamorphic"
    return "invariant"


def _minimize(
    seed: int, nprocs: int, plan_source: str, sched: str, config: RunConfig
) -> FuzzFailure:
    """Shrink a failing seed to a minimal reproducer."""
    spec = progen.generate(seed)
    args = (nprocs, plan_source, sched, config)
    msgs, _ = _spec_failures(spec, *args)

    def still_fails(cand: progen.ProgramSpec) -> bool:
        return bool(_spec_failures(cand, *args)[0])

    small = progen.shrink(spec, still_fails)
    final_msgs, _ = _spec_failures(small, *args)
    return FuzzFailure(
        seed=seed,
        kind=_classify(final_msgs or msgs),
        details=final_msgs or msgs,
        source=progen.render(small),
        shrunk_from=len(spec.ops),
        shrunk_to=len(small.ops),
    )


def save_failures(report: FuzzReport, out_dir: str) -> list[str]:
    """Write each minimized counterexample under ``out_dir``.

    Every failure becomes ``counterexample-<seed>.c`` whose leading
    comment block records the failure kind and details — the artifact
    CI uploads when a fuzz job goes red.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for f in report.failures:
        path = os.path.join(out_dir, f"counterexample-{f.seed}.c")
        header = "".join(
            f"// {line}\n"
            for line in [
                f"fuzz failure: seed {f.seed} kind {f.kind} "
                f"(shrunk {f.shrunk_from} -> {f.shrunk_to} ops)",
                f"reproduce: repro verify --seed {f.seed} --count 1",
                *f.details[:10],
            ]
        )
        with open(path, "w") as fh:
            fh.write(header + "\n" + f.source)
        paths.append(path)
    return paths


def fuzz(
    *,
    seed: int = 0,
    budget: float = 60.0,
    nprocs: int = 4,
    count: int | None = None,
    jobs: int = 1,
    plan_source: str = "fixed",
    sched: str = "rr",
    progress=None,
    config: RunConfig | None = None,
) -> FuzzReport:
    """Run the fuzz loop until the time budget or program count is hit.

    ``count`` (when given) is exact: exactly that many seeds are
    checked regardless of budget.  Otherwise seeds are consumed in
    batches until ``budget`` seconds elapse.  ``sched`` selects the
    scheduler axis per seed (see :data:`SCHED_AXES`); each task
    carries ``config``.
    """
    config = config or RunConfig.from_env()
    report = FuzzReport(seed=seed, nprocs=nprocs)
    start = time.monotonic()
    next_seed = seed
    batch = max(jobs, 1) * 8
    failing_seeds: list[int] = []
    while True:
        if count is not None:
            remaining = count - report.programs
            if remaining <= 0:
                break
            todo = min(batch, remaining)
        else:
            if time.monotonic() - start >= budget:
                break
            todo = batch
        seeds = list(range(next_seed, next_seed + todo))
        next_seed += todo
        task_failures: dict[int, str] = {}
        results = map_tasks(
            check_seed,
            [(s, nprocs, plan_source, sched, config) for s in seeds],
            jobs=jobs,
            failures=task_failures,
        )
        for i, s in enumerate(seeds):
            report.programs += 1
            if i in task_failures:
                failing_seeds.append(s)
                continue
            nplans, msgs = results[i]
            report.plans += nplans
            if msgs:
                failing_seeds.append(s)
        if progress is not None:
            progress(report)
    for s in failing_seeds:
        report.failures.append(
            _minimize(s, nprocs, plan_source, sched, config)
        )
    report.elapsed = time.monotonic() - start
    return report
