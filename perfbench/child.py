"""One workload in one fresh process: set up, run the closed loop,
check every job against the expected outputs, print the metrics.

Started by ``run.py`` with a scrubbed environment; not meant to be run
by hand.  The last line of its standard output is the full result
record as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import sys
import time
from pathlib import Path

import common
import tracing
import workloads
from repro import perf

#: set-up runs per process; ``setup_s`` is their median
SETUP_REPEATS = 3

#: counters of failures the program recovers from without raising
SWALLOWED = ("tune.eval_error", "tune.eval_failed", "service.timeouts")
SWALLOWED_SUFFIXES = (".store_failed", ".corrupt")


def swallowed_failures(delta: dict[str, float]) -> int:
    return int(sum(
        v for k, v in delta.items()
        if k in SWALLOWED or k.endswith(SWALLOWED_SUFFIXES)
    ))


def diff(observed, expected, path: str = "") -> list[str]:
    """Mismatches between an observed job record and its expected one
    (only the fields the job observed are compared)."""
    if isinstance(observed, dict) and isinstance(expected, dict):
        out = []
        for key, value in observed.items():
            if key not in expected:
                out.append(f"{path}{key}: not in expected record")
            else:
                out += diff(value, expected[key], f"{path}{key}.")
        return out
    if isinstance(observed, list) and isinstance(expected, list):
        if len(observed) != len(expected):
            return [f"{path[:-1]}: {len(observed)} items, "
                    f"expected {len(expected)}"]
        out = []
        for i, (a, b) in enumerate(zip(observed, expected)):
            out += diff(a, b, f"{path}{i}.")
        return out
    if isinstance(observed, float) or isinstance(expected, float):
        if (isinstance(observed, (int, float))
                and isinstance(expected, (int, float))
                and math.isclose(observed, expected, rel_tol=1e-9)):
            return []
    elif observed == expected:
        return []
    return [f"{path[:-1]}: got {observed!r}, expected {expected!r}"]


def check(outcome: workloads.Outcome, expected: dict) -> list[str]:
    if outcome.error is not None:
        return [outcome.error]
    want = expected.get(outcome.job.id)
    if want is None:
        return ["no expected record"]
    problems = diff(outcome.observed, want)
    obs = outcome.observed
    if "verdicts" in obs and not (obs["verified"] and all(obs["verdicts"])):
        problems.append("oracle verdict not ok")
    return problems


async def measure(wl, ctx, seed: int, jobs, seconds: float, trace: bool,
                  tracer: tracing.Tracer | None,
                  speed: common.HostSpeed) -> list[dict]:
    """Run the whole rounds ``seconds`` asks for.  A traced run
    alternates untraced and traced rounds, at least one of each.  A
    round's ``seconds`` is its duration on the reference host
    (:class:`common.HostSpeed`), ``wall_s`` as it passed."""
    count = max(1, int(seconds / wl.ROUND_SECONDS + 0.5))
    if trace:
        count = max(2, count)
    rounds: list[dict] = []
    for n in range(count):
        traced = trace and n % 2 == 1
        before = perf.snapshot()
        if traced:
            tracer.install()
        ctx.tracer = tracer if traced else None
        t0 = time.perf_counter()
        outcomes = await wl.run_round(ctx, wl.round_jobs(seed, n, jobs))
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        ctx.tracer = None
        rounds.append({
            "traced": traced, "seconds": speed.scaled(t0, t1),
            "wall_s": t1 - t0, "outcomes": outcomes,
            "perf": perf.delta(before, perf.snapshot()),
        })
    await wl.close()
    return rounds


def job_times(rounds: list[dict], seconds) -> list[float]:
    """Each job's time, the median over the rounds of ``seconds(o)``
    for its outcomes.  A round holds the same jobs every time (in
    another order in ``advisor``); a job submitted twice in a round is
    two jobs, its first and its second submission."""
    runs: dict[tuple[str, int], list[float]] = {}
    for r in rounds:
        seen: dict[str, int] = {}
        for o in r["outcomes"]:
            k = seen[o.job.id] = seen.get(o.job.id, -1) + 1
            runs.setdefault((o.job.id, k), []).append(seconds(o))
    return [common.median(v) for v in runs.values()]


def layer_metrics(tracer: tracing.Tracer, rounds: list[dict]) -> dict:
    """Per-layer metrics of the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    counters: dict[str, float] = {}
    for r in traced:
        for k, v in r["perf"].items():
            counters[k] = counters.get(k, 0.0) + v
    c = lambda name: counters.get(name, 0.0)  # noqa: E731
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    w = tracer.work
    out: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["interp.refs_per_s"] = (
        common.ratio(w.interp_refs, self_s["interp"]), "1/s")
    out["store.hit_ratio"] = (common.ratio(
        c("artifacts.hit"), c("artifacts.hit") + c("artifacts.miss")), "ratio")
    out["store.bytes_read"] = (w.store_bytes_read, "B")
    out["store.bytes_written"] = (c("artifacts.store_bytes"), "B")
    out["events.refs_per_s"] = (
        common.ratio(w.events_refs_in, self_s["events"]), "1/s")
    out["events.compaction"] = (common.ratio(
        c("events.compacted_refs"), c("events.split_refs")), "ratio")
    for core in ("native", "python"):
        out[f"kernel.{core}.events_per_s"] = (common.ratio(
            w.kernel_events.get(core, 0),
            w.kernel_seconds.get(core, 0.0)), "1/s")
    out["kernel.native_share"] = (common.ratio(
        w.kernel_events.get("native", 0), sum(w.kernel_events.values())),
        "ratio")
    out["kernel.fallbacks"] = (c("kernel.protocol_fallback"), "count")
    out["memo.hit_ratio"] = (common.ratio(
        c("sim_cache.hit"), c("sim_cache.hit") + c("sim_cache.miss")), "ratio")
    out["dynamic.repairs"] = (w.repairs, "count")
    out["oracle.plan_checks"] = (w.plan_checks, "count")
    out["oracle.ok_frac"] = (common.ratio(w.plans_ok, w.plan_checks), "ratio")
    out["tune.evaluations"] = (c("tune.evaluations"), "count")
    out["tune.dedup_ratio"] = (common.ratio(
        w.tune_dedup_hits, w.tune_evaluations + w.tune_dedup_hits), "ratio")
    waits = [o.queue_wait for r in traced for o in r["outcomes"]
             if o.queue_wait is not None]
    out["service.queue_wait_p50_s"] = (common.median(waits), "s")
    out["service.retries"] = (c("service.retries"), "count")
    out["unattributed.self_s"] = (self_s[tracing.JOB], "s")
    out["unattributed.frac"] = (
        common.ratio(self_s[tracing.JOB], tracer.root_seconds()), "ratio")
    out["trace.overhead_frac"] = (
        common.median([r["seconds"] for r in traced])
        / common.median([r["seconds"] for r in plain]) - 1.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--checkout", required=True, type=Path)
    ap.add_argument("--expected", required=True, type=Path)
    ap.add_argument("--max-jobs", type=int, default=0)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record:
        return record_expected(args)

    expected = json.loads(args.expected.read_text())["jobs"]
    wl = workloads.make(args.workload, expected)
    jobs = wl.draw(args.seed)
    if args.max_jobs:
        jobs = jobs[:args.max_jobs]
    ctx = workloads.Context(args.root)
    tracer = tracing.Tracer() if args.trace else None

    speed = common.HostSpeed()
    speed.start()
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(ctx, jobs)
            setup_spans.append((t0, time.perf_counter()))

        before = perf.snapshot()
        rounds = asyncio.run(measure(wl, ctx, args.seed, jobs,
                                     args.seconds, bool(args.trace),
                                     tracer, speed))
        delta = perf.delta(before, perf.snapshot())
    finally:
        speed.stop()
    setup_times = [speed.scaled(t0, t1) for t0, t1 in setup_spans]
    setup_wall = [t1 - t0 for t0, t1 in setup_spans]

    outcomes = [o for r in rounds for o in r["outcomes"]]
    failures = []
    failed_jobs = 0
    for o in outcomes:
        problems = check(o, expected)
        failed_jobs += bool(problems)
        failures += [f"{o.job.id}: {p}" for p in problems]
    swallowed = swallowed_failures(delta)
    attempted = len(outcomes)
    failed = min(failed_jobs + swallowed, attempted)

    untraced = [r for r in rounds if not r["traced"]]
    done = sum(len(r["outcomes"]) for r in untraced)
    times = job_times(untraced, lambda o: speed.scaled(
        o.start, o.start + o.seconds))
    wall = job_times(untraced, lambda o: o.seconds)
    pct, tail_value = common.tail(times)
    sim = wl.sim_metrics(rounds[0]["outcomes"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (common.median(setup_times), "s"),
        "jobs_per_s": (common.ratio(
            done, sum(r["seconds"] for r in untraced)), "1/s"),
        "job_p50_s": (common.median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "fs_removed_frac": (sim["fs_removed_frac"], "ratio"),
        "layout_growth_frac": (sim["layout_growth_frac"], "ratio"),
        "modelled_cycles": (sim["modelled_cycles"], "cycles"),
    }
    wall_rate = common.ratio(done, sum(r["wall_s"] for r in untraced))
    per_job = (f"{len(times)} jobs, each the median of its "
               f"{len(untraced)} round(s)")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; "
                   f"{common.median(setup_wall):.4g} s as timed",
        "jobs_per_s": f"{done} jobs in rounds of {len(jobs)}; closed "
                      f"loop, {wl.CLIENTS} client(s), "
                      f"{wl.resubmit_share(jobs):.0%} resubmissions; "
                      f"{wall_rate:.4g}/s as timed",
        "job_p50_s": f"{per_job}; {common.median(wall):.4g} s as timed",
        "job_tail_s": f"p{pct:.1f} of {per_job}; "
                      f"{common.tail(wall)[1]:.4g} s as timed",
        "ok_frac": f"fail_frac {failed / attempted:.4f} = {failed} failed "
                   f"/ {attempted} attempted ({swallowed} swallowed)",
        "fs_removed_frac": f"base {sim['fs_base']}",
        "layout_growth_frac": f"base {sim['growth_base']}",
        "modelled_cycles": f"simulated KSR2 cycles, {sim['cycles_base']}; "
                           "unvalidated against hardware",
    }
    if args.trace:
        shown = layer_metrics(tracer, rounds)
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(tracer.to_records()))
    else:
        shown = end_to_end

    cores = [k for k in ("native", "python") if delta.get(f"sim.{k}.runs")]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": common.fingerprint(args.checkout, args.seed, cores),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "notes": notes,
        "paper": wl.paper_rows(jobs),
        "failures": failures[:50],
        "rounds": [{"traced": r["traced"], "seconds": r["seconds"],
                    "wall_s": r["wall_s"], "jobs": len(r["outcomes"])}
                   for r in rounds],
    }
    print(json.dumps(record))
    return 0


def record_expected(args) -> int:
    """Run every job a seed can draw once and print what it observed."""
    wl = workloads.make(args.workload)
    jobs = list(dict.fromkeys(wl.space()))
    ctx = workloads.Context(args.root)
    wl.setup(ctx, jobs)

    async def once():
        try:
            return await wl.run_round(ctx, jobs)
        finally:
            await wl.close()

    out = {}
    for o in asyncio.run(once()):
        if o.error is not None:
            raise SystemExit(f"{o.job.id}: {o.error}")
        out[o.job.id] = o.observed | wl.recorded_extra(o.job)
    print(json.dumps({"workload": args.workload, "jobs": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
