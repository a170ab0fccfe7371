"""Benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1          # all three
    python3 perfbench/run.py --workload advisor --seed 1 --trace 1

Each workload runs in a fresh Python process with every ``REPRO_*``
variable scrubbed, the result-changing ones pinned, and private
temporary roots for traces, artifacts and the kernel cache under
``.perfbench_tmp/`` (removed afterwards).  Every job is checked
against ``perfbench/expected.json``.  The last line of standard output
is the JSON result; the exit code is 0 only when every job was correct.

``--record`` rewrites the expected-output file from the current code,
simulating with the Python reference simulator instead of the native
kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("cold-paper", "warm-sweep", "advisor")
#: a workload process that runs longer than this is killed
CHILD_TIMEOUT = 170.0
RECORD_TIMEOUT = 3600.0


def child_env(checkout: Path, root: Path, *, reference: bool) -> dict:
    """The environment of one workload process: no ambient ``REPRO_*``
    knob leaks in; the ones that change results are pinned."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update({
        "PYTHONPATH": str(checkout / "src"),
        "REPRO_SCHED": "rr",
        "REPRO_JOBS": "1",
        "REPRO_RUN_LOG": "0",
        "REPRO_SIM_MEMO": "0",
        "REPRO_TRACE_CACHE": str(root / "traces"),
        "REPRO_ARTIFACTS": str(root / "artifacts"),
        "REPRO_KERNEL_CACHE": str(root / "kernel"),
    })
    if reference:
        env["REPRO_SIM_ENGINE"] = "reference"
    return env


def pin_one_cpu() -> None:
    """Run on one CPU, and so do the workload processes started after
    (they inherit it).  The host-speed probe (``common.HostSpeed``)
    must share the CPU with the work it scales: each CPU of a shared
    host changes speed on its own.  The program runs one thread at a
    time but for the native kernel, which the advisor's second service
    worker could overlap with Python work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(checkout: Path, workload: str, args, extra: list[str],
              *, reference: bool = False,
              timeout: float = CHILD_TIMEOUT) -> dict:
    base = checkout / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--checkout", str(checkout),
        "--expected", str(args.expected), *extra,
    ]
    if args.max_jobs:
        cmd += ["--max-jobs", str(args.max_jobs)]
    try:
        proc = subprocess.run(
            cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
            env=child_env(checkout, root, reference=reference),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} exceeded {timeout:.0f}s")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"perfbench: {workload} process failed (exit {proc.returncode})"
        )
    return json.loads(lines[-1])


def show(record: dict) -> None:
    """Every metric by name, value and unit, with what it is based on."""
    name = record["workload"]
    notes = record["notes"]
    for metric, m in record["metrics"].items():
        note = notes.get(metric, "")
        print(f"{name:<11} {metric:<28} {m['value']:>14.6g} {m['unit']:<6}"
              + (f"  {note}" if note else ""))
    for row in record["paper"]:
        print(f"{name:<11} {row}")
    fp = record["fingerprint"]
    print(f"{name:<11} fingerprint {json.dumps(fp, sort_keys=True)}")
    for failure in record["failures"][:10]:
        print(f"{name:<11} FAILED {failure}")


def record_expected(checkout: Path, args) -> int:
    out = {"comment": "expected job outputs, recorded by "
                      "'python3 perfbench/run.py --record' with the "
                      "Python reference simulator", "jobs": {}}
    for workload in WORKLOADS:
        rec = run_child(checkout, workload, args, ["--record"],
                        reference=True, timeout=RECORD_TIMEOUT)
        out["jobs"].update(rec["jobs"])
        print(f"{workload}: {len(rec['jobs'])} expected records")
    args.expected.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json")
    ap.add_argument("--max-jobs", type=int, default=0,
                    help="cut each round to its first N jobs (tests)")
    ap.add_argument("--out", type=Path,
                    help="append the full result records (JSON lines)")
    ap.add_argument("--spans-out", type=Path,
                    help="traced runs: write the spans of a workload "
                         "to this file (one workload only)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected-output file")
    args = ap.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    pin_one_cpu()
    if args.record:
        return record_expected(checkout, args)
    if not args.expected.is_file():
        print(f"perfbench: no expected-output file {args.expected}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    extra = []
    if args.spans_out and len(names) == 1:
        extra = ["--spans-out", str(args.spans_out.resolve())]
    records = []
    for name in names:
        record = run_child(checkout, name, args, extra)
        show(record)
        records.append(record)
        if args.out:
            with args.out.open("a") as f:
                f.write(json.dumps(record) + "\n")
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
