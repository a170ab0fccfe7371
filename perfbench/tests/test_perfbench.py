"""The benchmark's own tests, at a tiny size (one or two jobs a round).

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload: str, *extra: str) -> tuple[int, list[str], dict]:
    code, lines = run("--workload", workload, "--seed", "3",
                      "--seconds", "0", "--max-jobs", "2", *extra)
    return code, lines, json.loads(lines[-1])


def assert_metrics(lines: list[str], result: dict, declared: list[dict]):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(m["name"] in line and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(workload):
    code, lines, result = tiny(workload)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_metrics(lines, result, SPEC["end_to_end"])


def test_traced_run_prints_every_layer_metric():
    code, lines, result = tiny("advisor", "--trace", "1")
    assert code == 0, lines
    assert_metrics(lines, result, SPEC["per_layer"])
    assert result["metrics"]["service.calls"]["value"] >= 1


def test_corrupted_expected_value_is_a_failure(tmp_path):
    import workloads

    job = workloads.ColdPaper().draw(3)[0]
    data = json.loads((BENCH / "expected.json").read_text())
    data["jobs"][job.id]["trace_len"] += 1
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(data))
    code, lines = run("--workload", "cold-paper", "--seed", "3",
                      "--seconds", "0", "--max-jobs", "1",
                      "--expected", str(bad))
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("FAILED" in line and "trace_len" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = run("--workload", "advisor", "--seed", "1",
                      "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_fingerprints_must_match_except_code():
    a = {"seed": 1, "commit": "x", "source": "s1", "nproc": 2,
         "cores": ["native"]}
    assert common.comparable(a, dict(a, commit="y", source="s2")) == []
    assert common.comparable(a, dict(a, nproc=4)) == ["nproc"]
    assert common.comparable(a, dict(a, cores=["native", "python"])) == [
        "cores"]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    pct, value = common.tail(values)
    assert pct == 75.0
    assert sum(v > value for v in values) == 10


def test_host_speed_scales_by_mean_probe_speed():
    speed = common.HostSpeed()
    speed.at = [1.0, 2.0, 3.0, 4.0]
    speed.speeds = [1.0, 0.5, 0.5, 1.0]
    assert speed.scaled(0.5, 4.5) == pytest.approx(4.0 * 0.75)
    # fewer than PROBE_MIN probes inside: widened to the nearest ones
    assert speed.scale(1.9, 2.1) == pytest.approx(2.0 / 3.0)


def test_host_speed_probes_while_running():
    import time

    speed = common.HostSpeed()
    speed.start()
    try:
        time.sleep(0.2)
    finally:
        speed.stop()
    assert len(speed.speeds) >= 3
    assert all(s > 0 for s in speed.speeds)


def test_job_time_is_its_median_over_rounds():
    from types import SimpleNamespace as NS

    import child

    def outcome(job_id, seconds):
        return NS(job=NS(id=job_id), seconds=seconds)

    rounds = [
        {"outcomes": [outcome("a", 1.0), outcome("b", 5.0),
                      outcome("a", 9.0)]},
        {"outcomes": [outcome("a", 3.0), outcome("a", 7.0),
                      outcome("b", 6.0)]},
    ]
    # the second submission of "a" in a round is a job of its own
    assert sorted(child.job_times(rounds, lambda o: o.seconds)) == [
        2.0, 5.5, 8.0]
