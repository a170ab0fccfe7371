"""The run configuration: resolved once at the CLI boundary, passed
down explicitly, and the only reader of the run knobs."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro import cli
from repro.config import RunConfig, SchedConfig
from repro.errors import ReproError
from repro.harness.experiments import WorkloadLab
from repro.harness import pipeline
from repro.harness.pipeline import Pipeline
from repro.workloads.registry import by_name

from conftest import COUNTER_SRC

RUN_ENV = ("REPRO_MACHINE", "REPRO_SCHED", "REPRO_SIM_KERNEL",
           "REPRO_SIM_ENGINE")


@pytest.fixture
def clean_env(monkeypatch):
    for name in RUN_ENV:
        monkeypatch.delenv(name, raising=False)


def _main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err


# -- from_env / override -----------------------------------------------------


def test_from_env_defaults(clean_env):
    assert RunConfig.from_env() == RunConfig()
    assert RunConfig().describe() == (
        "machine=ksr2 sched=rr kernel=auto engine=fast"
    )


@pytest.mark.parametrize("name", RUN_ENV)
def test_from_env_bad_value_is_one_line(clean_env, monkeypatch, name):
    monkeypatch.setenv(name, "bogus")
    with pytest.raises(ReproError) as e:
        RunConfig.from_env()
    assert name in str(e.value) and "\n" not in str(e.value)


def test_override_folds_seed_and_grain_over_env_steal(clean_env, monkeypatch):
    monkeypatch.setenv("REPRO_SCHED", "steal")
    got = RunConfig.from_env().override(seed=7, grain=3)
    assert got.sched == SchedConfig("steal", seed=7, grain=3)


@pytest.mark.parametrize("env_sched", [None, "rr"])
@pytest.mark.parametrize("flag", [["--sched-seed", "3"], ["--grain", "5"]])
def test_seed_or_grain_under_rr_is_an_error(
    clean_env, monkeypatch, capsys, env_sched, flag
):
    if env_sched:
        monkeypatch.setenv("REPRO_SCHED", env_sched)
    code, err = _main(["run", "Maxflow", "-p", "2", *flag], capsys)
    assert code == 2
    assert err.startswith("repro: ") and len(err.strip().splitlines()) == 1
    assert "steal" in err


def test_run_takes_seed_and_grain_over_env_steal(
    clean_env, monkeypatch, capsys
):
    """``REPRO_SCHED=steal repro run ... --sched-seed 7 --grain 3`` used
    to run seed 0, grain 16."""
    seen = []

    def fake_run_program(checked, layout, nprocs, *, max_steps, sched):
        seen.append(sched)
        raise ReproError("stop")

    monkeypatch.setenv("REPRO_SCHED", "steal")
    monkeypatch.setenv("REPRO_ARTIFACTS", "0")
    monkeypatch.setattr(pipeline, "run_program", fake_run_program)
    code, _ = _main(["run", "Maxflow", "-p", "4", "--sched-seed", "7",
                     "--grain", "3"], capsys)
    assert code == 2
    assert seen == [SchedConfig("steal", seed=7, grain=3)]


# -- each command takes only the flags it honours ----------------------------

IGNORED_FLAGS = [
    (cmd, flag)
    for cmd in ("analyze", "transform", "transforms")
    for flag in (["--sched", "steal"], ["--sched-seed", "1"],
                 ["--grain", "2"], ["--machine", "modern64"],
                 ["--sim-kernel", "python"])
] + [
    ("run", ["--machine", "modern64"]),
    ("run", ["--sim-kernel", "python"]),
    ("tune", ["--machine", "modern64"]),
]


@pytest.mark.parametrize(
    "cmd,flag", IGNORED_FLAGS, ids=[f"{c}{f[0]}" for c, f in IGNORED_FLAGS]
)
def test_command_rejects_flags_it_ignores(capsys, cmd, flag):
    code, err = _main([cmd, "Pverify", *flag], capsys)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err


_FLAG_ARGS = {
    "--sched": ["--sched", "steal"], "--sched-seed": ["--sched-seed", "3"],
    "--grain": ["--grain", "2"], "--machine": ["--machine", "numa2"],
    "--bench-out": ["--bench-out", "out.json"],
}
EXPERIMENT_IGNORED = [
    (artifact, flag)
    for artifact, flags in (
        ("table1", ("--sched", "--sched-seed", "--grain", "--machine",
                    "--bench-out")),
        ("rws", ("--sched", "--sched-seed", "--grain")),
        ("dynamic", ("--sched", "--sched-seed", "--grain", "--machine")),
        ("figure3", ("--bench-out",)),
    )
    for flag in flags
]


@pytest.mark.parametrize(
    "artifact,flag", EXPERIMENT_IGNORED,
    ids=[f"{a}{f}" for a, f in EXPERIMENT_IGNORED],
)
def test_experiments_rejects_flags_an_artifact_ignores(
    clean_env, monkeypatch, tmp_path, capsys, artifact, flag
):
    log = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_RUN_LOG", str(log))
    argv = ["experiments", artifact, *_FLAG_ARGS[flag]]
    if flag in ("--sched-seed", "--grain"):
        argv += ["--sched", "steal"]  # a well-formed steal schedule
    code, err = _main(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"repro: experiments {artifact} does not take ")
    assert flag in err
    assert not log.exists()  # nothing ran, so nothing was recorded


# -- the CLI writes nothing into the environment -----------------------------# -- the CLI writes nothing into the environment -----------------------------


def _commands(tmp):
    return {
        "analyze": ["analyze", "Pverify", "-p", "2"],
        "transform": ["transform", "Pverify", "-p", "2"],
        "transforms": ["transforms", "Pverify", "-p", "2"],
        "tune": ["tune", "Pverify", "-p", "2", "--budget", "2", "--top",
                 "1", "--no-verify", "--sched", "steal", "--sim-kernel",
                 "python"],
        "run": ["run", "Pverify", "-p", "2", "--sched", "steal"],
        "simulate": ["simulate", "Pverify", "-p", "2", "--machine",
                     "modern64", "--sim-kernel", "python", "--profile"],
        "profile": ["profile", "Pverify", "-p", "2", "--sched", "steal",
                    "--machine", "numa2"],
        "experiments": ["experiments", "table1", "--sched", "steal",
                        "--machine", "modern64"],
        "verify": ["verify", "Pverify", "-p", "2", "--sched", "steal"],
        "workloads": ["workloads"],
        "history": ["history", "--store", str(tmp / "store")],
        "report": ["report", "--store", str(tmp / "store"), "--dashboard",
                   str(tmp / "d.html")],
        "serve": ["serve", "--port", "0"],  # stopped by its retries knob
        # a malformed address: both fail before opening a connection
        "submit": ["submit", "Pverify", "--connect", "nowhere"],
        "jobs": ["jobs", "--connect", "nowhere"],
        "artifacts": ["artifacts", "--root", str(tmp / "art")],
    }


COMMANDS = sorted(_commands(Path(".")))


def test_every_subcommand_is_covered():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert set(sub.choices) == set(COMMANDS)


@pytest.mark.parametrize("cmd", COMMANDS)
def test_main_leaves_environ_unchanged(
    clean_env, monkeypatch, tmp_path, capsys, cmd
):
    monkeypatch.setenv("REPRO_RUN_LOG", "0")
    if cmd == "serve":
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "two")
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    _main(_commands(tmp_path)[cmd], capsys)
    assert dict(os.environ) == before


def test_flags_beat_conflicting_env(clean_env, monkeypatch, tmp_path, capsys):
    """Every path below the boundary sees the flags, not the env."""
    log = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_RUN_LOG", str(log))
    monkeypatch.setenv("REPRO_MACHINE", "numa2")
    monkeypatch.setenv("REPRO_SCHED", "rr")
    code, _ = _main(["profile", "Pverify", "-p", "4", "--machine",
                     "modern64", "--sched", "steal", "--sched-seed", "3",
                     "--grain", "5"], capsys)
    assert code == 0
    recs = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(recs) == 2
    for rec in recs:
        assert rec["machine"]["name"] == "modern64"
        assert rec["config"] == (
            "machine=modern64 sched=steal:seed=3:grain=5 kernel=auto "
            "engine=fast"
        )


# -- workers get the config with their tasks ---------------------------------


def test_lab_steal_config_same_traces_across_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS", "0")  # interpret every run
    monkeypatch.setenv("REPRO_SCHED", "rr")  # what a worker would re-read
    config = RunConfig(sched=SchedConfig("steal", seed=4))
    wl = by_name("Pverify")
    points = [(wl.name, "N", 2), (wl.name, "C", 2)]
    labs = {jobs: WorkloadLab(jobs=jobs, config=config) for jobs in (1, 2)}
    for lab in labs.values():
        lab.prefetch(points)
    for _, version, nprocs in points:
        serial = labs[1].run(wl, version, nprocs).run
        pooled = labs[2].run(wl, version, nprocs).run
        assert pooled.sched is not None and pooled.sched["seed"] == 4
        assert pooled.trace.fingerprint == serial.trace.fingerprint


# -- identity ----------------------------------------------------------------

#: A non-default value per field (a new field needs one here).
_OTHER = {
    "machine": "modern64",
    "sched": SchedConfig("steal", seed=1),
    "kernel": "python",
    "engine": "reference",
}


def test_every_field_is_in_the_trace_key_or_named_irrelevant():
    """A field that can change a trace must change the trace key (the
    key once missed the scheduler and replayed rr traces as steal
    runs); the others are listed as irrelevant on purpose, so one
    stored trace serves every machine, core and engine."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert RunConfig.TRACE_IRRELEVANT <= names
    base = Pipeline(COUNTER_SRC, config=RunConfig())._run_key(None, 4)
    for name in sorted(names):
        changed = dataclasses.replace(RunConfig(), **{name: _OTHER[name]})
        key = Pipeline(COUNTER_SRC, config=changed)._run_key(None, 4)
        assert (key == base) == (name in RunConfig.TRACE_IRRELEVANT), name


# -- numeric knobs -----------------------------------------------------------


def _jobs_manager():
    from repro.service.server import JobManager

    return JobManager()


def _reader(name):
    from repro.harness import parallel
    from repro.runtime import artifacts, stream, trace_cache

    return {
        "REPRO_JOBS": parallel.default_jobs,
        "REPRO_TRACE_CHUNK": stream.default_chunk_refs,
        "REPRO_TRACE_QUEUE": stream.default_queue_chunks,
        "REPRO_TRACE_CACHE_MIN": trace_cache.min_refs,
        "REPRO_TRACE_SHARD_REFS": trace_cache.shard_refs,
        "REPRO_ARTIFACTS_MAX_MB": artifacts.default_store,
        "REPRO_SERVICE_RETRIES": _jobs_manager,
        "REPRO_SERVICE_TIMEOUT": _jobs_manager,
    }[name]


NUMERIC_KNOBS = (
    "REPRO_JOBS", "REPRO_TRACE_CHUNK", "REPRO_TRACE_QUEUE",
    "REPRO_TRACE_CACHE_MIN", "REPRO_TRACE_SHARD_REFS",
    "REPRO_ARTIFACTS_MAX_MB", "REPRO_SERVICE_RETRIES",
    "REPRO_SERVICE_TIMEOUT",
)


@pytest.mark.parametrize("name", NUMERIC_KNOBS)
def test_malformed_numeric_knob_is_one_line_error(monkeypatch, name):
    monkeypatch.setenv(name, "two")
    with pytest.raises(ReproError) as e:
        _reader(name)()
    msg = str(e.value)
    assert msg.startswith(f"{name} must be a") and "'two'" in msg
    assert "\n" not in msg


def test_serve_with_malformed_retries_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "two")
    code, err = _main(["serve", "--port", "0"], capsys)
    assert code == 2
    assert err.strip() == (
        "repro: REPRO_SERVICE_RETRIES must be an integer; got 'two'"
    )
