"""Observability layer tests: span tracing, Chrome trace export, run
manifests, and the parallel lab's counter/span merging."""

import json

import pytest

from repro import perf
from repro.config import RunConfig
from repro.obs import chrome, manifest
from repro.obs import spans as obs


@pytest.fixture()
def tracing():
    """Span tracing on for one test, fully restored afterwards."""
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.disable()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_is_noop(self):
        obs.disable()
        obs.reset()
        with obs.span("nope", detail=1) as sp:
            assert sp is None
        assert obs.roots() == []

    def test_nesting_and_duration(self, tracing):
        with obs.span("outer", kind="test"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                pass
        roots = obs.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner.a", "inner.b"]
        assert roots[0].dur >= sum(c.dur for c in roots[0].children) >= 0.0
        assert roots[0].meta == {"kind": "test"}

    def test_interp_run_span_holds_lowering(self, tracing, counter_checked):
        """Lowering happens inside Interpreter.run, in an ``interp.lower``
        child of ``interp.run``, which reports its reference rate."""
        from repro.layout import DataLayout
        from repro.runtime import run_program

        run = run_program(counter_checked, DataLayout(counter_checked, nprocs=2), 2)
        (root,) = obs.roots()
        assert root.name == "interp.run"
        assert [c.name for c in root.children] == ["interp.lower"]
        assert root.meta["trace_len"] == len(run.trace)
        assert root.meta["refs_per_s"] > 0

    def test_streamed_interp_spans_nest_under_producer(self, tracing, counter_checked):
        """The producer thread's spans hang under ``stream.produce``
        instead of becoming extra roots (which would double-count)."""
        from repro.layout import DataLayout
        from repro.runtime.stream import stream_simulate
        from repro.sim import CacheConfig

        layout = DataLayout(counter_checked, nprocs=2, block_size=64)
        stream_simulate(
            counter_checked, layout, 2, CacheConfig(size=8192, block_size=64, assoc=4),
            chunk_refs=50,
        )
        (root,) = obs.roots()
        produce = next(c for c in root.children if c.name == "stream.produce")
        assert [c.name for c in produce.children] == ["interp.run"]

    def test_counter_deltas(self, tracing):
        perf.reset()
        perf.add("outside", 7)
        with obs.span("stage"):
            perf.add("inside", 3)
        (sp,) = obs.roots()
        assert sp.counters == {"inside": 3.0}

    def test_exception_recorded_and_stack_popped(self, tracing):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        (sp,) = obs.roots()
        assert sp.meta["error"] == "ValueError"
        with obs.span("after"):
            pass
        assert [r.name for r in obs.roots()] == ["boom", "after"]

    def test_snapshot_roundtrip(self, tracing):
        with obs.span("root", n=1):
            with obs.span("child"):
                pass
        snap = obs.span_snapshot()
        assert json.loads(json.dumps(snap)) == snap  # picklable/JSON-able
        sp = obs.Span.from_dict(snap[0])
        assert sp.name == "root" and sp.children[0].name == "child"

    def test_attach_worker_spans(self, tracing):
        with obs.span("w"):
            with obs.span("w.inner"):
                pass
        snap = obs.span_snapshot()
        obs.reset()
        obs.attach_worker_spans("worker[0]:Pverify/N/2", snap)
        (sp,) = obs.roots()
        assert sp.worker == "worker[0]:Pverify/N/2"
        assert sp.children[0].worker == sp.worker
        tree = obs.render_tree()
        assert "worker[0]:Pverify/N/2:w" in tree
        # children show the bare name (the lane is inherited)
        assert "worker[0]:Pverify/N/2:w.inner" not in tree

    def test_render_tree_and_timings(self, tracing):
        with obs.span("a", note="hi"):
            with obs.span("b"):
                pass
        with obs.span("b"):
            pass
        tree = obs.render_tree()
        assert "a" in tree and "└─ b" in tree and "(note=hi)" in tree
        flat = obs.flat_timings()
        assert set(flat) == {"a", "b"}
        assert obs.total_seconds() >= flat["a"]

    def test_render_tree_empty(self, tracing):
        assert "no spans recorded" in obs.render_tree()

    def test_enable_exports_env(self, tracing, monkeypatch):
        """Tracing is process state: enable() exports nothing into the
        environment (grid workers get the switch with their tasks)."""
        import os

        monkeypatch.delenv(obs.PROFILE_ENV, raising=False)
        obs.enable()
        assert obs.PROFILE_ENV not in os.environ
        obs.disable()
        assert obs.PROFILE_ENV not in os.environ


# ---------------------------------------------------------------------------
# chrome trace export
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_export_validates(self, tracing, tmp_path):
        with obs.span("root", nprocs=2):
            with obs.span("child"):
                perf.add("c", 1)
        obj = chrome.to_trace_events()
        assert chrome.validate_trace(obj) == len(obj["traceEvents"])
        names = [e["name"] for e in obj["traceEvents"]]
        assert "root" in names and "child" in names and "process_name" in names
        out = tmp_path / "trace.json"
        assert chrome.write_trace(out) == len(obj["traceEvents"])
        assert chrome.validate_trace_file(out) == len(obj["traceEvents"])

    def test_worker_lanes_get_distinct_pids(self, tracing):
        with obs.span("local"):
            pass
        snap = obs.span_snapshot()
        obs.attach_worker_spans("worker[0]", snap)
        obs.attach_worker_spans("worker[1]", snap)
        obj = chrome.to_trace_events()
        pids = {
            e["pid"] for e in obj["traceEvents"] if e["ph"] == "X"
        }
        assert pids == {0, 1, 2}
        lane_names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M"
        }
        assert {"repro", "worker[0]", "worker[1]"} <= lane_names

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"traceEvents": []},
            {"traceEvents": [{"name": "", "ph": "X", "pid": 0, "tid": 0}]},
            {"traceEvents": [{"name": "a", "ph": "Q", "pid": 0, "tid": 0}]},
            {"traceEvents": [{"name": "a", "ph": "X", "pid": "x", "tid": 0}]},
            {
                "traceEvents": [
                    {"name": "a", "ph": "X", "pid": 0, "tid": 0,
                     "ts": -1, "dur": 0}
                ]
            },
        ],
    )
    def test_validate_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            chrome.validate_trace(obj)

    def test_validate_file_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError):
            chrome.validate_trace_file(bad)

    def test_default_trace_out_env(self, monkeypatch):
        monkeypatch.delenv(chrome.TRACE_OUT_ENV, raising=False)
        assert chrome.default_trace_out() is None
        monkeypatch.setenv(chrome.TRACE_OUT_ENV, "/tmp/t.json")
        assert str(chrome.default_trace_out()) == "/tmp/t.json"


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


def _sim_result(protocol="mesi", block_size=64):
    """A tiny real SimResult (two processors, two references)."""
    from repro.sim.cache import CacheConfig
    from repro.sim.coherence import CoherenceSim

    sim = CoherenceSim(
        2,
        CacheConfig(
            size=1024, block_size=block_size, assoc=2, protocol=protocol
        ),
    )
    sim.access(0, 0, 4, True)
    sim.access(1, 4, 4, False)
    return sim.result()


def _record(workload="Pverify", **kw):
    defaults = dict(
        kind="test",
        workload=workload,
        source="int main() { return 0; }",
        plan_desc="natural",
        nprocs=2,
        block_size=128,
        refs=100,
        trace_len=80,
        misses={"cold": 1, "replace": 0, "true": 2, "false": 3},
        fs_by_structure={"counter": 3},
        perf_snapshot={"trace_cache.hit": 1.0, "secret.counter": 9.0},
        span_timings={"pipeline.execute": 0.25},
    )
    defaults.update(kw)
    return manifest.build_record(**defaults)


class TestManifest:
    def test_build_record_shape(self):
        rec = _record(extra={"wall_seconds": 1.5})
        assert rec["schema"] == manifest.SCHEMA
        assert rec["source_sha256"] == manifest.source_hash(
            "int main() { return 0; }"
        )
        assert rec["misses"]["false"] == 3
        assert rec["spans"] == {"pipeline.execute": 0.25}
        assert rec["wall_seconds"] == 1.5
        # perf counters are filtered to the persisted allowlist
        assert rec["perf"] == {"trace_cache.hit": 1.0}
        json.dumps(rec)  # must be JSON-serializable as-is

    def test_record_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(manifest.RUN_LOG_ENV, raising=False)
        assert manifest.log_path() is None
        assert manifest.record(_record()) is None
        monkeypatch.setenv(manifest.RUN_LOG_ENV, "off")
        assert manifest.log_path() is None

    def test_append_and_read(self, tmp_path, monkeypatch):
        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv(manifest.RUN_LOG_ENV, str(log))
        assert manifest.record(_record(workload="A")) == log
        assert manifest.record(_record(workload="B")) == log
        recs = manifest.read_all()
        assert [r["workload"] for r in recs] == ["A", "B"]

    def test_read_skips_corrupt_lines(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        log.write_text(
            json.dumps(_record(workload="A")) + "\n"
            + "{truncated...\n"
            + "[1, 2]\n"
            + json.dumps(_record(workload="B")) + "\n"
        )
        recs = manifest.read_all(log)
        assert [r["workload"] for r in recs] == ["A", "B"]

    def test_last_for_ignores_version_suffix(self, tmp_path, monkeypatch):
        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv(manifest.RUN_LOG_ENV, str(log))
        manifest.record(_record(workload="Maxflow/N", refs=1))
        manifest.record(_record(workload="Maxflow/C", refs=2))
        manifest.record(_record(workload="Water", refs=3))
        assert manifest.last_for("maxflow")["refs"] == 2
        assert manifest.last_for("Water")["refs"] == 3
        assert manifest.last_for("Pthor") is None

    def test_schema2_fields(self):
        rec = _record(
            kernel="native", chunk_size=4096,
            stream={"chunks_produced": 3, "stall_seconds": 0.01},
        )
        assert rec["schema"] == manifest.SCHEMA
        assert rec["kernel"] == "native"
        assert rec["chunk_size"] == 4096
        assert rec["stream"]["chunks_produced"] == 3
        # monolithic runs record the fields too, just empty
        batch = _record()
        assert batch["kernel"] is None
        assert batch["chunk_size"] is None and batch["stream"] == {}

    def test_upgrade_record_backfills_schema1(self, tmp_path):
        """Schema-1 records are no longer backfilled: the upgrader is
        gone and ``read_all`` skips the record instead of returning it
        with schema-3 defaults filled in."""
        assert not hasattr(manifest, "upgrade_record")
        old = {
            "schema": 1, "ts": "2026-01-01T00:00:00+00:00",
            "kind": "profile", "workload": "Water",
            "misses": {"false": 9}, "custom": "kept",
        }
        log = tmp_path / "runs.jsonl"
        log.write_text(json.dumps(old) + "\n")
        assert manifest.read_all(log) == []
        assert manifest.last_for("Water", log) is None

    def test_upgrade_record_backfills_schema2_machine(self, tmp_path):
        """A schema-2 record's geometry-only machine dict is not stamped
        with the KSR2/MSI identity any more; the record is skipped by
        ``read_all`` and counted corrupt by ingest."""
        from repro.obs.store import RunStore

        old = dict(_record(workload="Water"), schema=2)
        old["machine"] = {"block_size": 64, "cache_size": 32768, "assoc": 4}
        log = tmp_path / "runs.jsonl"
        log.write_text(json.dumps(old) + "\n")
        assert manifest.read_all(log) == []
        rep = RunStore(tmp_path / "store").ingest(log)
        assert rep.ingested == 0 and rep.corrupt == 1
        assert list(RunStore(tmp_path / "store").records()) == []

    def test_upgrade_record_keeps_schema3_machine(self, tmp_path):
        """A schema-3 record's machine identity survives the log round
        trip unchanged."""
        rec = _record()
        rec["machine"] = {
            "name": "modern64", "protocol": "mesi", "line_size": 64,
        }
        log = tmp_path / "runs.jsonl"
        log.write_text(json.dumps(rec) + "\n")
        (got,) = manifest.read_all(log)
        assert got["machine"]["name"] == "modern64"
        assert got["machine"]["protocol"] == "mesi"
        assert got == json.loads(json.dumps(rec))

    def test_sim_record_machine_identity(self):
        sim = _sim_result()
        rec = manifest.sim_record(
            kind="dynamic", workload="Maxflow/D",
            source="int main() { return 0; }", plan_desc="natural",
            nprocs=4, block_size=64, sim=sim,
            dynamic={"repairs": 2, "phases": 5},
            config=RunConfig(machine="modern64"),
        )
        assert rec["schema"] == manifest.SCHEMA
        assert rec["machine"]["name"] == "modern64"
        assert rec["config"] == RunConfig(machine="modern64").describe()
        assert rec["machine"]["protocol"] == sim.config.protocol
        assert rec["machine"]["line_size"] == sim.config.block_size
        assert rec["dynamic"] == {"repairs": 2, "phases": 5}
        json.dumps(rec)

    def test_read_all_upgrades_by_default(self, tmp_path):
        """``read_all`` has no ``upgrade`` switch any more: it returns
        schema-3 records as written and skips older ones."""
        log = tmp_path / "runs.jsonl"
        current = _record(workload="B")
        log.write_text(
            json.dumps({"schema": 1, "workload": "A"}) + "\n"
            + json.dumps(current) + "\n"
        )
        (got,) = manifest.read_all(log)
        assert got["schema"] == manifest.SCHEMA and got["workload"] == "B"
        with pytest.raises(TypeError):
            manifest.read_all(log, upgrade=False)

    def test_pre_schema3_records_counted_corrupt(self, tmp_path):
        """Schema-1 and schema-2 lines are no longer upgraded: ingest
        skips and counts them, and ``read_all`` skips them, while the
        schema-3 line still lands with its content-hash id."""
        from repro.obs.store import RunStore, record_id

        current = _record(workload="C")
        log = tmp_path / "runs.jsonl"
        log.write_text(
            json.dumps({"schema": 1, "workload": "A"}) + "\n"
            + json.dumps(dict(_record(workload="B"), schema=2)) + "\n"
            + json.dumps(current) + "\n"
        )
        rep = RunStore(tmp_path / "store").ingest(log)
        assert rep.ingested == 1 and rep.corrupt == 2
        (stored,) = RunStore(tmp_path / "store").records()
        assert stored["workload"] == "C"
        assert stored["id"] == record_id(current)
        assert [r["workload"] for r in manifest.read_all(log)] == ["C"]


# ---------------------------------------------------------------------------
# parallel lab merging (regression: worker counters must never be lost)
# ---------------------------------------------------------------------------


class TestParallelMerge:
    def test_worker_counters_and_spans_merged(self, tracing, monkeypatch):
        from repro.harness.parallel import run_points

        monkeypatch.setenv("REPRO_JOBS", "2")
        perf.reset()
        points = [("Pverify", "N", 2), ("Pverify", "C", 2)]
        out = run_points(points, 128)
        assert set(out) == set(points)
        snap = perf.snapshot()
        assert snap.get("parallel.points") == 2.0
        # every worker's interpreter counters came back to the parent
        assert snap.get("worker.interp.runs", 0) + snap.get(
            "worker.trace_cache.hit", 0
        ) >= 2.0
        labels = [sp.worker for sp in obs.roots()]
        # grid order: all of worker 0's roots, then all of worker 1's
        assert sorted(set(labels), key=labels.index) == [
            "worker[0]:Pverify/N/2",
            "worker[1]:Pverify/C/2",
        ]

    def test_one_bad_point_keeps_the_rest(self, monkeypatch):
        from repro.harness.parallel import run_points

        monkeypatch.setenv("REPRO_JOBS", "2")
        perf.reset()
        points = [("Pverify", "Z", 2), ("Pverify", "N", 2)]
        out = run_points(points, 128)
        assert set(out) == {("Pverify", "N", 2)}
        snap = perf.snapshot()
        assert snap.get("parallel.point_failed") == 1.0
        assert snap.get("parallel.points") == 1.0
        # the surviving worker's counters were still merged
        assert any(k.startswith("worker.") for k in snap)
