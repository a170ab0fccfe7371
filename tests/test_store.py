"""The run-record store: ingest, sharding, indexes, queries.

Covers the ISSUE-7 acceptance surface: idempotent content-hash ingest,
corrupt/truncated JSONL handled by skip-and-log (never aborting the
batch), concurrent manifest writers and concurrent ingesters, the
round-trip property (ingest -> query returns the source records), and
the warm grouped-aggregate query over 1,000+ records in under a second.
"""

import json
import multiprocessing as mp
import time

import pytest

from repro.obs import manifest
from repro.obs.query import (
    Aggregate,
    Filter,
    Query,
    QueryError,
    get_field,
    parse_when,
    percentile,
    run_query,
)
from repro.obs.store import IngestReport, RunStore, record_id


def make_record(i: int, *, workload="Maxflow/N", block_size=128, fs=400,
                ts=None, **extra) -> dict:
    rec = {
        "schema": 3,
        "ts": ts or f"2026-08-{1 + i % 27:02d}T{i % 24:02d}:00:{i % 60:02d}+00:00",
        "kind": "experiment",
        "workload": workload,
        "source_sha256": "a" * 64,
        "plan": "natural",
        "nprocs": 12,
        "block_size": block_size,
        "machine": {
            "name": "ksr2", "protocol": "msi", "line_size": block_size,
            "cache_size": 32768, "assoc": 4, "block_size": block_size,
        },
        "kernel": "python",
        "chunk_size": None,
        "stream": {},
        "dynamic": {},
        "refs": 1000 + i,
        "trace_len": 1000 + i,
        "misses": {"cold": 10, "replace": 5, "true": 7, "false": fs},
        "fs_by_structure": {"counter": fs},
        "perf": {"trace_cache.hit": i, "trace_cache.miss": 1},
        "spans": {"pipeline.execute": 0.5},
        "wall_seconds": 1.0 + (i % 10) / 100.0,
    }
    rec.update(extra)
    return rec


def write_log(path, records):
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )
    return path


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestIngest:
    def test_roundtrip_ingest_query(self, store, tmp_path):
        """The round-trip property: every ingested record comes back,
        field-identical, from an unfiltered query."""
        records = [
            make_record(i, workload=w, block_size=bs, fs=100 * (i + 1))
            for i, (w, bs) in enumerate(
                (w, bs)
                for w in ("Maxflow/N", "Water/C", "Barnes/N")
                for bs in (16, 64, 128)
            )
        ]
        log = write_log(tmp_path / "runs.jsonl", records)
        rep = store.ingest(log)
        assert rep.ingested == len(records)
        assert rep.corrupt == 0 and rep.duplicates == 0
        got = {r["id"]: r for r in store.records()}
        assert len(got) == len(records)
        for rec in records:
            rid = record_id(rec)
            stored = got[rid]
            for key, val in rec.items():
                assert stored[key] == val, key

    def test_reingest_is_idempotent(self, store, tmp_path):
        records = [make_record(i) for i in range(20)]
        log = write_log(tmp_path / "runs.jsonl", records)
        first = store.ingest(log)
        assert first.ingested == 20
        again = store.ingest(log)
        assert again.ingested == 0
        assert again.duplicates == 20
        assert store.count() == 20

    def test_corrupt_lines_skipped_never_fatal(self, store, tmp_path):
        """Garbage, truncated JSON, and non-object lines are counted
        and skipped; every valid record in the batch still lands."""
        log = tmp_path / "runs.jsonl"
        good = [make_record(i) for i in range(5)]
        lines = [json.dumps(good[0]), "not json at all",
                 json.dumps(good[1]), '{"truncated": ',
                 json.dumps(good[2]), '[1, 2, 3]',
                 json.dumps(good[3]), '"just a string"',
                 json.dumps(good[4])]
        # truncated *final* line with no newline: a writer mid-append
        log.write_text("\n".join(lines) + "\n" + json.dumps(good[0])[:40])
        rep = store.ingest(log)
        assert rep.ingested == 5
        assert rep.corrupt == 5  # 2 garbage + 2 non-objects + 1 truncated
        assert store.count() == 5

    def test_schema1_records_upgraded_on_ingest(self, store, tmp_path):
        """Schema-1 records are no longer upgraded on ingest: they are
        counted corrupt and nothing lands in the store."""
        old = {
            "schema": 1, "ts": "2026-01-01T00:00:00+00:00",
            "kind": "profile", "workload": "Maxflow/N",
            "misses": {"false": 42},
        }
        rep = store.ingest(write_log(tmp_path / "old.jsonl", [old]))
        assert rep.ingested == 0 and rep.corrupt == 1
        assert store.count() == 0 and list(store.records()) == []

    def test_schema2_records_upgraded_on_ingest(self, store, tmp_path):
        """A schema-2 record (geometry-only machine dict) gains no
        KSR2/MSI identity on ingest: it is counted corrupt, while the
        same record at schema 3 ingests."""
        old = make_record(0)
        old["schema"] = 2
        old["machine"] = {"cache_size": 32768, "assoc": 4, "block_size": 64}
        del old["dynamic"]
        rep = store.ingest(write_log(tmp_path / "old2.jsonl", [old]))
        assert rep.ingested == 0 and rep.corrupt == 1
        assert store.count() == 0
        rep = store.ingest(write_log(tmp_path / "new.jsonl", [make_record(0)]))
        assert rep.ingested == 1 and rep.corrupt == 0
        (rec,) = store.records()
        assert rec["id"] == record_id(make_record(0))
        assert rec["machine"]["name"] == "ksr2"

    def test_ingest_report_describe(self):
        rep = IngestReport(scanned=10, ingested=7, duplicates=3, corrupt=2)
        assert "7 of 10" in rep.describe()
        assert "2 corrupt" in rep.describe()


class TestShardsAndIndexes:
    def test_sharding_spreads_and_preserves_count(self, store, tmp_path):
        records = [make_record(i, fs=i) for i in range(64)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        shard_files = list((store.root / "shards").glob("*.jsonl"))
        assert len(shard_files) > 4  # sha256 spreads over the 16 shards
        assert store.count() == 64

    def test_index_self_heals_after_corruption(self, store, tmp_path):
        records = [make_record(i) for i in range(16)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        for ipath in (store.root / "index").glob("*.json"):
            ipath.write_text("{broken")
        fresh = RunStore(store.root)
        assert fresh.count() == 16

    def test_stale_index_detected_by_line_count(self, store, tmp_path):
        records = [make_record(i) for i in range(8)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        # sneak a record into a shard behind the index's back
        extra = make_record(99, fs=7)
        extra["id"] = record_id(extra)
        digit = extra["id"][0]
        with open(store.shard_path(digit), "a") as fh:
            fh.write(json.dumps(extra) + "\n")
        fresh = RunStore(store.root)
        assert fresh.count() == 9  # line-count mismatch forced a rebuild

    def test_compact_dedups_and_sorts(self, store, tmp_path):
        records = [make_record(i) for i in range(10)]
        store.ingest(write_log(tmp_path / "r.jsonl", records))
        # duplicate a shard's lines wholesale, then corrupt one line
        for spath in (store.root / "shards").glob("*.jsonl"):
            text = spath.read_text()
            spath.write_text(text + text + "garbage\n")
            break
        stats = store.compact()
        assert stats["records"] == 10
        assert stats["dropped"] >= 1
        assert store.count() == 10
        for spath in (store.root / "shards").glob("*.jsonl"):
            ts = [json.loads(l)["ts"] for l in spath.read_text().splitlines()]
            assert ts == sorted(ts)


def _append_worker(args):
    """Concurrent-writer worker: append records through the manifest's
    line-atomic writer."""
    log_path, worker, n = args
    import os

    os.environ[manifest.RUN_LOG_ENV] = log_path
    for i in range(n):
        manifest.record(make_record(i, workload=f"W{worker}", fs=worker))
    return worker


def _ingest_worker(args):
    root, log_path = args
    rep = RunStore(root).ingest(log_path)
    return rep.ingested, rep.duplicates


class TestConcurrency:
    def test_concurrent_manifest_writers(self, tmp_path):
        """Several processes appending to one REPRO_RUN_LOG: every line
        stays parseable (line-atomic appends) and every record lands."""
        log = tmp_path / "shared.jsonl"
        workers, per = 4, 25
        with mp.get_context("spawn").Pool(workers) as pool:
            pool.map(
                _append_worker,
                [(str(log), w, per) for w in range(workers)],
            )
        recs = manifest.read_all(log)
        assert len(recs) == workers * per
        assert {r["workload"] for r in recs} == {f"W{w}" for w in range(workers)}

    def test_concurrent_ingest_no_duplicates(self, tmp_path):
        """Two ingesters racing on the same store and overlapping logs:
        the flock serializes them, content hashes dedup them."""
        records = [make_record(i, fs=i) for i in range(40)]
        log_a = write_log(tmp_path / "a.jsonl", records)
        log_b = write_log(tmp_path / "b.jsonl", records[20:] +
                          [make_record(i + 100) for i in range(10)])
        root = str(tmp_path / "store")
        with mp.get_context("spawn").Pool(2) as pool:
            results = pool.map(
                _ingest_worker,
                [(root, str(log_a)), (root, str(log_b))],
            )
        assert sum(i for i, _d in results) == 50  # 40 + 10 unique
        assert RunStore(root).count() == 50


class TestQuery:
    @pytest.fixture()
    def filled(self, store, tmp_path):
        records = []
        i = 0
        for w in ("Maxflow/N", "Maxflow/C", "Water/N"):
            for bs in (16, 128):
                for _ in range(5):
                    records.append(
                        make_record(
                            i, workload=w, block_size=bs,
                            fs=500 if w.endswith("N") else 50,
                            kernel="native" if i % 2 else "python",
                        )
                    )
                    i += 1
        store.ingest_records(records)
        return store

    def test_field_access_longest_match(self):
        rec = {"perf": {"trace_cache.hit": 9}, "misses": {"false": 3}}
        assert get_field(rec, "perf.trace_cache.hit") == 9
        assert get_field(rec, "misses.false") == 3
        assert get_field(rec, "fs") == 3  # alias
        assert get_field(rec, "nope.nope") is None

    def test_filter_ops(self):
        rec = {"block_size": 128, "workload": "Maxflow/N", "x": 1.5}
        assert Filter.parse("block_size=128").matches(rec)
        assert Filter.parse("block_size>=128").matches(rec)
        assert not Filter.parse("block_size<128").matches(rec)
        assert Filter.parse("workload~maxflow").matches(rec)
        assert Filter.parse("workload!=Water/N").matches(rec)
        assert Filter.parse("x>1").matches(rec)
        with pytest.raises(QueryError):
            Filter.parse("nonsense")

    def test_time_window(self):
        assert parse_when("2026-08-01") == "2026-08-01"
        rel = parse_when("7d")
        assert rel.startswith("20")  # resolved to an ISO instant
        with pytest.raises(QueryError):
            parse_when("someday")

    def test_percentiles(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3
        assert percentile([1, 2, 3, 4], 0.5) == 2.5
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_grouped_aggregate(self, filled):
        q = Query.build(
            group_by="workload,block_size",
            aggregates=["mean:fs", "count", "p95:wall_seconds"],
        )
        res = run_query(filled, q)
        assert res.columns == [
            "workload", "block_size", "mean(misses.false)", "count",
            "p95(wall_seconds)",
        ]
        assert len(res.rows) == 6
        by_key = {(r["workload"], r["block_size"]): r for r in res.rows}
        assert by_key[("Maxflow/N", 128)]["mean(misses.false)"] == 500
        assert by_key[("Maxflow/C", 16)]["mean(misses.false)"] == 50
        assert all(r["count"] == 5 for r in res.rows)

    def test_where_and_window_prune(self, filled):
        q = Query.build(where=["workload=Water/N", "block_size=128"])
        res = run_query(filled, q)
        assert res.matched == 5
        # equality filter on an indexed column prunes non-matching shards
        q2 = Query.build(where=["workload=DoesNotExist"])
        res2 = run_query(filled, q2)
        assert res2.matched == 0
        assert res2.shards_pruned == 16

    def test_sort_and_limit(self, filled):
        q = Query.build(
            group_by="workload", aggregates=["mean:fs"],
            sort="-mean(misses.false)", limit=2,
        )
        res = run_query(filled, q)
        assert len(res.rows) == 2
        vals = [r["mean(misses.false)"] for r in res.rows]
        assert vals == sorted(vals, reverse=True)

    def test_output_formats(self, filled):
        q = Query.build(group_by="workload", aggregates=["count"])
        res = run_query(filled, q)
        table = res.to_table()
        assert "workload" in table and "count" in table
        data = json.loads(res.to_json())
        assert data["columns"] == ["workload", "count"]
        csv_text = res.to_csv()
        assert csv_text.splitlines()[0] == "workload,count"
        assert len(csv_text.splitlines()) == 1 + len(res.rows)

    def test_aggregate_parse_errors(self):
        with pytest.raises(QueryError):
            Aggregate.parse("median:fs")
        with pytest.raises(QueryError):
            Aggregate.parse("mean")  # needs a field

    def test_grouped_query_1000_records_under_a_second(self, store):
        """The ISSUE-7 acceptance bar: a grouped aggregate over 1,000+
        stored records answers in < 1 s warm."""
        records = [
            make_record(
                i,
                workload=("Maxflow/N", "Water/C", "Barnes/N")[i % 3],
                block_size=(16, 64, 128)[i % 3],
                fs=100 + i % 50,
            )
            for i in range(1200)
        ]
        store.ingest_records(records)
        assert store.count() == 1200
        q = Query.build(group_by="workload,block_size",
                        aggregates=["mean:fs", "count"])
        run_query(store, q)  # warm the page cache / indexes
        t0 = time.perf_counter()
        res = run_query(store, q)
        elapsed = time.perf_counter() - t0
        assert res.matched == 1200
        assert sum(r["count"] for r in res.rows) == 1200
        assert elapsed < 1.0, f"grouped query took {elapsed:.2f}s"
