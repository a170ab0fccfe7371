"""Golden conformance snapshots: the tier-1 diff against checked-in
canonical results (refresh with ``pytest --update-golden``)."""

from __future__ import annotations

import json

import pytest

from repro.verify import golden

pytestmark = pytest.mark.golden


@pytest.mark.parametrize("name", golden.GOLDEN_WORKLOADS)
def test_snapshot_matches_golden(name, update_golden):
    actual = golden.compute_snapshot(name)
    path = golden.golden_path(name)
    if update_golden:
        golden.save(actual, path)
        return
    assert path.exists(), (
        f"golden snapshot {path} missing — run pytest --update-golden"
    )
    expected = golden.load(path)
    diffs = golden.diff(expected, actual)
    assert not diffs, (
        f"{name} diverges from its golden snapshot "
        f"(pytest --update-golden if intended):\n  " + "\n  ".join(diffs)
    )


@pytest.mark.parametrize("name", golden.GOLDEN_WORKLOADS)
def test_transforms_never_increase_false_sharing(name):
    """The paper's core claim, as a metamorphic property of the
    checked-in snapshots."""
    snap = golden.load(golden.golden_path(name))
    assert not golden.fs_not_increased(snap)


def test_snapshots_are_canonical_json():
    """Files on disk are exactly the canonical serialization (stable
    key order, trailing newline) — diffs stay reviewable."""
    for name in golden.GOLDEN_WORKLOADS:
        path = golden.golden_path(name)
        text = path.read_text()
        assert text == golden.dumps(json.loads(text))


def test_snapshot_shape():
    snap = golden.load(golden.golden_path(golden.GOLDEN_WORKLOADS[0]))
    assert snap["schema"] == golden.SCHEMA
    assert set(snap["versions"]) == {"N", "C"}
    for version in snap["versions"].values():
        for bs in snap["block_sizes"]:
            m = version["misses"][str(bs)]
            assert m["total"] == (
                m["cold"] + m["replace"] + m["true_sharing"] + m["false_sharing"]
            )


@pytest.mark.parametrize("name", golden.GOLDEN_WORKLOADS)
def test_sched_snapshot_matches_golden(name, update_golden):
    """Cross-scheduler conformance: the exact rr and per-seed steal miss
    breakdowns (and steal counters) are pinned per workload."""
    actual = golden.compute_sched_snapshot(name)
    path = golden.sched_golden_path(name)
    if update_golden:
        golden.save(actual, path)
        return
    assert path.exists(), (
        f"sched golden snapshot {path} missing — run pytest --update-golden"
    )
    expected = golden.load(path)
    diffs = golden.diff(expected, actual)
    assert not diffs, (
        f"{name} diverges from its sched golden snapshot "
        f"(pytest --update-golden if intended):\n  " + "\n  ".join(diffs)
    )


@pytest.mark.parametrize("name", golden.GOLDEN_WORKLOADS)
def test_steal_fs_within_rws_bound(name):
    """The Cole–Ramachandran property on the checked-in snapshots: steal
    FS stays inside the O(steals × block words) bound over rr FS, at
    every seed and block size."""
    snap = golden.load(golden.sched_golden_path(name))
    assert not golden.steal_fs_within_bound(snap)


@pytest.mark.parametrize("name", golden.GOLDEN_WORKLOADS)
def test_sched_snapshot_shape(name):
    snap = golden.load(golden.sched_golden_path(name))
    assert snap["schema"] == golden.SCHEMA
    assert set(snap["steal"]) == {
        str(s) for s in golden.GOLDEN_SCHED_SEEDS
    }
    assert snap["rr"].get("sched") is None
    word = str(golden.GOLDEN_SCHED_BLOCK_SIZES[0])
    assert snap["rr"]["misses"][word]["false_sharing"] == 0
    for rec in snap["steal"].values():
        stats = rec["sched"]
        assert stats["kind"] == "steal"
        assert stats["steals"] >= 0
        # word-granularity blocks cannot false-share under any schedule
        assert rec["misses"][word]["false_sharing"] == 0
        # steal executions reach the same program results as rr
        assert rec["output"] == snap["rr"]["output"]
        assert rec["exit_value"] == snap["rr"]["exit_value"]


def test_diff_reports_leaf_paths():
    a = {"x": {"y": 1, "z": 2}}
    b = {"x": {"y": 1, "z": 3}}
    diffs = golden.diff(a, b)
    assert diffs == ["x.z: golden 2, actual 3"]
    assert golden.diff(a, a) == []
    assert any(
        "missing" in d for d in golden.diff({"x": {"y": 1, "w": 0}}, a)
    )


def test_interpreter_fingerprints_match_golden(update_golden):
    """Every paper program version (rr and steal) and a band of
    generated programs under every oracle plan replay the exact trace,
    counters, output, heap segments, phase marks and steal stats pinned
    in ``interp_fingerprints.json``."""
    path = golden.fingerprint_path()
    if update_golden:
        golden.save(golden.compute_fingerprints(), path)
        return
    assert path.exists(), (
        f"interpreter fingerprints {path} missing — run pytest --update-golden"
    )
    expected = golden.load(path)
    cases = golden.fingerprint_cases()
    assert sorted(cid for cid, _ in cases) == sorted(expected["cases"])
    diffs = []
    for cid, thunk in cases:
        diffs += golden.diff(
            {cid: expected["cases"][cid]},
            {cid: golden.run_fingerprint(thunk())},
        )
    assert not diffs, (
        "interpreter diverges from its fingerprints:\n  " + "\n  ".join(diffs)
    )
