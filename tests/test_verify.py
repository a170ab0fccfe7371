"""The differential-validation subsystem: oracle, progen, fuzz loop."""

from __future__ import annotations

import pytest

import repro.verify.fuzz as fuzz_mod
from repro.lang import compile_source
from repro.transform.plan import PadAlign, TransformPlan
from repro.verify import invariants, oracle, progen

from conftest import BLOCKED_SRC, COUNTER_SRC, HEAP_SRC

NPROCS = 4


def _mesi64():
    from repro.sim import CacheConfig

    return CacheConfig(size=32 * 1024, block_size=64, assoc=4,
                       protocol="mesi")


# -- oracle ------------------------------------------------------------------


class TestOracle:
    @pytest.mark.parametrize("src", [COUNTER_SRC, HEAP_SRC, BLOCKED_SRC])
    def test_hand_written_kernels_agree_under_all_plans(self, src):
        checked = compile_source(src)
        verdicts, _run = oracle.check_program(checked, NPROCS)
        assert verdicts, "no candidate plans synthesized"
        bad = [str(v) for v in verdicts if not v.ok]
        assert not bad, "\n".join(bad)

    def test_candidate_plans_cover_every_transform_kind(self):
        checked = compile_source(HEAP_SRC)
        labels = {
            label for label, _ in oracle.candidate_plans(checked, NPROCS, 128)
        }
        assert {"C", "pad-all", "recpad-all", "indirect-all"} <= labels

    def test_snapshot_is_layout_independent(self, counter_checked):
        base, _ = oracle.observe(counter_checked, None, NPROCS)
        plan = TransformPlan(
            nprocs=NPROCS,
            pads=[PadAlign("counter", per_element=True)],
        )
        padded, _ = oracle.observe(counter_checked, plan, NPROCS)
        assert base.globals == padded.globals
        assert base.output == padded.output

    def test_snapshot_follows_indirected_fields(self, heap_checked):
        plans = oracle.candidate_plans(heap_checked, NPROCS, 128)
        indirect = dict(plans)["indirect-all"]
        base, _ = oracle.observe(heap_checked, None, NPROCS)
        moved, _ = oracle.observe(heap_checked, indirect, NPROCS)
        # 'done' is a plain global: present and equal in both snapshots
        assert base.globals["done[0]"] == 1
        assert moved.globals["done[0]"] == 1
        assert base.globals == moved.globals

    def test_diff_states_reports_bounded_mismatches(self):
        a = oracle.ObservedState(("1", "2"), 0, {f"g[{i}]": i for i in range(40)})
        b = oracle.ObservedState(("1", "9"), 1, {f"g[{i}]": -i for i in range(40)})
        diffs = oracle.diff_states(a, b)
        assert diffs
        assert len(diffs) <= oracle.MAX_MISMATCHES

    def test_verdict_renders_failure_details(self):
        v = oracle.Verdict(
            plan_label="pad-all", plan_desc="", nprocs=4, ok=False,
            mismatches=["g[0]: N=1 vs 2"],
        )
        s = str(v)
        assert "FAIL" in s and "pad-all" in s and "g[0]" in s


# -- progen ------------------------------------------------------------------


class TestProgen:
    def test_generation_is_deterministic(self):
        assert progen.render(progen.generate(7)) == progen.render(
            progen.generate(7)
        )
        assert progen.generate(7) == progen.generate(7)

    def test_distinct_seeds_differ(self):
        sources = {progen.render(progen.generate(s)) for s in range(10)}
        assert len(sources) > 5

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_programs_compile(self, seed):
        compile_source(progen.render(progen.generate(seed)))

    def test_grammar_coverage_across_seeds(self):
        """The generator must exercise structs, heap pointers, locks,
        barriers and PDV loops somewhere in a modest seed range."""
        blob = "".join(progen.render(progen.generate(s)) for s in range(40))
        for construct in (
            "struct cell", "alloc(struct cell)", "lock(", "barrier();",
            "i = pid;", "nprocs()", "pid * chunk",
        ):
            assert construct in blob, f"no seed generated {construct!r}"

    def test_round_trip_through_full_stack(self):
        """compile -> interpret -> oracle -> simulate for a seed batch."""
        for seed in range(6):
            checked = compile_source(progen.render(progen.generate(seed)))
            verdicts, run = oracle.check_program(checked, NPROCS)
            assert all(v.ok for v in verdicts)
            assert not invariants.check_trace(
                run.trace, NPROCS, block_sizes=(4, 64)
            )

    def test_protocol_axis_is_checked(self, monkeypatch):
        """check_trace simulates MESI too: a MESI-only disagreement of
        the fast engine, and an MSI/MESI classification split, are
        both reported."""
        checked = compile_source(COUNTER_SRC)
        _, run = oracle.check_program(checked, NPROCS)
        real_fast = invariants.simulate_trace_fast
        real_ref = invariants.simulate_trace

        def broken_fast(trace, nprocs, config, **kw):
            res = real_fast(trace, nprocs, config, **kw)
            if config.protocol == "mesi":
                res.upgrades += 1
            return res

        monkeypatch.setattr(invariants, "simulate_trace_fast", broken_fast)
        got = invariants.check_trace(run.trace, NPROCS, block_sizes=(64,))
        want = real_ref(run.trace, NPROCS, _mesi64()).upgrades
        assert got == [
            f"bs=64 mesi fast-vs-reference: upgrades {want} vs {want + 1}"
        ]

        def split_ref(trace, nprocs, config, **kw):
            res = real_ref(trace, nprocs, config, **kw)
            if config.protocol == "mesi":
                res.fs_by_block = {**res.fs_by_block, -1: 0}
            return res

        monkeypatch.setattr(invariants, "simulate_trace_fast", real_fast)
        monkeypatch.setattr(invariants, "simulate_trace", split_ref)
        got = invariants.check_trace(run.trace, NPROCS, block_sizes=(64,))
        assert any(m.startswith("bs=64 msi-vs-mesi:") for m in got)

    def test_shrink_reaches_fixpoint_and_preserves_failure(self):
        spec = progen.generate(3)

        def fails(s: progen.ProgramSpec) -> bool:
            # pseudo-failure: any spec still touching the first target
            return any(op.target == spec.ops[0].target for op in s.ops)

        small = progen.shrink(spec, fails)
        assert fails(small)
        assert len(small.ops) <= len(spec.ops)
        # no candidate reduction may still fail (greedy fixpoint)
        assert all(not fails(c) for c in progen._candidates(small))

    def test_shrink_drops_unreferenced_globals(self):
        spec = progen.generate(3)
        small = progen.shrink(spec, lambda s: True)
        used = {op.target for op in small.ops} | {
            op.lock for op in small.ops if op.lock
        }
        assert all(g.name in used for g in small.globals)


# -- fuzz loop ---------------------------------------------------------------


class TestFuzz:
    def test_clean_stack_fuzzes_clean(self):
        report = fuzz_mod.fuzz(seed=0, count=10, nprocs=NPROCS)
        assert report.programs == 10
        assert report.plans >= 10
        assert report.ok, "\n".join(f.describe() for f in report.failures)
        assert "ok" in report.summary()

    def test_budget_stops_the_loop(self):
        report = fuzz_mod.fuzz(seed=0, budget=0.0, nprocs=NPROCS)
        assert report.programs == 0 and report.ok

    def test_broken_pad_align_is_caught_and_shrunk(self, monkeypatch):
        """The ISSUE acceptance case: a deliberately mis-sized pad&align
        layout must be caught by the oracle and shrunk to a minimal
        counterexample."""
        monkeypatch.setenv("REPRO_VERIFY_BREAK", "pad_align")
        report = fuzz_mod.fuzz(seed=0, count=3, nprocs=NPROCS)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind in ("oracle", "crash")
        assert failure.shrunk_to <= failure.shrunk_from
        # the minimized source still reproduces under the broken flag
        msgs, _ = fuzz_mod._spec_failures(
            progen.generate(failure.seed), NPROCS
        )
        assert msgs

    def test_save_failures_writes_counterexamples(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_BREAK", "pad_align")
        report = fuzz_mod.fuzz(seed=0, count=1, nprocs=NPROCS)
        assert not report.ok
        paths = fuzz_mod.save_failures(report, str(tmp_path))
        assert paths
        text = (tmp_path / f"counterexample-{report.failures[0].seed}.c").read_text()
        assert "fuzz failure" in text and "int main()" in text

    def test_break_flag_off_means_no_failures(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_BREAK", raising=False)
        report = fuzz_mod.fuzz(seed=0, count=2, nprocs=NPROCS)
        assert report.ok
