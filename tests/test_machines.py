"""Machine-model registry and protocol plumbing tests: the MESI
protocol core, the geometry registry, the native-kernel protocol
pre-check, and the simulation memo's protocol key."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ENV_KERNEL as KERNEL_ENV
from repro.config import ENV_MACHINE as MACHINE_ENV
from repro.config import RunConfig
from repro.errors import ReproError, SimulationError
from repro.machine import (
    DEFAULT_MACHINE,
    MACHINES,
    MachineModel,
    get_machine,
    resolve_machine,
)
from repro.runtime.trace import Trace
from repro.sim import CacheConfig, CoherenceSim, simulate_trace
from repro.sim.kernel import NATIVE, PYTHON, load_kernel
from repro.sim.engine import resolve_kernel


def make_trace(events):
    proc, addr, size, w = zip(*events)
    return Trace(
        proc=np.array(proc, dtype=np.int32),
        addr=np.array(addr, dtype=np.int64),
        size=np.array(size, dtype=np.int32),
        is_write=np.array(w, dtype=bool),
    )


def sim(events, protocol="msi", block=64, nprocs=4):
    cfg = CacheConfig(
        size=4 * 1024, block_size=block, assoc=2, protocol=protocol
    )
    return simulate_trace(make_trace(events), nprocs, cfg)


# ---------------------------------------------------------------------------
# MESI protocol semantics
# ---------------------------------------------------------------------------


class TestMesi:
    def test_silent_upgrade_from_exclusive(self):
        # read miss installs E; the following write upgrades silently —
        # no invalidation broadcast, no upgrade transaction
        events = [(0, 0, 4, False), (0, 0, 4, True)]
        r = sim(events, protocol="mesi")
        assert r.upgrades == 0
        assert r.invalidations == 0
        # under MSI the same sequence pays an upgrade
        r = sim(events, protocol="msi")
        assert r.upgrades == 1

    def test_exclusive_demotes_clean_on_remote_read(self):
        # p0 installs E; p1's read demotes it to S without a writeback
        r = sim([(0, 0, 4, False), (1, 0, 4, False)], protocol="mesi")
        assert r.writebacks == 0
        # a subsequent write by p0 is now a shared upgrade, not silent
        r = sim(
            [(0, 0, 4, False), (1, 0, 4, False), (0, 0, 4, True)],
            protocol="mesi",
        )
        assert r.upgrades == 1

    def test_modified_still_writes_back(self):
        # M→S on remote read costs a writeback under both protocols
        events = [(0, 0, 4, True), (1, 0, 4, False)]
        assert sim(events, protocol="mesi").writebacks == 1
        assert sim(events, protocol="msi").writebacks == 1

    def test_no_exclusive_when_another_holder_exists(self):
        # p1 read-misses while p0 holds the block shared: no E install,
        # so p1's later write is a counted upgrade
        r = sim(
            [(0, 0, 4, False), (1, 0, 4, False), (1, 0, 4, True)],
            protocol="mesi",
        )
        assert r.upgrades == 1

    def test_miss_classification_protocol_invariant(self):
        # E only changes which transitions cost bus transactions; the
        # cold/replace/true/false breakdown is identical
        events = []
        for i in range(6):
            events.append((0, 0, 4, True))
            events.append((1, 32, 4, True))
            events.append((0, 256 * i, 4, False))
        msi = sim(events, protocol="msi")
        mesi = sim(events, protocol="mesi")
        assert msi.misses.as_tuple() == mesi.misses.as_tuple()
        assert msi.fs_by_block == mesi.fs_by_block
        assert msi.fs_pair_by_block == mesi.fs_pair_by_block

    def test_mesi_rejects_word_invalidate(self):
        cfg = CacheConfig(
            size=1024, block_size=64, assoc=2, protocol="mesi"
        )
        with pytest.raises(SimulationError):
            CoherenceSim(2, cfg, word_invalidate=True)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SimulationError):
            CacheConfig(size=1024, block_size=64, assoc=2, protocol="moesi")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_is_the_paper_machine(self, monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)
        m = get_machine(RunConfig.from_env().machine)
        assert m.name == DEFAULT_MACHINE == "ksr2"
        # exactly the original hard-coded simulate_run geometry
        cfg = m.cache_config(16)
        assert (cfg.size, cfg.block_size, cfg.assoc, cfg.protocol) == (
            32 * 1024, 16, 4, "msi",
        )
        assert m.cache_config().block_size == 128

    def test_env_selects_machine(self, monkeypatch):
        monkeypatch.setenv(MACHINE_ENV, "modern64")
        assert RunConfig.from_env().machine == "modern64"
        assert get_machine(RunConfig.from_env().machine).protocol == "mesi"

    def test_unknown_machine_is_one_line_error(self):
        with pytest.raises(ReproError) as e:
            get_machine("cray1")
        msg = str(e.value)
        assert "cray1" in msg
        for name in MACHINES:
            assert name in msg  # the message lists the choices

    def test_resolve_machine_forms(self, monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)
        model = MACHINES["numa2"]
        assert resolve_machine(model) is model
        assert resolve_machine("numa2") is model
        assert get_machine(RunConfig.from_env().machine).name == "ksr2"

    def test_miss_latency_tiers(self):
        ksr2 = MACHINES["ksr2"]
        assert ksr2.miss_latency(16) == ksr2.local_latency
        assert ksr2.local_latency < ksr2.miss_latency(48) < ksr2.remote_latency
        numa2 = MACHINES["numa2"]
        # past the 8-core socket the far-memory tier blends in
        assert numa2.miss_latency(16) > numa2.local_latency
        flat = MACHINES["modern64"]
        assert flat.miss_latency(64) == flat.miss_latency(1)

    def test_to_dict_names_identity(self):
        d = MACHINES["modern64"].to_dict()
        assert d["name"] == "modern64"
        assert d["protocol"] == "mesi"
        assert d["line_size"] == 64


# ---------------------------------------------------------------------------
# simulate_run resolves the active machine
# ---------------------------------------------------------------------------


class TestSimulateRunMachine:
    def test_machine_threads_protocol(self, counter_checked, monkeypatch):
        from repro.layout import DataLayout
        from repro.runtime import run_program
        from repro.sim import simulate_run

        monkeypatch.delenv(MACHINE_ENV, raising=False)
        layout = DataLayout(counter_checked, None, nprocs=4)
        run = run_program(counter_checked, layout, 4)
        default = simulate_run(run, 64)
        ksr2 = simulate_run(run, 64, machine="ksr2")
        assert default.config.protocol == "msi"
        assert default.misses.as_tuple() == ksr2.misses.as_tuple()
        mesi = simulate_run(run, 64, machine="modern64")
        assert mesi.config.protocol == "mesi"
        assert mesi.config.assoc == 8
        # the FS classification is protocol-invariant (E only changes
        # which transitions cost bus transactions)
        assert mesi.misses.false_sharing == default.misses.false_sharing


# ---------------------------------------------------------------------------
# Native-kernel protocol pre-check
# ---------------------------------------------------------------------------


class TestKernelProtocolGate:
    def test_forced_native_non_msi_raises(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(SimulationError) as e:
            resolve_kernel(kernel=NATIVE, protocol="mesi")
        assert "MSI" in str(e.value)

    def test_env_native_non_msi_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "native")
        kernel = RunConfig.from_env().kernel
        with pytest.raises(SimulationError):
            resolve_kernel(protocol="mesi", kernel=kernel)

    def test_native_msi_unaffected(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        # protocol="msi" never triggers the gate, whatever the resolution
        assert resolve_kernel(protocol="msi") in (NATIVE, PYTHON)

    @pytest.mark.skipif(
        load_kernel() is None,
        reason="native kernel unavailable (no compiler?)",
    )
    def test_auto_falls_back_to_python(self, monkeypatch):
        from repro import perf

        monkeypatch.delenv(KERNEL_ENV, raising=False)
        before = perf.snapshot().get("kernel.protocol_fallback", 0)
        assert resolve_kernel(protocol="mesi") == PYTHON
        after = perf.snapshot().get("kernel.protocol_fallback", 0)
        assert after == before + 1


# ---------------------------------------------------------------------------
# Simulation memo keys on the protocol
# ---------------------------------------------------------------------------


def test_simcache_keys_on_protocol():
    from repro.sim.simcache import cached_simulate

    trace = make_trace(
        [(0, 0, 4, False), (0, 0, 4, True), (1, 0, 4, False)]
    )
    msi = cached_simulate(
        trace, 2, CacheConfig(size=1024, block_size=64, assoc=2)
    )
    mesi = cached_simulate(
        trace, 2,
        CacheConfig(size=1024, block_size=64, assoc=2, protocol="mesi"),
    )
    assert msi.config.protocol == "msi"
    assert mesi.config.protocol == "mesi"
    # a memo collision would hand back the MSI transaction counts
    assert msi.upgrades == 1 and mesi.upgrades == 0
