"""Pluggable machine geometries.

The paper evaluates on exactly one machine — the 1995 KSR2 ring with a
128-byte coherence unit and the write-invalidate MSI protocol the cache
simulator was originally hard-coded to.  Modern comparisons (the
resource-oblivious multicore model of Cole–Ramachandran, 64 B-line MESI
desktops, multi-socket NUMA parts) need other geometries, so the
machine description is now a first-class :class:`MachineModel` value
carried through the simulator (:class:`~repro.sim.cache.CacheConfig`
grew a ``protocol`` field), the native-kernel pre-check (the C kernel
is MSI-only; other protocols fall back to the Python core), the
simulation memo keys, and run manifests.

Selection: the ``machine`` of a :class:`~repro.config.RunConfig`
(``--machine <name>`` or ``REPRO_MACHINE``; default
:data:`DEFAULT_MACHINE`, the KSR2 — which keeps every paper experiment
bit-identical to the single-machine code); :func:`get_machine`
resolves a name.

A model's ``line_size`` is its *native* coherence-unit size; block-size
sweeps still override it per point (the sweep is the experiment), while
the protocol and cache geometry stay the machine's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_MACHINE
from repro.errors import ReproError
from repro.sim.cache import CacheConfig


@dataclass(frozen=True, slots=True)
class MachineModel:
    """One machine geometry: protocol, line size, cache shape, and the
    per-tier miss latencies (cycles) of its memory system."""

    name: str
    #: coherence protocol ("msi" | "mesi") — validated by CacheConfig
    protocol: str
    #: native coherence-unit / cache-line size in bytes
    line_size: int
    #: first-level cache simulated per processor
    cache_size: int = 32 * 1024
    assoc: int = 4
    #: miss serviced within the local tier (same ring / same socket)
    local_latency: float = 175.0
    #: miss serviced one tier out (cross ring / remote socket)
    remote_latency: float = 600.0
    #: miss serviced two tiers out (far NUMA node); 0 = no third tier
    far_latency: float = 0.0
    #: fraction of remote traffic landing on the far tier
    far_fraction: float = 0.0
    #: processors per local tier before traffic starts going remote
    tier_size: int = 32
    description: str = ""

    def cache_config(self, block_size: int | None = None) -> CacheConfig:
        """The :class:`CacheConfig` for simulating on this machine.

        ``block_size`` overrides the native line size — block-size
        sweeps vary the line while keeping the machine's protocol and
        cache shape.
        """
        return CacheConfig(
            size=self.cache_size,
            block_size=block_size if block_size is not None else self.line_size,
            assoc=self.assoc,
            protocol=self.protocol,
        )

    def miss_latency(self, nprocs: int) -> float:
        """Average miss-service latency at ``nprocs`` processors: the
        tier mix generalizes :func:`repro.machine.ksr2.base_latency` to
        three tiers (a far NUMA hop weighted by ``far_fraction``)."""
        if nprocs <= self.tier_size:
            return self.local_latency
        remote = self.remote_latency
        if self.far_latency and self.far_fraction:
            remote = (
                remote * (1.0 - self.far_fraction)
                + self.far_latency * self.far_fraction
            )
        remote_frac = (nprocs - self.tier_size) / nprocs
        return self.local_latency * (1 - remote_frac) + remote * remote_frac

    def to_dict(self) -> dict:
        """Manifest/benchmark form of the model (name + the fields a
        reader needs to interpret the numbers)."""
        return {
            "name": self.name,
            "protocol": self.protocol,
            "line_size": self.line_size,
            "cache_size": self.cache_size,
            "assoc": self.assoc,
        }


#: The registry.  ksr2 mirrors the original hard-coded defaults of
#: ``simulate_run`` (32 KB / 4-way / 128 B / MSI) exactly, so selecting
#: it — or selecting nothing — reproduces the paper's numbers bit for
#: bit.  (The *timing* model's 256 KB first level lives separately in
#: :class:`repro.machine.ksr2.KSR2Config`.)
MACHINES: dict[str, MachineModel] = {
    m.name: m
    for m in (
        MachineModel(
            name="ksr2",
            protocol="msi",
            line_size=128,
            cache_size=32 * 1024,
            assoc=4,
            local_latency=175.0,
            remote_latency=600.0,
            tier_size=32,
            description=(
                "the paper's Kendall Square Research KSR2: ALLCACHE "
                "ring, 128 B coherence unit, write-invalidate MSI"
            ),
        ),
        MachineModel(
            name="modern64",
            protocol="mesi",
            line_size=64,
            cache_size=32 * 1024,
            assoc=8,
            local_latency=40.0,
            remote_latency=40.0,
            tier_size=64,
            description=(
                "a modern single-socket multicore: 64 B lines, MESI, "
                "8-way 32 KB L1, flat ~40-cycle miss service"
            ),
        ),
        MachineModel(
            name="numa2",
            protocol="mesi",
            line_size=64,
            cache_size=32 * 1024,
            assoc=8,
            local_latency=40.0,
            remote_latency=120.0,
            far_latency=300.0,
            far_fraction=0.5,
            tier_size=8,
            description=(
                "a two-socket NUMA machine: 64 B MESI lines, 8 cores "
                "per socket, 120-cycle remote-socket and 300-cycle "
                "far-memory tiers"
            ),
        ),
    )
}


def get_machine(name: str) -> MachineModel:
    """Resolve a machine name; unknown names are a one-line user error."""
    model = MACHINES.get(name.strip().lower())
    if model is None:
        raise ReproError(
            f"unknown machine {name!r} "
            f"(expected one of: {', '.join(sorted(MACHINES))})"
        )
    return model


def resolve_machine(machine: "MachineModel | str") -> MachineModel:
    """Normalize a machine argument: a model passes through, a name is
    looked up."""
    if isinstance(machine, MachineModel):
        return machine
    return get_machine(machine)
