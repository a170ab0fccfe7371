"""Plan scoring: the objective the search minimizes.

A plan's quality is not one number.  The paper's own evaluation reads
out three instruments — false-sharing misses at the KSR2's 128-byte
coherence unit, the total miss count, and modelled execution time — and
every transformation buys its wins with memory (padding multiplies
footprints; arenas and group regions add space).  A :class:`PlanScore`
carries all four; a :class:`Objective` is an ordering over them
(lexicographic, most-significant metric first), and a
:class:`ParetoFront` keeps every non-dominated plan so a caller tuning
for speed can still see the plan that wins on memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.machine.ksr2 import KSR2Config, execution_time
from repro.sim.cache import CacheConfig
from repro.sim.simcache import cached_simulate

#: Metric names, in the default significance order.
METRICS = ("fs", "cycles", "total", "mem")


@dataclass(frozen=True, slots=True)
class PlanScore:
    """The measured quality of one plan on one workload run."""

    fs_misses: int
    total_misses: int
    cycles: float
    #: bytes of shared data the layout places (globals + group region)
    mem_bytes: int
    #: growth over the natural layout (>= 0 in practice; padding and
    #: arenas only add space)
    mem_overhead: int
    refs: int = 0

    def metric(self, name: str) -> float:
        if name == "fs":
            return float(self.fs_misses)
        if name == "cycles":
            return float(self.cycles)
        if name == "total":
            return float(self.total_misses)
        if name == "mem":
            return float(self.mem_overhead)
        raise KeyError(f"unknown objective metric {name!r}")

    def vector(self) -> tuple[float, ...]:
        return tuple(self.metric(m) for m in METRICS)

    def __str__(self) -> str:
        return (
            f"fs={self.fs_misses} total={self.total_misses} "
            f"cycles={self.cycles:.0f} mem=+{self.mem_overhead}B"
        )


@dataclass(frozen=True, slots=True)
class Objective:
    """A lexicographic ordering over score metrics.

    ``Objective.parse("fs,cycles")`` ranks plans by false-sharing misses
    and breaks ties on predicted cycles; unlisted metrics never
    influence the order.  Cycles compare with a small relative tolerance
    (the queueing fixed point is iterative; sub-0.1% differences are
    solver noise, not plan quality).
    """

    order: tuple[str, ...] = ("fs", "cycles")
    #: relative tolerance applied to the ``cycles`` metric when ranking
    cycles_rtol: float = 1e-3

    def __post_init__(self):
        for m in self.order:
            if m not in METRICS:
                raise ValueError(
                    f"unknown objective metric {m!r} (choose from "
                    f"{', '.join(METRICS)})"
                )
        if not self.order:
            raise ValueError("objective needs at least one metric")

    @staticmethod
    def parse(text: str) -> "Objective":
        parts = tuple(
            p.strip() for p in text.split(",") if p.strip()
        )
        return Objective(order=parts)

    def key(self, score: PlanScore) -> tuple[float, ...]:
        out = []
        for m in self.order:
            v = score.metric(m)
            if m == "cycles" and self.cycles_rtol > 0:
                v = _quantize_rel(v, self.cycles_rtol)
            out.append(v)
        return tuple(out)

    def better(self, a: PlanScore, b: PlanScore) -> bool:
        return self.key(a) < self.key(b)

    def __str__(self) -> str:
        return ",".join(self.order)


def _quantize_rel(v: float, rtol: float) -> float:
    """Geometric bucketing, monotone in ``v``: values within ``rtol`` of
    each other map to the same or an adjacent bucket, so sub-tolerance
    differences can shift a comparison by at most one quantum instead of
    deciding it outright."""
    if v <= 1.0:
        return float(round(v))
    return float(round(math.log(v) / math.log1p(rtol)))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def layout_bytes(layout) -> int:
    """Shared-data footprint of a layout: every global's placed size
    plus the group-and-transpose region."""
    total = sum(g.size for g in layout.globals.values())
    return int(total + layout.group_region_size)


def score_version(
    vr,
    *,
    natural_bytes: int,
    cfg: Optional[KSR2Config] = None,
) -> PlanScore:
    """Score one executed :class:`~repro.harness.pipeline.VersionRun`.

    Misses come from one simulation at the KSR2 coherence geometry (the
    128-byte second-level block by default) — memoized per trace
    fingerprint, so re-scoring a cached run costs nothing — and cycles
    from the queueing timing model over that same simulation.
    """
    cfg = cfg or KSR2Config()
    config = CacheConfig(
        size=cfg.cache_size, block_size=cfg.block_size, assoc=cfg.assoc
    )
    sim = cached_simulate(
        vr.run.trace,
        vr.run.nprocs,
        config,
        extra_refs=sum(vr.run.private_refs.values()),
        engine=vr.config.engine,
        kernel=vr.config.kernel,
    )
    timing = execution_time(vr.run, sim, cfg)
    mem = layout_bytes(vr.layout)
    return PlanScore(
        fs_misses=sim.misses.false_sharing,
        total_misses=sim.total_misses,
        cycles=timing.cycles,
        mem_bytes=mem,
        mem_overhead=mem - natural_bytes,
        refs=sim.refs + sim.extra_refs,
    )


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------


def dominates(a: PlanScore, b: PlanScore) -> bool:
    """True when ``a`` is at least as good as ``b`` on every metric and
    strictly better on one."""
    av, bv = a.vector(), b.vector()
    return all(x <= y for x, y in zip(av, bv)) and any(
        x < y for x, y in zip(av, bv)
    )


@dataclass(slots=True)
class FrontEntry:
    fingerprint: str
    score: PlanScore
    payload: object = None


@dataclass(slots=True)
class ParetoFront:
    """The non-dominated set over (fs, cycles, total, mem)."""

    entries: list[FrontEntry] = field(default_factory=list)

    def add(self, fingerprint: str, score: PlanScore, payload=None) -> bool:
        """Offer one scored plan; returns True when it joins the front
        (evicting anything it dominates)."""
        for e in self.entries:
            if e.fingerprint == fingerprint:
                return False
            if dominates(e.score, score) or e.score.vector() == score.vector():
                return False
        self.entries = [
            e for e in self.entries if not dominates(score, e.score)
        ]
        self.entries.append(FrontEntry(fingerprint, score, payload))
        return True

    def sorted_by(self, objective: Objective) -> list[FrontEntry]:
        return sorted(
            self.entries,
            key=lambda e: (objective.key(e.score), e.fingerprint),
        )

    def __len__(self) -> int:
        return len(self.entries)
