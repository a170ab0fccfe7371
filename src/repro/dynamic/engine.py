"""Online false-sharing mitigation at phase boundaries.

The paper fixes layouts at compile time; this engine models the
*runtime* alternative sketched in its future-work discussion: watch the
coherence traffic as the program runs, and when a phase boundary (a
barrier release) arrives, re-lay-out the structure that false-shared
worst during the phase that just ended.

The machinery rides entirely on existing pieces:

* the **signal** is the simulator's per-block false-sharing pair
  attribution (``fs_pair_by_block`` / ``fs_by_block``), folded through
  the layout's region map into per-structure phase deltas;
* the **boundaries** are the interpreter's ``RunResult.phase_marks``
  (trace indices at which a barrier released);
* the **repairs** come from the static tuner's action space
  (:func:`repro.tune.space._actions_for`) — pad & align (whole or per
  element) and group & transpose — applied through the
  :class:`~repro.dynamic.overlay.AddressOverlay` rather than a
  recompiled layout, so mitigation happens *mid-run* without replaying
  the phases already simulated;
* the **proof** is the verify oracle: every repair also accumulates its
  static plan fragments, and the final plan is checked for semantic
  equivalence by the caller (``repro experiments --figure dynamic``
  runs :func:`repro.verify.oracle.observe` on it).

Indirection is deliberately *not* in the dynamic action space: moving a
heap field into per-process arenas changes the pointer structure of the
program, which a runtime copy at a barrier cannot do.  The three
repairs used here are all realizable by copy + address patch.

One protocol core — the simulator's, native or Python, resolved once
per run through :func:`repro.sim.engine.resolve_kernel` — carries the
whole run: the cache/protocol state persists across a repair, the
relocated placement starts cold (its compulsory refills are the
modelled cost of the copy), and the abandoned placement simply ages
out of the LRU sets.  A run with zero repairs is
**bit-identical** to the plain simulation of the same trace — the
per-phase event feed is a boundary-free re-slicing of the monolithic
compacted stream (the :class:`~repro.sim.events.EventChunker` carry
argument), so the static-vs-dynamic comparison is honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis import analyze_program
from repro.analysis.summary import ProgramAnalysis
from repro.config import RunConfig
from repro.dynamic.overlay import DYN_BASE, AddressOverlay
from repro.layout.datalayout import DataLayout, _unflatten
from repro.layout.regions import build_region_map
from repro.machine.models import resolve_machine
from repro.rsd.ops import owner_of
from repro.runtime.trace import RunResult
from repro.sim.coherence import SimResult
from repro.sim.engine import REFERENCE, make_core, resolve_kernel
from repro.sim.events import EventChunker
from repro.sim.kernel import PYTHON
from repro.transform.plan import Decision, TransformPlan
from repro.tune.space import PlanAction, _actions_for

#: A structure must false-share at least this many misses in one phase
#: before the engine moves it (re-layout has a cost; don't chase noise).
MIN_PHASE_FS = 16

#: Most repairs one run will perform (each is a one-way door: a repaired
#: structure is never repaired again).
MAX_REPAIRS = 8


@dataclass(slots=True)
class Repair:
    """One mitigation the engine performed at a phase boundary."""

    #: phase whose traffic triggered the repair (repair happens at its
    #: closing barrier, so phase ``phase + 1`` runs on the new placement)
    phase: int
    structure: str
    #: overlay relocation shape ("pad_align" | "split" | "group_transpose")
    kind: str
    #: the originating static action's rationale
    why: str
    #: false-sharing misses the structure took in the triggering phase
    phase_fs: int


@dataclass(slots=True)
class PhaseStat:
    """Per-phase traffic summary (one row of the engine's decision log)."""

    index: int
    start: int  # trace index range [start, stop)
    stop: int
    fs_misses: int
    hottest: str | None = None
    hottest_fs: int = 0
    repaired: str | None = None


@dataclass(slots=True)
class DynamicRun:
    """Outcome of one dynamically mitigated simulation."""

    result: SimResult
    phases: list[PhaseStat]
    repairs: list[Repair]
    #: the equivalent static plan: base-plan fragments plus every applied
    #: repair's fragments, canonicalized — what the verify oracle checks
    plan: TransformPlan
    overlay: AddressOverlay

    def counters(self) -> dict:
        """Manifest form (the schema-3 ``dynamic`` record)."""
        return {
            "phases": len(self.phases),
            "repairs": len(self.repairs),
            "repaired": sorted(r.structure for r in self.repairs),
            "bytes_moved": self.overlay.bytes_moved,
            "fs_at_repair": sum(r.phase_fs for r in self.repairs),
        }


def _candidate_actions(
    pa: ProgramAnalysis, layout: DataLayout, block_size: int
) -> dict[str, list[PlanAction]]:
    """Legal repair actions per base global, drawn from the tuner's
    action space.  Heap targets are excluded (indirection is the only
    action there, and it is not realizable by a runtime copy); so are
    structures the base plan already grouped (their elements no longer
    live at a contiguous base the overlay could relocate)."""
    by_base: dict[str, list[PlanAction]] = {}
    for target, pat in sorted(pa.patterns.items(), key=lambda kv: str(kv[0])):
        if pat.is_lock or target.is_heap:
            continue
        if target.base not in layout.globals:
            continue
        if target.base in layout._grouped_paths:
            continue
        acts = [
            a
            for a in _actions_for(pa, target, pat, block_size)
            if a.kind in ("pad_align", "group_transpose")
        ]
        if acts:
            by_base.setdefault(target.base, []).extend(acts)
    return by_base


def _pick_action(actions: list[PlanAction]) -> PlanAction:
    """Strongest repair first: per-element padding isolates every
    element, group & transpose needs an owner structure, whole-object
    padding only fixes cross-structure sharing."""

    def rank(a: PlanAction) -> int:
        if a.kind == "pad_align" and any(p.per_element for p in a.pads):
            return 0
        if a.kind == "group_transpose":
            return 1
        return 2

    return min(actions, key=lambda a: (rank(a), str(a)))


def _apply(
    overlay: AddressOverlay,
    layout: DataLayout,
    name: str,
    action: PlanAction,
    nprocs: int,
) -> str:
    """Realize one static action as an overlay relocation; returns the
    relocation kind actually used."""
    ginfo = layout.globals[name]
    ty = ginfo.type
    dims = getattr(ty, "dims", None)
    if dims is None:
        # scalars: grouping and padding both come down to "move it off
        # everyone else's line"
        overlay.pad_whole(name, ginfo.base, ginfo.size)
        return "pad_align"
    nelems = ty.nelems
    stride = ginfo.elem_stride or layout.sizeof(ty.elem)
    if action.kind == "pad_align" and any(p.per_element for p in action.pads):
        overlay.pad_elements(name, ginfo.base, nelems, stride)
        return "split"
    if action.kind == "group_transpose" and action.group:
        m = action.group[0]
        if m.partition is not None:
            owners = [
                owner_of(m.partition, _unflatten(i, tuple(dims)), nprocs)
                for i in range(nelems)
            ]
        else:
            owners = [m.owner] * nelems
        overlay.group_by_owner(
            name, ginfo.base, nelems, stride, owners, nprocs
        )
        return "group_transpose"
    overlay.pad_whole(name, ginfo.base, ginfo.size)
    return "pad_align"


def _phase_bounds(run: RunResult) -> list[int]:
    """Trace-index boundaries of the run's phases: start, every interior
    barrier release, end."""
    n = len(run.trace)
    marks = sorted({m for m in run.phase_marks if 0 < m < n})
    return [0, *marks, n]


def mitigate(
    checked,
    layout: DataLayout,
    run: RunResult,
    *,
    nprocs: int,
    block_size: int,
    machine=None,
    base_plan: TransformPlan | None = None,
    analysis: ProgramAnalysis | None = None,
    min_phase_fs: int = MIN_PHASE_FS,
    max_repairs: int = MAX_REPAIRS,
    config: RunConfig | None = None,
) -> DynamicRun:
    """Simulate ``run`` with online re-layout at phase boundaries.

    ``layout`` must be the layout the run was interpreted under (the
    overlay relocates *that* placement); ``base_plan`` is the static
    plan behind it (None for the natural layout) and seeds the
    accumulated equivalence plan — pass both to model the *hybrid*
    static + dynamic arm.  ``analysis`` reuses a precomputed
    :func:`analyze_program` result across calls.

    ``config`` selects the machine, the engine and the protocol core,
    as for :func:`repro.sim.simulate_run`; ``machine`` (a model or a
    registry name) overrides its machine.  The reference engine runs
    the Python core.
    """
    config = config or RunConfig.from_env()
    model = resolve_machine(machine or config.machine)
    trace = run.trace
    # relocated placements sit below the interpreter's private space,
    # so the trace's own procs and blocks bound every event fed below
    kernel = PYTHON if config.engine == REFERENCE else resolve_kernel(
        kernel=config.kernel,
        envelope=(trace.proc, trace.addr // block_size),
    )
    core = make_core(kernel, nprocs, model.cache_config(block_size))
    pa = analysis if analysis is not None else analyze_program(checked, nprocs)
    actions = _candidate_actions(pa, layout, block_size)
    regions = build_region_map(layout, run.heap_segments)

    overlay = AddressOverlay(block_size=block_size)
    bounds = _phase_bounds(run)
    dyn_block_lo = DYN_BASE // block_size

    phases: list[PhaseStat] = []
    repairs: list[Repair] = []
    applied: list[PlanAction] = []
    fs_before: dict[int, int] = {}

    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        chunker = EventChunker(block_size)
        core.consume(chunker.feed(
            trace.proc[lo:hi], overlay.translate(trace.addr[lo:hi]),
            trace.size[lo:hi], trace.is_write[lo:hi],
        ))
        core.consume(chunker.flush())

        # per-structure FS delta of this phase (relocated placements are
        # outside the region map — and outside the candidate set anyway)
        fs_now = core.fs_by_block()
        delta = {
            b: c - fs_before.get(b, 0)
            for b, c in fs_now.items()
            if c > fs_before.get(b, 0)
        }
        fs_before = fs_now
        stat = PhaseStat(
            index=k, start=lo, stop=hi, fs_misses=sum(delta.values())
        )
        base_blocks = [b for b in delta if b < dyn_block_lo]
        if base_blocks:
            arr = np.asarray(base_blocks, dtype=np.int64)
            names = regions.names_of_many(arr * block_size)
            per_struct: dict[str, int] = {}
            for nm, b in zip(names.tolist(), base_blocks):
                per_struct[nm] = per_struct.get(nm, 0) + delta[b]
            candidates = [
                (fs, nm)
                for nm, fs in per_struct.items()
                if nm in actions and not overlay.repaired(nm)
            ]
            if per_struct:
                top = max(per_struct.items(), key=lambda kv: (kv[1], kv[0]))
                stat.hottest, stat.hottest_fs = top[0], top[1]
            if (
                candidates
                and k < len(bounds) - 2  # a repair after the last phase
                and len(repairs) < max_repairs  # would mitigate nothing
            ):
                fs, name = max(candidates)
                if fs >= min_phase_fs:
                    action = _pick_action(actions[name])
                    kind = _apply(overlay, layout, name, action, nprocs)
                    repairs.append(
                        Repair(
                            phase=k, structure=name, kind=kind,
                            why=action.why, phase_fs=fs,
                        )
                    )
                    applied.append(action)
                    stat.repaired = name
        phases.append(stat)

    base = (base_plan or TransformPlan(nprocs=nprocs)).canonical()
    plan = TransformPlan(
        nprocs=max(nprocs, base.nprocs),
        group=list(base.group),
        indirections=list(base.indirections),
        pads=list(base.pads),
        lock_pads=list(base.lock_pads),
        record_pads=list(base.record_pads),
        decisions=list(base.decisions),
    )
    for r, act in zip(repairs, applied):
        plan.group.extend(act.group)
        plan.pads.extend(act.pads)
        plan.decisions.append(
            Decision(
                act.target,
                act.kind,
                f"dynamic: phase {r.phase} saw {r.phase_fs} FS misses "
                f"on {r.structure}; {act.why}",
            )
        )
    result = core.result(
        extra_refs=sum(run.private_refs.values()), sim_seconds=0.0,
        engine="dynamic",
    )
    return DynamicRun(
        result=result,
        phases=phases,
        repairs=repairs,
        plan=plan.canonical(),
        overlay=overlay,
    )
