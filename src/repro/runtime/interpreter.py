"""The SPMD interpreter: executes restricted parallel-C programs on P
logical processors and emits the memory-reference trace.

Semantics
---------

* globals are shared; locals/params are per-process (private stack);
* ``create(f, e)`` spawns a worker; ``wait_for_end()`` joins; workers
  synchronize with ``barrier()`` and ``lock``/``unlock``;
* scheduling is deterministic round-robin at statement granularity
  (see :mod:`repro.runtime.scheduler`), or seeded work stealing
  (:mod:`repro.runtime.stealing`);
* the program runs as generated code: :mod:`repro.runtime.lower` turns
  each C function into one Python generator function, which this module
  binds to the layout and drives;
* every shared reference goes through the
  :class:`~repro.layout.datalayout.DataLayout`, so running the same
  program under the unoptimized and transformed layouts produces exactly
  the address streams the two program versions would generate —
  including the indirection transformation's extra pointer loads and the
  spin traffic of contended locks.

Indirection protocol
--------------------

For a field the plan moved to per-process arenas, the record holds a
pointer cell (the adjusted struct layout re-types the field).  On first
access the accessing process installs an arena slot; a record first
touched by the serial parent (main) is *migrated* to the first worker
that touches it — modelling the per-process setup code the
source-to-source compiler emits (see DESIGN.md).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import RuntimeFault
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.layout.datalayout import (
    BARRIER_ADDR,
    HEAP_BASE,
    DataLayout,
)
from repro.runtime import lower
from repro.runtime.scheduler import Proc, Scheduler
from repro.runtime.stealing import SchedConfig, StealScheduler, resolve_sched
from repro.runtime.trace import RunResult, TraceBuffer

#: Private (per-process stack) storage starts here; anything below is shared.
PRIVATE_BASE = 0x1_0000_0000
PRIVATE_STRIDE = 0x0100_0000

_POINTER_SIZE = 8


def _default_for(ty: T.CType):
    if isinstance(ty, T.DoubleType):
        return 0.0
    return 0


class Interpreter:
    """One program execution at one process count under one layout.

    The program runs as generated code (:mod:`repro.runtime.lower`);
    this class drives it and supplies what the generated code calls:
    memory and indirection helpers and the synchronization builtins.
    """

    private_base = PRIVATE_BASE

    def __init__(
        self,
        checked: CheckedProgram,
        layout: DataLayout,
        nprocs: int,
        *,
        quantum: int = 4,
        max_steps: int = 200_000_000,
        trace_sink=None,
        sched: SchedConfig | None = None,
    ):
        self.checked = checked
        self.layout = layout
        self.nprocs = nprocs
        self.mem: dict[int, object] = {}
        #: ``trace_sink`` swaps the materializing buffer for a streaming
        #: one (same ``append``/``freeze`` protocol — see
        #: :class:`repro.runtime.stream.ChunkSink`); the interpreter
        #: itself never holds more than the sink retains.
        self.trace = trace_sink if trace_sink is not None else TraceBuffer()
        #: execution model: None resolves REPRO_SCHED/_SEED/_GRAIN
        self.sched_config = sched if sched is not None else resolve_sched()
        if self.sched_config.kind == "steal":
            self.sched: Scheduler = StealScheduler(
                nprocs,
                seed=self.sched_config.seed,
                grain=self.sched_config.grain,
                quantum=quantum,
                max_steps=max_steps,
            )
        else:
            self.sched = Scheduler(quantum=quantum, max_steps=max_steps)
        #: trace indices of barrier releases (phase boundaries); both
        #: TraceBuffer and ChunkSink expose __len__, so the mark is the
        #: number of references emitted before the release.
        self.phase_marks: list[int] = []
        self.sched.on_barrier_release = lambda: self.phase_marks.append(
            len(self.trace)
        )
        self.heap_cursor = HEAP_BASE
        self.arena_cursors: dict[tuple, int] = {}
        #: pointer-cell addr -> owning pid (indirection bookkeeping)
        self.indirect_owner: dict[int, int] = {}
        self.output: list[str] = []
        self.exit_value: Optional[int] = None
        #: (addr, size, label) for alloc()ed objects, for miss attribution
        self.heap_segments: list[tuple[int, int, str]] = []
        #: C function name -> its generated generator function (set when
        #: the program is bound)
        self._funcs: dict = {}

    # ------------------------------------------------------------------
    # run driver
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        from repro.obs import spans as obs

        with obs.span("interp.run", nprocs=self.nprocs) as sp:
            t0 = time.perf_counter()
            with obs.span("interp.lower"):
                self._funcs = lower.bind(self)
            main_proc = Proc(pid=-1)
            main_proc.priv_cursor = PRIVATE_BASE
            main_proc.gen = self._funcs["main"](main_proc)
            self.sched.add(main_proc)
            self.sched.run()
            result = RunResult(
                trace=self.trace.freeze(),
                nprocs=self.nprocs,
                work={p.pid: p.work for p in self.sched.procs},
                private_refs={p.pid: p.private_refs for p in self.sched.procs},
                shared_refs={p.pid: p.shared_refs for p in self.sched.procs},
                output=self.output,
                exit_value=self.exit_value,
                heap_segments=list(self.heap_segments),
                sched=self.sched.stats(),
                phase_marks=list(self.phase_marks),
            )
            if sp is not None:
                refs = len(self.trace)
                sp.meta["trace_len"] = refs
                sp.meta["refs_per_s"] = round(
                    refs / max(time.perf_counter() - t0, 1e-9)
                )
        return result

    # ------------------------------------------------------------------
    # memory primitives
    # ------------------------------------------------------------------

    def _ref(self, proc: Proc, addr: int, size: int, is_write: bool) -> None:
        if addr >= PRIVATE_BASE:
            proc.private_refs += 1
        else:
            proc.shared_refs += 1
            self.trace.append(proc.cpu, addr, size, is_write)

    def _load_raw(self, proc: Proc, addr: int, ty: T.CType):
        self._ref(proc, addr, lower.scalar_size(ty), False)
        return self.mem.get(addr, _default_for(ty))

    def _store_raw(self, proc: Proc, addr: int, ty: T.CType, value) -> None:
        self._ref(proc, addr, lower.scalar_size(ty), True)
        self.mem[addr] = value

    def _frame_alloc(self, proc: Proc, ty: T.CType) -> int:
        size = max(self.layout.sizeof(ty), 1)
        align = max(self.layout.alignof(ty), 1)
        proc.priv_cursor = (proc.priv_cursor + align - 1) // align * align
        addr = proc.priv_cursor
        proc.priv_cursor += size
        return addr

    def _alloc_obj(self, e, count: int) -> int:
        assert e.elem_type is not None
        size = self.layout.sizeof(e.elem_type) * max(count, 1)
        align = max(self.layout.alignof(e.elem_type), 8)
        self.heap_cursor = (self.heap_cursor + align - 1) // align * align
        addr = self.heap_cursor
        self.heap_cursor += size
        self.heap_segments.append((addr, size, f"heap:{e.type_name}"))
        return addr

    # ------------------------------------------------------------------
    # indirection
    # ------------------------------------------------------------------

    def _apply_field(self, proc: Proc, cell: int, key: tuple[str, str]) -> int:
        """Follow the pointer cell of an indirected field (``key`` is
        ``(struct, field)``) and return the address of the value.

        On first access the accessing process installs a slot in its own
        arena; a slot installed by the serial parent (main) is migrated to
        the first worker that touches it."""
        struct_name, field_name = key
        fld = self.layout.field_of(struct_name, field_name)
        assert isinstance(fld.type, T.PointerType)
        orig_ty = fld.type.target
        slot = self.mem.get(cell, 0)
        self._ref(proc, cell, _POINTER_SIZE, False)  # pointer load
        if not slot:
            slot = self._arena_alloc(proc.pid, orig_ty, struct_name, field_name)
            self.mem[cell] = slot
            self.indirect_owner[cell] = proc.pid
            self._ref(proc, cell, _POINTER_SIZE, True)
        elif proc.pid >= 0 and self.indirect_owner.get(cell) == -1:
            # migrate from main's staging arena to this worker's arena
            new_slot = self._arena_alloc(proc.pid, orig_ty, struct_name, field_name)
            value = self._load_raw(proc, int(slot), orig_ty)
            self._store_raw(proc, new_slot, orig_ty, value)
            self.mem[cell] = new_slot
            self.indirect_owner[cell] = proc.pid
            self._ref(proc, cell, _POINTER_SIZE, True)
            slot = new_slot
        return int(slot)

    def _arena_alloc(
        self, pid: int, ty: T.CType, struct_name: str, field_name: str
    ) -> int:
        key = (pid, struct_name, field_name)
        cursor = self.arena_cursors.get(key)
        if cursor is None:
            cursor = self.layout.arena_region(pid, struct_name, field_name)
        size = self.layout.sizeof(ty)
        align = max(self.layout.alignof(ty), 1)
        cursor = (cursor + align - 1) // align * align
        self.arena_cursors[key] = cursor + size
        return cursor

    def _walk(self, proc: Proc, chain: int, idxs: tuple, upto: int) -> int:
        """Address after the first ``upto`` steps of static access path
        ``chain`` (see :mod:`repro.runtime.lower`) at index values
        ``idxs``, for a layout that indirects a field on the path: the
        path is placed statically up to the first indirected field, whose
        pointer cell sits in that placement, and followed as a raw
        address after it."""
        layout = self.layout
        base, steps = self.checked.lowered.chains[chain]
        static: list[tuple[str, object]] = []
        ty = layout.global_info(base).type
        addr: int | None = None
        it = iter(idxs)
        for step in steps[:upto]:
            if step[0] == "idx":
                i = next(it)
                ty = T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem
                if addr is None:
                    static.append(("idx", i))
                else:
                    addr += i * layout.sizeof(ty)
                continue
            key = (step[1], step[2])
            fld = layout.field_of(*key)
            indirected = layout.is_indirected(*key)
            if addr is None and not indirected:
                static.append(("field", key[1]))
                ty = fld.type
                continue
            if addr is None:
                addr, _ = layout.materialize(base, static)
            addr += fld.offset
            ty = fld.type
            if indirected:
                addr = self._apply_field(proc, addr, key)
                ty = fld.type.target
        if addr is None:
            addr, _ = layout.materialize(base, static)
        return addr

    # ------------------------------------------------------------------
    # processes and synchronization
    # ------------------------------------------------------------------

    def _spawn(self, func_name: str, pid_val: int) -> None:
        # cpu starts at pid (owner-computes); only the stealing
        # scheduler ever moves it, so rr traces are unchanged.
        worker = Proc(pid=pid_val, cpu=pid_val)
        worker.priv_cursor = PRIVATE_BASE + (pid_val + 2) * PRIVATE_STRIDE
        worker.gen = self._funcs[func_name](worker, pid_val, spawned=True)
        self.sched.add(worker)

    def _barrier(self, proc: Proc):
        # arrive: RMW on the barrier word
        self._ref(proc, BARRIER_ADDR, 8, False)
        self._ref(proc, BARRIER_ADDR, 8, True)
        gen = self.sched.barrier_arrive(proc.pid)
        while self.sched.barrier_generation == gen:
            proc.blocked_on = ("barrier", gen)
            yield
            proc.blocked_on = None
            if self.sched.barrier_generation == gen:
                self._ref(proc, BARRIER_ADDR, 8, False)  # spin probe
        # observe the release
        self._ref(proc, BARRIER_ADDR, 8, False)

    def _lock(self, proc: Proc, addr: int):
        while True:
            owner = self.sched.locks.get(addr)
            if owner is None:
                self.sched.locks[addr] = proc.pid
                # test-and-set: read + write
                self._ref(proc, addr, 8, False)
                self._ref(proc, addr, 8, True)
                return
            if owner == proc.pid:
                raise RuntimeFault(f"recursive lock at {addr:#x}")
            self._ref(proc, addr, 8, False)  # contended probe
            proc.blocked_on = ("lock", addr)
            yield
            proc.blocked_on = None

    def _unlock(self, proc: Proc, addr: int) -> None:
        owner = self.sched.locks.get(addr)
        if owner != proc.pid:
            raise RuntimeFault(
                f"unlock of lock at {addr:#x} not held by pid {proc.pid}"
            )
        del self.sched.locks[addr]
        self._ref(proc, addr, 8, True)

    def _join(self, proc: Proc):
        while any(not p.done for p in self.sched.workers()):
            proc.blocked_on = ("join",)
            yield
            proc.blocked_on = None


def run_program(
    checked: CheckedProgram,
    layout: DataLayout,
    nprocs: int,
    *,
    quantum: int = 4,
    max_steps: int = 200_000_000,
    sched: SchedConfig | None = None,
) -> RunResult:
    """Execute a checked program under ``layout`` with ``nprocs`` worker
    processes and return the trace and counters.

    ``sched`` selects the execution model (round-robin or randomized
    work stealing — see :mod:`repro.runtime.stealing`); None resolves
    the ``REPRO_SCHED`` family of environment knobs."""
    return Interpreter(
        checked, layout, nprocs,
        quantum=quantum, max_steps=max_steps, sched=sched,
    ).run()
