"""Randomized work-stealing scheduler (the Cole–Ramachandran model).

The round-robin :class:`~repro.runtime.scheduler.Scheduler` visits every
process in a fixed order with a fixed quantum — the deterministic SPMD
execution the paper's experiments assume.  This module adds the second
execution model the ROADMAP's "scheduler diversity" item asks for:
**randomized work stealing** (RWS), the schedule under which Cole &
Ramachandran (arXiv:1103.4142) bound the extra false-sharing cost of a
parallel computation at O(steal-count × block-size-in-words).

Model
-----

Each of the ``nprocs`` cpus owns a deque of worker tasks.  A spawned
worker lands on a *random* cpu's deque (the seeded analogue of the
distributed spawn RWS assumes).  Every round each cpu

1. polls the tasks parked on it (blocked on a lock/barrier) once,
2. acquires one runnable task — its own deque first (owner end),
   otherwise a **steal** from a uniformly random victim's steal end,
3. runs it for up to ``grain`` statement-boundary yields, then returns
   it to the steal end of its own deque.

All randomness flows from one ``random.Random(seed)``: the same
``(program, nprocs, seed, grain)`` replays the identical schedule, bit
for bit, which is what makes stochastic schedules testable.  The RNG is
consumed only at spawn placement and victim selection — decisions that
depend on blocking structure and spawn order, never on data addresses —
so a fixed seed produces the *same interleaving under every data
layout*.  That invariance is what lets the semantic-equivalence oracle
compare natural-vs-transformed runs under a steal schedule at all.

The serial parent (pid −1) is not a task: it runs one quantum per round
on its own, exactly as under round-robin, and its references keep the
−1 processor tag.  Worker references are tagged with the **cpu that
executed them** (chosen at steal time), which is how migrations become
visible to the coherence simulation as false-sharing traffic.

Configuration
-------------

A :class:`SchedConfig` pins one policy (the ``sched`` of a
:class:`~repro.config.RunConfig`); every execution entry point takes it
explicitly.
"""

from __future__ import annotations

import random
from collections import deque

from repro.config import DEFAULT_GRAIN, RR, SchedConfig  # noqa: F401
from repro.errors import RuntimeFault
from repro.runtime.scheduler import Proc, Scheduler

#: Constant factor of the Cole–Ramachandran FS overhead bound (their
#: O((S + P)·B/w) extra misses for S steals on P processors with
#: B-byte blocks and w-byte words), calibrated once against the rws
#: experiment so every measured workload sits inside it with margin.
RWS_BOUND_C = 8


def fs_bound(
    fs_rr: int, steals: int, block_size: int, nprocs: int
) -> int:
    """Predicted ceiling on steal-mode false-sharing misses.

    Cole & Ramachandran bound the *extra* misses an RWS execution pays
    over the static schedule at O((S + P) · B/w): each of the S steals
    (and each processor's initial task acquisition, ≤ P of them) can
    displace at most a constant number of cache blocks whose residents
    then pay one false-sharing round per word of the block.  The rr
    execution's own FS count stands in for the static baseline.
    """
    words = max(block_size // 4, 1)
    return fs_rr + RWS_BOUND_C * (steals + nprocs) * words


class StealScheduler(Scheduler):
    """Seeded randomized work stealing over per-cpu deques.

    Inherits the synchronization state (lock table, barrier generation)
    and the process registry from the round-robin scheduler — the
    interpreter's ``lock``/``barrier`` builtins are scheduler-agnostic —
    and replaces only the dispatch loop.  ``quantum`` keeps its rr
    meaning for the serial parent; workers run in ``grain``-sized
    chunks instead.
    """

    kind = "steal"

    def __init__(
        self,
        nprocs: int,
        *,
        seed: int = 0,
        grain: int = DEFAULT_GRAIN,
        quantum: int = 4,
        max_steps: int = 200_000_000,
    ):
        super().__init__(quantum=quantum, max_steps=max_steps)
        self.ncpus = max(int(nprocs), 1)
        self.seed = seed
        self.grain = max(int(grain), 1)
        self.rng = random.Random(seed)
        #: left end = steal side (FIFO for fresh spawns), right end =
        #: owner side; preempted chunks return to the steal side so an
        #: owner cycles through its deque (no task starves).
        self.deques: list[deque[Proc]] = [deque() for _ in range(self.ncpus)]
        #: tasks blocked on a lock/barrier, parked on the cpu that was
        #: running them (polled once per round, like an rr spin visit)
        self.parked: list[list[Proc]] = [[] for _ in range(self.ncpus)]
        self._last_cpu: dict[int, int] = {}
        # -- counters for the rws experiment -----------------------------
        self.steals = 0
        self.steal_attempts = 0
        self.migrations = 0
        self.chunks = 0

    # -- process management ------------------------------------------------------

    def add(self, proc: Proc) -> None:
        super().add(proc)
        if proc.is_worker:
            # distributed spawn: the task lands on a random cpu
            self.deques[self.rng.randrange(self.ncpus)].append(proc)

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "grain": self.grain,
            "ncpus": self.ncpus,
            "steals": self.steals,
            "steal_attempts": self.steal_attempts,
            "migrations": self.migrations,
            "chunks": self.chunks,
        }

    # -- dispatch ----------------------------------------------------------------

    def _acquire(self, cpu: int) -> Proc | None:
        """Pop one runnable task: own deque first, else steal."""
        own = self.deques[cpu]
        if own:
            return own.pop()
        if not any(
            self.deques[v] for v in range(self.ncpus) if v != cpu
        ):
            return None
        # Uniform victim selection with retry; the draw sequence depends
        # only on deque occupancy (layout-invariant).  Bounded retries,
        # then a deterministic scan, keep one round O(ncpus).
        for _ in range(4 * self.ncpus):
            v = self.rng.randrange(self.ncpus - 1)
            if v >= cpu:
                v += 1
            self.steal_attempts += 1
            if self.deques[v]:
                return self._steal_from(v, cpu)
        for off in range(1, self.ncpus):
            v = (cpu + off) % self.ncpus
            if self.deques[v]:
                return self._steal_from(v, cpu)
        return None  # pragma: no cover - guarded by the any() above

    def _steal_from(self, victim: int, thief: int) -> Proc:
        task = self.deques[victim].popleft()
        self.steals += 1
        last = self._last_cpu.get(task.pid)
        if last is not None and last != thief:
            self.migrations += 1
        return task

    def _step(self, proc: Proc) -> bool:
        """One ``next()`` on a task; True while it stays live."""
        try:
            next(proc.gen)
        except StopIteration:
            proc.done = True
            if proc.is_worker:
                self.note_worker_done()
            return False
        self.steps += 1
        if self.steps > self.max_steps:
            raise RuntimeFault(
                f"execution exceeded {self.max_steps} steps "
                "(runaway program?)"
            )
        return True

    def _run_chunk(self, task: Proc, cpu: int) -> bool:
        """Run one task for up to ``grain`` yields on ``cpu``; returns
        whether any non-blocked progress happened."""
        task.cpu = cpu
        self._last_cpu[task.pid] = cpu
        self.chunks += 1
        did_work = False
        for _ in range(self.grain):
            if not self._step(task):
                return did_work
            if task.blocked_on is not None:
                self.parked[cpu].append(task)
                return did_work
            did_work = True
        self.deques[cpu].appendleft(task)
        return did_work

    def _poll_parked(self, cpu: int) -> bool:
        """Give each parked task one spin probe; unpark the released."""
        did_work = False
        still: list[Proc] = []
        for task in self.parked[cpu]:
            task.cpu = cpu
            if not self._step(task):
                continue
            if task.blocked_on is None:
                self.deques[cpu].append(task)
                did_work = True
            else:
                still.append(task)
        self.parked[cpu] = still
        return did_work

    # -- main loop -----------------------------------------------------------------

    def run(self) -> None:
        main = next((p for p in self.procs if not p.is_worker), None)
        while True:
            if all(p.done for p in self.procs):
                return
            before = self._state_token()
            did_work = False
            if main is not None and not main.done and main.gen is not None:
                for _ in range(self.quantum):
                    if not self._step(main):
                        break
                    if main.blocked_on is not None:
                        break
                    did_work = True
            for cpu in range(self.ncpus):
                if self._poll_parked(cpu):
                    did_work = True
                task = self._acquire(cpu)
                if task is not None and self._run_chunk(task, cpu):
                    did_work = True
            all_blocked = all(
                p.done or p.blocked_on is not None for p in self.procs
            )
            if not did_work and all_blocked and self._state_token() == before:
                blocked = [
                    f"pid {p.pid}: {p.blocked_on}"
                    for p in self.procs
                    if not p.done
                ]
                raise RuntimeFault(
                    "deadlock: all live processes blocked — "
                    + "; ".join(blocked)
                )
