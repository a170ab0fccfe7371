"""Execution substrate: deterministic SPMD interpreter, round-robin and
randomized work-stealing schedulers, and memory-reference tracing (the
paper's [EKKL90] role)."""

from repro.runtime.builtins import rnd, rndf, splitmix64
from repro.runtime.interpreter import PRIVATE_BASE, Interpreter, run_program
from repro.runtime.scheduler import Proc, Scheduler
from repro.runtime.stealing import (
    DEFAULT_GRAIN,
    RR,
    RWS_BOUND_C,
    SchedConfig,
    StealScheduler,
    fs_bound,
)
from repro.runtime.trace import RunResult, Trace, TraceBuffer

__all__ = [
    "rnd",
    "rndf",
    "splitmix64",
    "PRIVATE_BASE",
    "Interpreter",
    "run_program",
    "Proc",
    "Scheduler",
    "DEFAULT_GRAIN",
    "RR",
    "RWS_BOUND_C",
    "SchedConfig",
    "StealScheduler",
    "fs_bound",
    "RunResult",
    "Trace",
    "TraceBuffer",
]
