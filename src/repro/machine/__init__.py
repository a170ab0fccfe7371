"""Machine models: the registry of simulated geometries
(KSR2 / modern64 / numa2), the KSR2 timing model, and the
speedup-curve machinery (the paper's execution-time experiments,
section 5)."""

from repro.machine.ksr2 import (
    KSR2Config,
    TimingResult,
    base_latency,
    execution_time,
    time_run,
)
from repro.machine.models import (
    DEFAULT_MACHINE,
    MACHINES,
    MachineModel,
    get_machine,
    resolve_machine,
)
from repro.machine.speedup import (
    DEFAULT_PROC_COUNTS,
    SpeedupCurve,
    build_curve,
    improvement_while_scaling,
)

__all__ = [
    "DEFAULT_MACHINE",
    "MACHINES",
    "MachineModel",
    "get_machine",
    "resolve_machine",
    "KSR2Config",
    "TimingResult",
    "base_latency",
    "execution_time",
    "time_run",
    "DEFAULT_PROC_COUNTS",
    "SpeedupCurve",
    "build_curve",
    "improvement_while_scaling",
]
