"""One run configuration, resolved once at the boundary.

:class:`RunConfig` holds what a result depends on: the machine, the
schedule, the protocol core and the engine.  :meth:`RunConfig.from_env`
is the only reader of ``REPRO_MACHINE``, ``REPRO_SCHED``,
``REPRO_SIM_KERNEL`` and ``REPRO_SIM_ENGINE``; the CLI folds its flags
over it and passes the result down explicitly.  :func:`env_number`
parses every numeric knob: a malformed value is a one-line
:class:`~repro.errors.ReproError`, never a silent default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import ReproError

ENV_MACHINE = "REPRO_MACHINE"
ENV_SCHED = "REPRO_SCHED"
ENV_KERNEL = "REPRO_SIM_KERNEL"
ENV_ENGINE = "REPRO_SIM_ENGINE"

DEFAULT_MACHINE = "ksr2"
SCHED_KINDS = ("rr", "steal")
#: Statement-boundary yields one task chunk runs before it is returned
#: to its cpu's deque (the task-grain of the lowered parallel loop).
DEFAULT_GRAIN = 16


def env_number(name: str, default, kind=int):
    """``kind(os.environ[name])``, or ``default`` when unset or blank."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ReproError(f"{name} must be {what}; got {raw!r}") from None


def _env_choice(name: str, choices, default: str) -> str:
    raw = os.environ.get(name, "")
    value = raw.strip().lower() or default
    if value not in choices:
        raise ReproError(
            f"{name} must be one of {', '.join(sorted(choices))}; "
            f"got {raw!r}"
        )
    return value


@dataclass(frozen=True, slots=True)
class SchedConfig:
    """One scheduling policy, fully pinned (hashable, cache-keyable)."""

    kind: str = "rr"
    seed: int = 0
    grain: int = DEFAULT_GRAIN

    def __post_init__(self) -> None:
        if self.kind not in SCHED_KINDS:
            raise ReproError(
                f"scheduler kind must be one of {SCHED_KINDS}; "
                f"got {self.kind!r}"
            )
        if self.grain < 1:
            raise ReproError(f"grain must be >= 1; got {self.grain}")

    def describe(self) -> str:
        """Canonical string form — joins the trace-cache key, so two
        configs that can produce different traces must never collide."""
        if self.kind == "rr":
            return "rr"
        return f"steal:seed={self.seed}:grain={self.grain}"


#: The deterministic default schedule.
RR = SchedConfig()


@dataclass(frozen=True, slots=True)
class RunConfig:
    """The machine, schedule, protocol core and engine of one run."""

    machine: str = DEFAULT_MACHINE
    sched: SchedConfig = RR
    kernel: str = "auto"
    engine: str = "fast"

    #: Fields that cannot change an interpreted trace, so they stay out
    #: of the trace key and one stored trace serves every machine, core
    #: and engine.  Every other field is hashed into the key.
    TRACE_IRRELEVANT: ClassVar[frozenset] = frozenset(
        {"machine", "kernel", "engine"}
    )

    @classmethod
    def from_env(cls) -> "RunConfig":
        from repro.machine.models import MACHINES

        kind = _env_choice(ENV_SCHED, SCHED_KINDS, "rr")
        return cls(
            machine=_env_choice(ENV_MACHINE, MACHINES, DEFAULT_MACHINE),
            sched=SchedConfig(kind),
            kernel=_env_choice(ENV_KERNEL, ("auto", "native", "python"),
                               "auto"),
            engine=_env_choice(ENV_ENGINE, ("fast", "reference"), "fast"),
        )

    def override(self, *, machine=None, sched=None, seed=None, grain=None,
                 kernel=None) -> "RunConfig":
        """Fold command-line flags over this config (None keeps a
        field).  A seed or grain under rr is an error: rr has neither,
        and ignoring one would mislabel the run."""
        kind = sched or self.sched.kind
        pinned = {k: v for k, v in (("seed", seed), ("grain", grain))
                  if v is not None}
        if kind == "rr" and pinned:
            raise ReproError(
                "--sched-seed and --grain need a steal schedule "
                "(--sched steal or REPRO_SCHED=steal)"
            )
        base = self.sched if self.sched.kind == kind else SchedConfig(kind)
        return replace(self, machine=machine or self.machine,
                       sched=replace(base, **pinned),
                       kernel=kernel or self.kernel)

    def describe(self) -> str:
        """Canonical one-line identity, recorded in every manifest."""
        return (f"machine={self.machine} sched={self.sched.describe()} "
                f"kernel={self.kernel} engine={self.engine}")
