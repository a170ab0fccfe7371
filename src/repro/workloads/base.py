"""Workload abstraction: the paper's ten benchmarks as scaled-down
kernels in the restricted parallel-C language.

Each workload is *one* source program plus, where the paper had one, a
hand-written "programmer" transformation plan.  The three versions of
the methodology map onto the pipeline as:

=======  =====================================================
N        natural layout of the source (unoptimized)
C        compiler plan from the static analyses
P        the workload's ``programmer_plan`` (hand effort model)
=======  =====================================================

The kernels preserve each program's *sharing structure* as the paper
reports it (DESIGN.md section 5): which data structures are falsely
shared, which transformation the compiler applies to each, and the
pathologies the analysis cannot see (dynamically revolving partitions,
busy scalars whose frequency static profiling underestimates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis import ProgramAnalysis
from repro.transform import TransformPlan

if TYPE_CHECKING:  # imported lazily at run time (avoids a cycle with harness)
    from repro.harness.pipeline import Pipeline, VersionRun


@dataclass(slots=True)
class Workload:
    """One benchmark program."""

    name: str
    description: str
    #: lines of C in the paper's Table 1 (the original application)
    paper_lines: int
    #: which versions the paper reports ("NC", "NCP", "CP")
    versions: str
    source: str
    #: Figure 3 runs 12 processors (Topopt: 9)
    fig3_procs: int = 12
    #: hand plan: (analysis) -> TransformPlan, or None when no
    #: programmer-optimized version exists (Maxflow)
    programmer_plan: Optional[Callable[[ProgramAnalysis], TransformPlan]] = None
    #: expected dominant transformations (for tests / Table 2 shape)
    expected_transforms: tuple[str, ...] = ()
    #: paper's Table 3 row: version -> (max speedup, at processors)
    paper_max_speedup: dict[str, tuple[float, int]] = field(default_factory=dict)
    #: paper's Table 2 row: total FS reduction %
    paper_fs_reduction: Optional[float] = None
    #: KSR2 timing calibration: cycles per interpreted operation.  The
    #: kernels elide the real applications' arithmetic, so this factor
    #: restores each program's compute-to-communication ratio (see
    #: DESIGN.md "Substitutions" and EXPERIMENTS.md).
    cpi: float = 4.0

    def pipeline(self, block_size: int = 128, config=None) -> "Pipeline":
        from repro.harness.pipeline import Pipeline

        return Pipeline(self.source, block_size=block_size, config=config)

    def run_version(
        self, pipe: "Pipeline", version: str, nprocs: int
    ) -> "VersionRun":
        from repro.harness.parallel import resolve_plan

        plan = resolve_plan(pipe, self, version, nprocs)
        return pipe.execute(nprocs, plan, version)
