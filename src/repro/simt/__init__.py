"""Vortex-like SIMT core models.

The package provides two levels of modelling:

* A cycle-level issue-stage simulator (:mod:`repro.simt.issue`) that replays
  per-warp instruction streams through a round-robin warp scheduler with
  structural and latency hazards.  Kernel models use it,
  through :class:`VortexCore`, to determine how many cycles a core needs to
  issue one steady-state iteration and which energy events it generates.
  There is one compiled path: a :class:`ProgramSet` decodes each distinct
  instruction and program object once per call, and the memo key, the issue
  loop (plain integer lists) and the event tally all read it.
  Instructions are immutable and may be shared; programs passed in are
  read-only.
* Analytical helpers: the occupancy calculator used to regenerate Table 1,
  and the Section 5.1 derivation of the largest tile a warp's register
  slice holds.
"""

from repro.simt.issue import IssueResult, IssueSimulator, ProgramSet
from repro.simt.core import VortexCore, CoreExecutionResult
from repro.simt.occupancy import OccupancyCalculator, OccupancyResult, GpuGenerationSpec

__all__ = [
    "IssueResult",
    "IssueSimulator",
    "ProgramSet",
    "VortexCore",
    "CoreExecutionResult",
    "OccupancyCalculator",
    "OccupancyResult",
    "GpuGenerationSpec",
]
