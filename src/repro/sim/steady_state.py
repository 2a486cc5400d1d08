"""Steady-state compression for periodic operation schedules.

The flash-attention kernels emit operation graphs with a deeply repetitive
shape: a warm-up prefix, a long run of identical loop iterations, and a
drain.  List scheduling such a graph is O(iterations) even though the
schedule becomes periodic after a handful of iterations.  This module
provides an exact executor for that structure: it *runs* the warm-up and
enough iterations to reach the periodic regime on the real scheduling
arithmetic, then jumps over the remaining iterations analytically.  (The
GEMM tile loop needs none of this: its schedule has a closed form in
:mod:`repro.kernels.gemm.schedule_loops`.)

The arithmetic mirrors :mod:`repro.sim.taskgraph` exactly -- an operation
starts at ``max(resource free, dependency ends)`` -- so the compressed
schedule is bit-identical to full list scheduling.  Two compression levels
are used:

* :meth:`SteadyStateEngine.run_loop` compresses a run of identical bodies
  (a Q tile's KV loop).  It detects a repeated per-component state delta,
  then performs one symbolic pass that tracks, for every ``max`` decision,
  the margin of the winning operand and its drift per iteration.  The
  minimum margin/drift ratio bounds how many iterations the current linear
  regime provably continues; that many iterations are applied as a
  closed-form shift.  Regime changes (a lagging pipe catching up) simply
  resume concrete execution, so the result is exact for any duration mix.
* :meth:`SteadyStateEngine.run_outer` compresses the outer (Q tile, head)
  loops.  It looks for a single transition where *every* state component
  advanced by the same amount; because the scheduling recurrence is built
  from ``max`` and ``+``, a uniform shift of the whole state reproduces
  itself exactly (max-plus shift invariance), so the remaining tiles can be
  applied in one step.  Bodies may nest freely -- a ``run_outer`` body may
  itself call ``run_loop`` *and* ``run_outer`` (the masked flash profile
  runs a per-head segment walk under a per-head outer loop), since both
  only read and advance the same engine state the invariance argument
  covers.

Busy cycles, per-kind cycles and operation counts advance by constants per
iteration, so they extrapolate exactly alongside the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LoopStep", "SteadyStateEngine"]


@dataclass(frozen=True)
class LoopStep:
    """One constant-duration operation of a loop body.

    ``deps`` name *anchors* -- named end-times maintained by the engine
    (e.g. the previous sync in the dependency chain).  A dependency on an
    anchor that has not been set yet is skipped, which models the warm-up
    iterations where a predecessor does not exist.  ``sets`` assign this
    operation's end time to anchors.
    """

    resource: str
    duration: int
    kind: str = ""
    deps: Tuple[str, ...] = ()
    sets: Tuple[str, ...] = ()


_MAKESPAN = "!makespan"


class SteadyStateEngine:
    """Executes loop bodies of :class:`LoopStep` with exact extrapolation."""

    def __init__(self) -> None:
        self.free: Dict[str, int] = {}
        self.anchors: Dict[str, int] = {}
        self.makespan = 0
        self.busy: Dict[str, int] = {}
        self.kind_cycles: Dict[str, int] = {}
        self.executed_operations = 0
        self.extrapolated_operations = 0

    def add_resource(self, name: str) -> None:
        self.free.setdefault(name, 0)
        self.busy.setdefault(name, 0)

    # ------------------------------------------------------------------ #
    # Concrete execution
    # ------------------------------------------------------------------ #

    def execute(self, step: LoopStep) -> int:
        """Run one operation; returns its end cycle.

        Start-time arithmetic matches :func:`repro.sim.taskgraph.schedule_graph`:
        ``max(resource free, dependency ends)``.
        """
        start = self.free[step.resource]
        for dep in step.deps:
            value = self.anchors.get(dep)
            if value is not None and value > start:
                start = value
        end = start + step.duration
        self.free[step.resource] = end
        for name in step.sets:
            self.anchors[name] = end
        if end > self.makespan:
            self.makespan = end
        self.busy[step.resource] += step.duration
        if step.kind:
            self.kind_cycles[step.kind] = self.kind_cycles.get(step.kind, 0) + step.duration
        self.executed_operations += 1
        return end

    # ------------------------------------------------------------------ #
    # Inner-loop compression (identical bodies, margin-bounded jumps)
    # ------------------------------------------------------------------ #

    def run_loop(self, steps: Sequence[LoopStep], count: int) -> None:
        """Execute ``steps`` as a loop body ``count`` times, compressing."""
        remaining = count
        previous_delta: Optional[Dict[str, int]] = None
        while remaining > 0:
            before = self._snapshot()
            for step in steps:
                self.execute(step)
            remaining -= 1
            if remaining == 0:
                return
            after = self._snapshot()
            if before.keys() != after.keys():
                previous_delta = None
                continue
            delta = {key: after[key] - before[key] for key in after}
            if delta == previous_delta:
                jump = min(self._safe_iterations(steps, delta), remaining)
                if jump > 0:
                    self._apply_jump(steps, delta, jump)
                    remaining -= jump
                    previous_delta = None
                    continue
            previous_delta = delta

    def _snapshot(self) -> Dict[str, int]:
        state = {f"f:{name}": value for name, value in self.free.items()}
        state.update({f"a:{name}": value for name, value in self.anchors.items()})
        state[_MAKESPAN] = self.makespan
        return state

    def _safe_iterations(self, steps: Sequence[LoopStep], delta: Dict[str, int]) -> int:
        """How many iterations the observed per-component delta provably holds.

        Runs the body once symbolically on (value, rate) pairs, where a
        component's rate is its observed delta.  Every ``max`` site records
        the winner; a losing operand whose rate exceeds the winner's will
        overtake it after ``margin // drift`` further iterations, bounding
        the jump.  Inconsistent end state (values or rates not matching the
        delta) means the regime is not linear yet and no jump is taken.
        """
        values: Dict[str, Tuple[int, int]] = {}
        for name, value in self.free.items():
            values[f"f:{name}"] = (value, delta[f"f:{name}"])
        for name, value in self.anchors.items():
            values[f"a:{name}"] = (value, delta[f"a:{name}"])
        values[_MAKESPAN] = (self.makespan, delta[_MAKESPAN])

        horizon: Optional[int] = None

        def resolve_max(candidates: List[Tuple[int, int]]) -> Tuple[int, int]:
            nonlocal horizon
            winner = max(candidates)  # by value, rate breaks exact ties
            winner_value, winner_rate = winner
            for value, rate in candidates:
                if rate > winner_rate:
                    site = (winner_value - value) // (rate - winner_rate)
                    horizon = site if horizon is None else min(horizon, site)
            return winner

        for step in steps:
            candidates = [values[f"f:{step.resource}"]]
            for dep in step.deps:
                dep_value = values.get(f"a:{dep}")
                if dep_value is not None:
                    candidates.append(dep_value)
            start_value, start_rate = resolve_max(candidates)
            end = (start_value + step.duration, start_rate)
            values[f"f:{step.resource}"] = end
            for name in step.sets:
                values[f"a:{name}"] = end
            values[_MAKESPAN] = resolve_max([values[_MAKESPAN], end])

        # The symbolic pass replays the next iteration; its end state must
        # land exactly one delta ahead or the regime is not yet linear.
        current = self._snapshot()
        for key, (value, rate) in values.items():
            if value != current[key] + delta[key] or rate != delta[key]:
                return 0
        if horizon is None:
            return 1 << 62
        # Margins stay non-negative through iteration offset ``horizon``, so
        # the body executes unchanged for ``horizon + 1`` more iterations.
        return horizon + 1

    def _apply_jump(self, steps: Sequence[LoopStep], delta: Dict[str, int], jump: int) -> None:
        for name in self.free:
            self.free[name] += delta[f"f:{name}"] * jump
        for name in self.anchors:
            self.anchors[name] += delta[f"a:{name}"] * jump
        self.makespan += delta[_MAKESPAN] * jump
        for step in steps:
            self.busy[step.resource] += step.duration * jump
            if step.kind:
                self.kind_cycles[step.kind] += step.duration * jump
        self.extrapolated_operations += len(steps) * jump

    # ------------------------------------------------------------------ #
    # Outer-loop compression (uniform-shift invariance)
    # ------------------------------------------------------------------ #

    def run_outer(self, body: Callable[[], None], count: int) -> None:
        """Run ``body`` (which may itself call :meth:`run_loop`) ``count`` times.

        When one body execution advances every state component by the same
        amount, max-plus shift invariance guarantees every further execution
        repeats that advance exactly, so the remaining iterations collapse
        into a single shift of the state and accumulators.
        """
        remaining = count
        while remaining > 0:
            before = self._snapshot()
            busy_before = dict(self.busy)
            kinds_before = dict(self.kind_cycles)
            ops_before = self.executed_operations + self.extrapolated_operations
            body()
            remaining -= 1
            if remaining == 0:
                return
            after = self._snapshot()
            if before.keys() != after.keys():
                continue
            shifts = {after[key] - before[key] for key in after}
            if len(shifts) != 1:
                continue
            shift = shifts.pop()
            for name in self.free:
                self.free[name] += shift * remaining
            for name in self.anchors:
                self.anchors[name] += shift * remaining
            self.makespan += shift * remaining
            for name in self.busy:
                self.busy[name] += (self.busy[name] - busy_before.get(name, 0)) * remaining
            for name in self.kind_cycles:
                self.kind_cycles[name] += (
                    self.kind_cycles[name] - kinds_before.get(name, 0)
                ) * remaining
            ops_delta = self.executed_operations + self.extrapolated_operations - ops_before
            self.extrapolated_operations += ops_delta * remaining
            return
