"""Simulation substrate: contended resources, operation graphs, loop compression, stats."""

from repro.sim.stats import Counters
from repro.sim.resources import Resource
from repro.sim.steady_state import LoopStep, SteadyStateEngine
from repro.sim.taskgraph import Operation, OperationGraph, ScheduleResult, schedule_graph

__all__ = [
    "Counters",
    "Resource",
    "LoopStep",
    "SteadyStateEngine",
    "Operation",
    "OperationGraph",
    "ScheduleResult",
    "schedule_graph",
]
