"""Edge-case coverage for the taskgraph scheduler.

Complements ``tests/test_sim.py`` with the corners the kernel models lean on:
diamond-shaped dependency patterns in the operation-graph scheduler, and
deterministic placement of zero-duration and wide fan-out operations.
"""

from repro.sim.resources import Resource
from repro.sim.taskgraph import OperationGraph


class TestDiamondDependencies:
    def _graph(self):
        graph = OperationGraph()
        graph.add_resource(Resource("dma"))
        graph.add_resource(Resource("matrix"))
        graph.add_resource(Resource("simt"))
        return graph

    def test_diamond_join_waits_for_slowest_branch(self):
        """   load
             /    \\
        compute   post     (different resources, run concurrently)
             \\    /
              store                                              """
        graph = self._graph()
        graph.add_operation("load", "dma", 100)
        graph.add_operation("compute", "matrix", 300, deps=["load"])
        graph.add_operation("post", "simt", 50, deps=["load"])
        graph.add_operation("store", "dma", 10, deps=["compute", "post"])
        result = graph.schedule()
        # Branches overlap: post finishes at 150, compute at 400.
        assert result.finish_time("post") == 150
        assert result.finish_time("compute") == 400
        assert result.scheduled["store"].start == 400
        assert result.total_cycles == 410

    def test_diamond_on_shared_resource_serializes_branches(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 100)
        graph.add_operation("branch_a", "matrix", 200, deps=["load"])
        graph.add_operation("branch_b", "matrix", 200, deps=["load"])
        graph.add_operation("join", "dma", 10, deps=["branch_a", "branch_b"])
        result = graph.schedule()
        # Same resource: the second branch queues behind the first.
        assert result.total_cycles == 100 + 200 + 200 + 10

    def test_nested_diamonds(self):
        """Two diamonds chained back to back keep the dependency frontier right."""
        graph = self._graph()
        graph.add_operation("src", "dma", 10)
        graph.add_operation("a1", "matrix", 100, deps=["src"])
        graph.add_operation("b1", "simt", 150, deps=["src"])
        graph.add_operation("mid", "dma", 10, deps=["a1", "b1"])
        graph.add_operation("a2", "matrix", 120, deps=["mid"])
        graph.add_operation("b2", "simt", 80, deps=["mid"])
        graph.add_operation("sink", "dma", 10, deps=["a2", "b2"])
        result = graph.schedule()
        assert result.scheduled["mid"].start == 160  # max(110, 160)
        assert result.scheduled["sink"].start == 170 + 120
        assert result.total_cycles == 300

    def test_diamond_busy_accounting(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 40)
        graph.add_operation("left", "matrix", 60, deps=["load"])
        graph.add_operation("right", "simt", 90, deps=["load"])
        graph.add_operation("join", "dma", 5, deps=["left", "right"])
        result = graph.schedule()
        assert result.resource_busy == {"dma": 45, "matrix": 60, "simt": 90}
        kinds = result.critical_kind_cycles()
        assert sum(kinds.values()) == 45 + 60 + 90


class TestSchedulerRobustness:
    def test_dependency_on_cancelled_style_zero_duration_ops(self):
        """Zero-duration operations are legal joins (used by lowering stubs)."""
        graph = OperationGraph()
        graph.add_resource(Resource("simt"))
        graph.add_operation("a", "simt", 0)
        graph.add_operation("b", "simt", 25, deps=["a"])
        result = graph.schedule()
        assert result.finish_time("a") == 0
        assert result.total_cycles == 25

    def test_wide_fanout_single_resource_is_deterministic(self):
        graph = OperationGraph()
        graph.add_resource(Resource("matrix"))
        graph.add_operation("root", "matrix", 10)
        for index in range(8):
            graph.add_operation(f"leaf{index}", "matrix", 5, deps=["root"])
        result = graph.schedule()
        starts = sorted(result.scheduled[f"leaf{index}"].start for index in range(8))
        assert starts == [10 + 5 * index for index in range(8)]
