"""Tests for the simulation substrate: counters, resources, task graphs."""

import pytest

from repro.sim.resources import Resource, ResourcePool
from repro.sim.stats import Counters
from repro.sim.taskgraph import Operation, OperationGraph


class TestCounters:
    def test_add_and_get(self):
        counters = Counters()
        counters.add("a.b", 3)
        counters.add("a.b", 2)
        assert counters["a.b"] == 5

    def test_missing_key_is_zero(self):
        assert Counters()["nope"] == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counters().add("x", -1)

    def test_merge(self):
        a = Counters({"x": 1})
        b = Counters({"x": 2, "y": 3})
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 3

    def test_scaled(self):
        counters = Counters({"x": 2})
        scaled = counters.scaled(10)
        assert scaled["x"] == 20
        assert counters["x"] == 2  # original untouched

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            Counters().scaled(-1)

    def test_total_with_prefix(self):
        counters = Counters({"core.issue": 5, "core.alu": 3, "smem.read": 2})
        assert counters.total("core.") == 8
        assert counters.total() == 10

    def test_add_operator(self):
        total = Counters({"x": 1}) + Counters({"x": 2})
        assert total["x"] == 3

    def test_iteration_and_len(self):
        counters = Counters({"a": 1, "b": 2})
        assert set(counters) == {"a", "b"}
        assert len(counters) == 2

    def test_setitem_overwrites_and_contains(self):
        counters = Counters({"a": 1})
        counters["a"] = 7
        counters["b"] = 2
        assert counters["a"] == 7.0 and "b" in counters
        assert "c" not in counters

    def test_repr_previews_largest_counts(self):
        counters = Counters({"small": 1, "large": 9})
        assert repr(counters) == "Counters(2 keys: large=9, small=1)"


class TestResource:
    def test_back_to_back_reservations(self):
        resource = Resource("unit")
        assert resource.reserve(0, 10) == (0, 10)
        assert resource.reserve(0, 5) == (10, 15)
        assert resource.busy_cycles == 15

    def test_respects_ready_time(self):
        resource = Resource("unit")
        assert resource.reserve(20, 5) == (20, 25)

    def test_an_idle_gap_is_not_backfilled(self):
        """Grants are in request order: a later request never starts in an earlier gap."""
        resource = Resource("unit")
        assert resource.reserve(0, 10) == (0, 10)
        assert resource.reserve(30, 5) == (30, 35)
        assert resource.reserve(0, 5) == (35, 40)

    def test_busy_cycles_leave_out_idle_gaps(self):
        resource = Resource("unit")
        resource.reserve(0, 10)
        resource.reserve(30, 5)
        assert resource.busy_cycles == 15

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Resource("unit").reserve(0, -1)

    def test_repr_names_resource(self):
        resource = Resource("dma")
        resource.reserve(0, 3)
        assert repr(resource) == "Resource('dma', busy=3)"


class TestResourcePool:
    def test_duplicate_rejected(self):
        pool = ResourcePool()
        pool.add(Resource("a"))
        with pytest.raises(ValueError):
            pool.add(Resource("a"))

    def test_contains_and_getitem(self):
        pool = ResourcePool()
        resource = pool.add(Resource("a"))
        assert "a" in pool
        assert pool["a"] is resource


class TestOperationGraph:
    def _graph(self):
        graph = OperationGraph()
        graph.add_resource(Resource("dma"))
        graph.add_resource(Resource("matrix"))
        return graph

    def test_simple_chain(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 100)
        graph.add_operation("compute", "matrix", 200, deps=["load"])
        result = graph.schedule()
        assert result.total_cycles == 300
        assert result.finish_time("load") == 100

    def test_pipelined_double_buffering(self):
        """Loads overlap with the previous compute, so total < sum of all ops."""
        graph = self._graph()
        graph.add_operation("load0", "dma", 100)
        graph.add_operation("compute0", "matrix", 200, deps=["load0"])
        graph.add_operation("load1", "dma", 100)
        graph.add_operation("compute1", "matrix", 200, deps=["load1", "compute0"])
        result = graph.schedule()
        assert result.total_cycles == 500  # load1 hidden under compute0

    def test_resource_serialization(self):
        graph = self._graph()
        graph.add_operation("a", "matrix", 100)
        graph.add_operation("b", "matrix", 100)
        result = graph.schedule()
        assert result.total_cycles == 200

    def test_unknown_resource_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError):
            graph.add_operation("x", "nope", 10)

    def test_unknown_dependency_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError):
            graph.add_operation("x", "dma", 10, deps=["missing"])

    def test_duplicate_operation_rejected(self):
        graph = self._graph()
        graph.add_operation("x", "dma", 10)
        with pytest.raises(ValueError):
            graph.add_operation("x", "dma", 10)

    def test_scheduled_entries_name_their_operation(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 10)
        graph.add_operation("compute", "matrix", 20, deps=["load"])
        assert "load" in graph and "store" not in graph
        scheduled = graph.schedule().scheduled
        assert [entry.name for entry in scheduled.values()] == ["load", "compute"]
        assert (scheduled["compute"].start, scheduled["compute"].end) == (10, 30)

    def test_ready_after(self):
        graph = self._graph()
        graph.add_operation("x", "dma", 10, ready_after=50)
        assert graph.schedule().total_cycles == 60

    def test_start_is_the_later_of_ready_after_and_dependencies(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 100)
        graph.add_operation("early", "matrix", 10, deps=["load"], ready_after=40)
        graph.add_operation("late", "dma", 10, deps=["load"], ready_after=250)
        scheduled = graph.schedule().scheduled
        assert (scheduled["early"].start, scheduled["early"].end) == (100, 110)
        assert (scheduled["late"].start, scheduled["late"].end) == (250, 260)

    def test_operation_waits_for_its_latest_dependency(self):
        graph = self._graph()
        graph.add_resource(Resource("simt"))
        graph.add_operation("a", "dma", 10)
        graph.add_operation("b", "matrix", 30)
        graph.add_operation("c", "simt", 5, deps=["a", "b"])
        graph.add_operation("d", "dma", 10, deps=["b", "a"])
        scheduled = graph.schedule().scheduled
        assert (scheduled["c"].start, scheduled["c"].end) == (30, 35)
        assert (scheduled["d"].start, scheduled["d"].end) == (30, 40)

    def test_resource_busy_reports_idle_resources(self):
        graph = self._graph()
        graph.add_operation("load", "dma", 10)
        graph.add_operation("later", "dma", 5, ready_after=40)
        assert graph.schedule().resource_busy == {"dma": 15, "matrix": 0}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Operation(name="x", resource="dma", duration=-5)

    def test_kind_cycles(self):
        graph = self._graph()
        graph.add_operation("a", "dma", 10, kind="dma")
        graph.add_operation("b", "matrix", 20, kind="compute")
        result = graph.schedule()
        assert result.critical_kind_cycles() == {"dma": 10, "compute": 20}
