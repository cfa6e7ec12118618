"""Tests for the simulation kernel: scheduling, execution, periodic hooks."""

from __future__ import annotations

import pytest

from repro.sim.events import PRIORITY_SAMPLE, PRIORITY_TOPOLOGY
from repro.sim.simulator import SimulationError, Simulator


class TestScheduling:
    def test_schedule_at_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]
        assert sim.now == 10.0

    def test_schedule_in(self):
        sim = Simulator()
        fired = []
        sim.schedule_in(2.5, lambda: fired.append(sim.now))
        sim.run_until(3.0)
        assert fired == [2.5]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_same_time_scheduling_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: sim.schedule_at(1.0, lambda: fired.append("x")))
        sim.run_until(2.0)
        assert fired == ["x"]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        h = sim.schedule_at(1.0, lambda: fired.append("x"))
        assert sim.cancel(h) is True
        sim.run_until(2.0)
        assert fired == []


class TestExecution:
    def test_events_cascade(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule_in(1.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule_at(1.0, first)
        sim.run_until(10.0)
        assert log == [("first", 1.0), ("second", 2.0)]

    def test_run_until_does_not_execute_beyond_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("in"))
        sim.schedule_at(15.0, lambda: fired.append("out"))
        sim.run_until(10.0)
        assert fired == ["in"]
        sim.run_until(20.0)
        assert fired == ["in", "out"]

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_until_idle(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until_idle()
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def storm():
            sim.schedule_in(0.001, storm)

        sim.schedule_at(0.0, storm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(1.0)

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run_until(10.0)
        assert sim.events_dispatched == 5

    def test_priority_ordering_within_timestamp(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append("timer"))
        sim.schedule_at(1.0, lambda: log.append("sample"), priority=PRIORITY_SAMPLE)
        sim.schedule_at(1.0, lambda: log.append("topo"), priority=PRIORITY_TOPOLOGY)
        sim.run_until(2.0)
        assert log == ["topo", "timer", "sample"]


class TestPeriodic:
    def test_every_fires_on_schedule(self):
        sim = Simulator()
        ts = []
        sim.every(2.0, ts.append, end=9.0)
        sim.run_until(10.0)
        assert ts == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_every_with_start(self):
        sim = Simulator()
        ts = []
        sim.every(1.0, ts.append, start=3.0, end=5.0)
        sim.run_until(6.0)
        assert ts == [3.0, 4.0, 5.0]

    def test_every_bad_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda t: None)

    def test_every_observes_after_model_activity(self):
        """PRIORITY_SAMPLE fires after same-timestamp model events."""
        sim = Simulator()
        state = {"x": 0}
        observed = []
        sim.schedule_at(2.0, lambda: state.__setitem__("x", 42))
        sim.every(2.0, lambda t: observed.append((t, state["x"])), end=2.0)
        sim.run_until(3.0)
        assert observed == [(0.0, 0), (2.0, 42)]


class TestPeriodicValidation:
    def test_every_rejects_end_before_start(self):
        """An empty sampling window is a bug at the call site, not a
        sampler that silently fires once and never re-arms."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="empty"):
            sim.every(1.0, lambda t: None, start=5.0, end=3.0)

    def test_every_rejects_end_before_now(self):
        sim = Simulator()
        sim.run_until(4.0)
        with pytest.raises(SimulationError, match="empty"):
            sim.every(1.0, lambda t: None, end=2.0)

    def test_every_end_equal_to_start_fires_once(self):
        sim = Simulator()
        ts = []
        sim.every(1.0, ts.append, start=2.0, end=2.0)
        sim.run_until(5.0)
        assert ts == [2.0]


class TestTypedDispatch:
    def test_typed_event_routes_through_handler(self):
        from repro.sim.events import KIND_DELIVER

        sim = Simulator()
        seen = []
        sim.set_handler(KIND_DELIVER, lambda ev: seen.append((sim.now, ev.a, ev.b)))
        sim.schedule_typed(2.0, 1, KIND_DELIVER, 7, 8)
        sim.run_until(3.0)
        assert seen == [(2.0, 7, 8)]

    def test_conflicting_handler_registration_raises(self):
        from repro.sim.events import KIND_DELIVER

        sim = Simulator()
        sim.set_handler(KIND_DELIVER, lambda ev: None)
        with pytest.raises(SimulationError, match="already has a handler"):
            sim.set_handler(KIND_DELIVER, lambda ev: None)

    def test_same_handler_registration_is_idempotent(self):
        from repro.sim.events import KIND_TIMER

        def handler(ev):
            pass

        sim = Simulator()
        sim.set_handler(KIND_TIMER, handler)
        sim.set_handler(KIND_TIMER, handler)  # no-op, no raise

    def test_callback_kind_cannot_be_overridden(self):
        from repro.sim.events import KIND_CALLBACK

        sim = Simulator()
        with pytest.raises(SimulationError, match="invalid handler kind"):
            sim.set_handler(KIND_CALLBACK, lambda ev: None)

    def test_unhandled_typed_kind_raises_at_dispatch(self):
        from repro.sim.events import KIND_DELIVER

        sim = Simulator()
        sim.schedule_typed(1.0, 1, KIND_DELIVER, 0, 1, label="orphan")
        with pytest.raises(SimulationError, match="no handler"):
            sim.run_until(2.0)

    def test_dispatched_typed_records_are_recycled(self):
        """The steady state allocates nothing: one record serves the run."""
        from repro.sim.events import KIND_DELIVER

        sim = Simulator()
        sim.set_handler(KIND_DELIVER, lambda ev: None)
        for t in range(1, 6):
            sim.schedule_typed(float(t), 1, KIND_DELIVER, t, t)
        sim.run_until(10.0)
        assert sim.queue.pool_size == 5
        assert sim.queue.raw_size == 0

    def test_periodic_sampler_reuses_one_record(self):
        """sim.every() re-arms its own KIND_SAMPLE record in place."""
        sim = Simulator()
        ts = []
        sim.every(1.0, ts.append, end=50.0)
        sim.run_until(50.0)
        assert len(ts) == 51
        # 51 firings never grew the heap beyond the single live record and
        # never allocated more than that one reusable record.
        assert sim.queue.raw_size == 0
        assert sim.queue.pool_size <= 1

    def test_topology_kind_applies_graph_mutation(self):
        from repro.network.graph import DynamicGraph
        from repro.sim.events import KIND_TOPOLOGY, PRIORITY_TOPOLOGY

        sim = Simulator()
        graph = DynamicGraph(range(3))
        sim.schedule_typed(1.0, PRIORITY_TOPOLOGY, KIND_TOPOLOGY, graph, True, 0, 1)
        sim.schedule_typed(2.0, PRIORITY_TOPOLOGY, KIND_TOPOLOGY, graph, False, 0, 1)
        sim.run_until(1.5)
        assert graph.has_edge(0, 1)
        sim.run_until(3.0)
        assert not graph.has_edge(0, 1)
