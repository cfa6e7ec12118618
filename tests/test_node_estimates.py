"""Tests for the sim driver (lazy clocks, timers) and NeighborTable."""

from __future__ import annotations

import pytest

from repro import SystemParams
from repro.core.estimates import NeighborTable
from repro.core.node import ClockSyncNode, NodeRow
from repro.core.protocol import MessageReceived, ProtocolCore, TimerFired
from repro.harness import configs
from repro.harness.runner import Experiment
from repro.sim.clocks import ConstantRateClock, PiecewiseRateClock
from repro.sim.simulator import Simulator


class ProbeCore(ProtocolCore):
    """A do-nothing core; the driver mechanics are what these tests probe."""

    def _handle_start(self):
        pass

    def _handle_message(self, sender, payload):
        pass

    def _handle_discover_add(self, other):
        pass

    def _handle_discover_remove(self, other):
        pass

    def _on_timer(self, key):
        pass


class ProbeNode(ClockSyncNode):
    """Driver shell recording every dispatched event with its real time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.timer_fires = []
        self.msgs = []

    def _dispatch(self, event):
        super()._dispatch(event)
        if isinstance(event, TimerFired):
            self.timer_fires.append((self.sim.now, event.key))
        elif isinstance(event, MessageReceived):
            self.msgs.append((self.sim.now, event.sender, event.payload))


class FakeTransport:
    def __init__(self):
        self.sent = []

    def send(self, u, v, payload):
        self.sent.append((u, v, payload))


def make_node(rate=1.0, params=None):
    sim = Simulator()
    params = params or SystemParams.for_network(4)
    node = ProbeNode(0, sim, ConstantRateClock(rate), FakeTransport(), params, ProbeCore(0, params))
    return sim, node


class TestLazyClocks:
    def test_logical_clock_tracks_hardware(self):
        sim, node = make_node(rate=1.05)
        sim.run_until(10.0)
        assert node.logical_clock() == pytest.approx(10.5)
        assert node.max_estimate() == pytest.approx(10.5)

    def test_jump_then_drift(self):
        sim, node = make_node(rate=1.0)
        sim.schedule_at(5.0, lambda: (node._sync(), node._raise_max(100.0),
                                      node._jump_logical(20.0)))
        sim.run_until(8.0)
        assert node.logical_clock() == pytest.approx(23.0)

    def test_jump_never_lowers(self):
        sim, node = make_node()
        sim.schedule_at(5.0, lambda: (node._sync(), node._jump_logical(1.0)))
        sim.run_until(6.0)
        assert node.logical_clock() == pytest.approx(6.0)
        assert node.jumps == 0

    def test_read_in_past_rejected(self):
        sim, node = make_node()
        sim.schedule_at(5.0, lambda: node._sync())
        sim.run_until(6.0)
        with pytest.raises(ValueError):
            node.logical_clock(4.0)

    def test_jump_stats(self):
        sim, node = make_node()
        def act():
            node._sync()
            node._raise_max(50.0)
            node._jump_logical(10.0)
        sim.schedule_at(2.0, act)
        sim.run_until(3.0)
        assert node.jumps == 1
        assert node.total_jump == pytest.approx(8.0)


@pytest.fixture(scope="module")
def ring_run():
    exp = Experiment(configs.huge_sync_ring(16, horizon=10.0))
    exp.run()
    return exp


@pytest.mark.parametrize("method, quantity", [
    ("logical_clock", "logical clock"), ("max_estimate", "Lmax"),
])
@pytest.mark.parametrize("form", ["driver", "row"])
def test_reads_refuse_before_the_last_event(ring_run, form, method, quantity):
    """A driver and a :class:`NodeRow` share one read contract: a time
    before the node's last event raises, naming the quantity; from the
    last event on the two forms read the same value."""
    row = NodeRow(ring_run.nodes, 3)
    driver = ring_run.nodes[3]
    node = driver if form == "driver" else row
    with pytest.raises(ValueError, match=f"cannot read {quantity} at t=1.0"):
        getattr(node, method)(1.0)
    t_last = driver.clock.time_at(driver.core.h_last)
    for t in (t_last, ring_run.cfg.horizon):
        assert getattr(driver, method)(t) == getattr(row, method)(t)


class TestSubjectiveTimers:
    def test_timer_converts_subjective_to_real(self):
        # A clock at rate 2 reaches +4 subjective units after 2 real units.
        sim, node = make_node(rate=2.0)
        node.set_subjective_timer("t", 4.0)
        sim.run_until(10.0)
        assert node.timer_fires == [(2.0, "t")]

    def test_timer_with_slow_clock(self):
        sim, node = make_node(rate=0.5)
        node.set_subjective_timer("t", 1.0)
        sim.run_until(10.0)
        assert node.timer_fires == [(2.0, "t")]

    def test_rearm_cancels_previous(self):
        sim, node = make_node()
        node.set_subjective_timer("t", 5.0)
        node.set_subjective_timer("t", 1.0)
        sim.run_until(10.0)
        assert node.timer_fires == [(1.0, "t")]

    def test_cancel(self):
        sim, node = make_node()
        node.set_subjective_timer("t", 1.0)
        assert node.cancel_timer("t") is True
        assert node.cancel_timer("t") is False
        sim.run_until(2.0)
        assert node.timer_fires == []

    def test_negative_delay_rejected(self):
        _sim, node = make_node()
        with pytest.raises(ValueError):
            node.set_subjective_timer("t", -0.5)

    def test_timer_across_rate_change(self):
        # Rate 1 for 10 units, then rate 0.5: a +12 subjective timer armed
        # at t=0 fires at real time 10 + 2/0.5 = 14.
        sim = Simulator()
        params = SystemParams.for_network(4)
        clock = PiecewiseRateClock([0.0, 10.0], [1.0, 0.5])
        node = ProbeNode(0, sim, clock, FakeTransport(), params, ProbeCore(0, params))
        node.set_subjective_timer("t", 12.0)
        sim.run_until(20.0)
        assert node.timer_fires == [(14.0, "t")]


class TestNeighborTable:
    def test_add_and_get(self):
        t = NeighborTable()
        t.add(3, added_h=1.0, l_est=5.0)
        assert 3 in t and len(t) == 1
        row = t.get(3)
        assert row.added_h == 1.0 and row.l_est == 5.0

    def test_double_add_rejected(self):
        t = NeighborTable()
        t.add(3, 1.0, 5.0)
        with pytest.raises(ValueError):
            t.add(3, 2.0, 6.0)

    def test_refresh_is_monotone(self):
        t = NeighborTable()
        t.add(3, 1.0, 5.0)
        t.refresh(3, 7.0)
        assert t.get(3).l_est == 7.0
        t.refresh(3, 6.0)  # stale/lower report does not lower the estimate
        assert t.get(3).l_est == 7.0

    def test_refresh_unknown_rejected(self):
        with pytest.raises(KeyError):
            NeighborTable().refresh(1, 1.0)

    def test_remove(self):
        t = NeighborTable()
        t.add(3, 1.0, 5.0)
        assert t.remove(3) is True
        assert t.remove(3) is False
        assert 3 not in t

    def test_advance(self):
        t = NeighborTable()
        t.add(1, 0.0, 5.0)
        t.add(2, 0.0, 8.0)
        t.advance(1.5)
        assert t.get(1).l_est == 6.5
        assert t.get(2).l_est == 9.5

    def test_items_and_clear(self):
        t = NeighborTable()
        t.add(1, 0.0, 5.0)
        assert [v for v, _ in t.items()] == [1]
        t.clear()
        assert len(t) == 0
