"""Tests for churn processes, including interval-connectivity guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import scan_interval_connectivity
from repro.harness import configs
from repro.harness.runner import ExperimentConfig
from repro.network.churn import (
    EdgeFlapper,
    MobileGeometricChurn,
    RandomRewirer,
    RotatingBackboneChurn,
    ScriptedChurn,
)
from repro.network.graph import DynamicGraph
from repro.network.topology import path_edges
from repro.sim.simulator import Simulator


class TestScriptedChurn:
    def test_replays_events_in_order(self):
        sim = Simulator()
        g = DynamicGraph(range(4), [(0, 1)])
        churn = ScriptedChurn(
            [(2.0, "add", 1, 2), (4.0, "remove", 0, 1), (5.0, "add", 0, 3)]
        )
        churn.install(sim, g)
        sim.run_until(10.0)
        assert g.has_edge(1, 2) and g.has_edge(0, 3)
        assert not g.has_edge(0, 1)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            ScriptedChurn([(1.0, "toggle", 0, 1)])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ScriptedChurn([(-1.0, "add", 0, 1)])


class TestEdgeFlapper:
    def test_edge_toggles(self, rng):
        sim = Simulator()
        g = DynamicGraph(range(3), [])
        flapper = EdgeFlapper([(0, 2)], up=2.0, down=3.0, rng=rng, horizon=40.0)
        flapper.install(sim, g)
        sim.run_until(50.0)
        hist = g.history(0, 2)
        assert len(hist) >= 4
        # Alternating add/remove.
        for (t1, a1), (t2, a2) in zip(hist, hist[1:]):
            assert a1 != a2
            assert t2 > t1

    def test_up_down_durations(self, rng):
        sim = Simulator()
        g = DynamicGraph(range(2), [])
        flapper = EdgeFlapper([(0, 1)], up=2.0, down=3.0, rng=rng, horizon=30.0)
        flapper.install(sim, g)
        sim.run_until(40.0)
        hist = g.history(0, 1)
        ups = [t2 - t1 for (t1, a1), (t2, _a2) in zip(hist, hist[1:]) if a1]
        assert all(abs(u - 2.0) < 1e-9 for u in ups)

    def test_bad_durations(self, rng):
        with pytest.raises(ValueError):
            EdgeFlapper([(0, 1)], up=0.0, down=1.0, rng=rng)


class TestRandomRewirer:
    def test_backbone_never_touched(self, rng):
        sim = Simulator()
        backbone = path_edges(8)
        g = DynamicGraph(range(8), backbone)
        rewirer = RandomRewirer(8, 3, 1.0, rng, protected=backbone, horizon=50.0)
        rewirer.install(sim, g)
        sim.run_until(60.0)
        for u, v in backbone:
            assert g.has_edge(u, v), "backbone edge was removed"
        # The graph stays connected throughout (backbone is static).
        assert scan_interval_connectivity(g, 5.0, 60.0).ok

    def test_extra_edge_count_bounded(self, rng):
        sim = Simulator()
        backbone = path_edges(6)
        g = DynamicGraph(range(6), backbone)
        RandomRewirer(6, 2, 0.5, rng, protected=backbone, horizon=20.0).install(sim, g)
        sim.run_until(25.0)
        assert g.edge_count() <= len(backbone) + 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RandomRewirer(4, 0, 1.0, rng)
        with pytest.raises(ValueError):
            RandomRewirer(4, 1, 0.0, rng)


class TestMobileGeometric:
    def test_positions_stay_in_unit_square(self, rng):
        sim = Simulator()
        pos = rng.random((10, 2))
        g = DynamicGraph(range(10), [])
        churn = MobileGeometricChurn(pos, 0.4, 0.05, 1.0, rng, horizon=30.0)
        churn.install(sim, g)
        sim.run_until(40.0)
        assert np.all(churn.pos >= -1e-9) and np.all(churn.pos <= 1 + 1e-9)

    def test_edges_match_radius_after_updates(self, rng):
        sim = Simulator()
        pos = rng.random((8, 2))
        g = DynamicGraph(range(8), [])
        churn = MobileGeometricChurn(pos, 0.5, 0.02, 2.0, rng, horizon=20.0)
        churn.install(sim, g)
        sim.run_until(20.5)
        desired = churn._desired_edges()
        assert set(g.edges()) == desired

    def test_backbone_protected(self, rng):
        sim = Simulator()
        pos = rng.random((6, 2))
        backbone = path_edges(6)
        g = DynamicGraph(range(6), backbone)
        churn = MobileGeometricChurn(
            pos, 0.2, 0.1, 1.0, rng, protected=backbone, horizon=20.0
        )
        churn.install(sim, g)
        sim.run_until(25.0)
        for u, v in backbone:
            assert g.has_edge(u, v)

    def test_bad_positions_rejected(self, rng):
        with pytest.raises(ValueError):
            MobileGeometricChurn(np.zeros((4, 3)), 0.3, 0.1, 1.0, rng)


class TestRotatingBackbone:
    def test_interval_connectivity_guarantee(self, rng):
        """No edge is permanent, yet overlap-interval connectivity holds."""
        sim = Simulator()
        g = DynamicGraph(range(8), [])
        churn = RotatingBackboneChurn(8, window=20.0, overlap=5.0, rng=rng, horizon=100.0)
        churn.install(sim, g)
        sim.run_until(110.0)
        assert scan_interval_connectivity(g, 5.0, 95.0).ok

    def test_edges_are_transient(self, rng):
        sim = Simulator()
        g = DynamicGraph(range(6), [])
        churn = RotatingBackboneChurn(6, window=10.0, overlap=3.0, rng=rng, horizon=80.0)
        churn.install(sim, g)
        sim.run_until(100.0)
        # With random paths per window, at least one edge present early
        # must eventually be removed.
        removed_any = any(
            any(not added for _t, added in g.history(u, v))
            for u in range(6)
            for v in range(u + 1, 6)
        )
        assert removed_any

    def test_overlap_validation(self, rng):
        with pytest.raises(ValueError):
            RotatingBackboneChurn(4, window=5.0, overlap=5.0, rng=rng, horizon=10.0)


def _split(history):
    """A graph history as ``(E_0, schedule)``: the adds at ``t = 0`` start
    the replayed graph, the rest is a :class:`ScriptedChurn`'s events."""
    e0 = [(u, v) for t, u, v, added in history if t == 0.0 and added]
    rest = [(t, "add" if added else "remove", u, v) for t, u, v, added in history if t > 0.0]
    return e0, rest


class TestEventLog:
    """A graph's event history is a replayable schedule."""

    def test_capture_and_replay(self, rng):
        sim = Simulator()
        g = DynamicGraph(range(6), [(0, 1)])
        ScriptedChurn([(1.0, "add", 1, 2), (2.0, "remove", 0, 1), (3.0, "add", 0, 1)]).install(sim, g)
        RandomRewirer(6, 2, 1.5, rng, protected=[(0, 1), (1, 2)], horizon=20.0).install(sim, g)
        sim.run_until(25.0)
        e0, rest = _split(g.event_history())
        sim2 = Simulator()
        g2 = DynamicGraph(range(6), e0)
        ScriptedChurn(rest).install(sim2, g2)
        sim2.run_until(25.0)
        assert g2.event_history() == g.event_history()
        assert list(g2.edges()) == list(g.edges())

    def test_csv_round_trip(self):
        """A history's schedule survives the config's JSON form (the
        serialised schedule format now that the graph holds the log)."""
        g = DynamicGraph(range(4), [(0, 1)])
        g.add_edge(0, 3, 1.5)
        g.remove_edge(3, 0, 2.0)
        e0, rest = _split(g.event_history())
        cfg = configs.build({**configs.static_path.spec, "n": 4})
        cfg.initial_edges, cfg.churn = e0, [ScriptedChurn(rest)]
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back.initial_edges == [(0, 1)]
        assert back.churn[0].events == [(1.5, "add", 0, 3), (2.0, "remove", 0, 3)]

    def test_initial_edges_extraction(self):
        g = DynamicGraph(range(3), [(1, 2)])
        g.add_edge(0, 1, 0.0)  # a t = 0 seed belongs to the replayed E_0
        g.add_edge(0, 2, 1.0)
        assert _split(g.event_history()) == ([(0, 1), (1, 2)], [(1.0, "add", 0, 2)])

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="bad op"):
            ScriptedChurn([(1.0, "flip", 0, 1)])


@settings(max_examples=20)
@given(
    n=st.integers(min_value=3, max_value=8),
    window=st.floats(min_value=8.0, max_value=25.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_rotating_backbone_interval_connected(n, window, seed):
    """For any size/window/seed, overlap-interval connectivity holds."""
    overlap = window / 4.0
    sim = Simulator()
    g = DynamicGraph(range(n), [])
    rng = np.random.default_rng(seed)
    RotatingBackboneChurn(n, window=window, overlap=overlap, rng=rng, horizon=6 * window).install(
        sim, g
    )
    sim.run_until(6 * window + 1.0)
    assert scan_interval_connectivity(g, overlap, 5 * window).ok
