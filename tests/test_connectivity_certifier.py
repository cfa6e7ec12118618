"""Tests for T-interval connectivity certification (Definition 3.1).

The satellite property: :class:`RotatingBackboneChurn` guarantees
``L``-interval connectivity for every ``L <= overlap`` by construction
(each window's spanning path is alive ``overlap`` before and after the
window), so the history of a graph it drove must pass the scan for all
such ``L`` -- and the scan must reject a schedule with a known gap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import ConnectivityGuard, scan_interval_connectivity
from repro.network.churn import RotatingBackboneChurn
from repro.network.graph import DynamicGraph
from repro.sim.simulator import Simulator


def _rotating_backbone_graph(
    n: int, window: float, overlap: float, horizon: float, seed: int
) -> DynamicGraph:
    """Run only the churn process; its graph holds the emitted schedule."""
    sim = Simulator()
    graph = DynamicGraph(range(n))
    churn = RotatingBackboneChurn(
        n, window, overlap, np.random.default_rng(seed), horizon=horizon
    )
    churn.install(sim, graph)
    sim.run_until(horizon)
    return graph


def _graph(n: int, events: list[tuple[float, int, int, bool]]) -> DynamicGraph:
    """A graph over ``range(n)`` that went through ``events`` (E_0: the adds at 0)."""
    graph = DynamicGraph(range(n), [(u, v) for t, u, v, added in events if t == 0.0])
    for t, u, v, added in events:
        if t > 0.0:
            (graph.add_edge if added else graph.remove_edge)(u, v, t)
    return graph


class TestRotatingBackboneCertifies:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        frac=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_passes_for_all_intervals_up_to_overlap(self, n, seed, frac):
        window, overlap, horizon = 20.0, 8.0, 100.0
        graph = _rotating_backbone_graph(n, window, overlap, horizon, seed)
        report = scan_interval_connectivity(graph, frac * overlap, horizon - window)
        assert report.ok, report.summary()

    def test_certifier_windows_are_actually_checked(self):
        graph = _rotating_backbone_graph(6, 20.0, 8.0, 100.0, seed=1)
        report = scan_interval_connectivity(graph, 8.0, 80.0)
        assert report.windows_checked > 10
        assert graph.edge_events > 10


class TestCertifierRejectsGaps:
    def test_known_gap_is_reported(self):
        # Path alive on [0, 10]; edge (1, 2) missing on (10, 14): every
        # window overlapping the hole fails for interval 2.
        graph = _graph(3, [(0.0, 0, 1, True), (0.0, 1, 2, True), (10.0, 1, 2, False), (14.0, 1, 2, True)])
        report = scan_interval_connectivity(graph, 2.0, 20.0)
        assert not report.ok
        v = report.violations[0]
        assert v.t1 <= 14.0 and v.t2 >= 10.0
        assert v.reachable < 3
        assert "FAIL" in report.summary()

    def test_disconnected_final_state_fails(self):
        graph = _graph(4, [(0.0, 0, 1, True), (0.0, 2, 3, True)])  # two components forever
        assert not scan_interval_connectivity(graph, 1.0, 5.0).ok

    def test_a_zero_cap_still_fails(self):
        """A scan that met a disconnected window is never ``ok``, whatever
        its ``max_violations`` cap."""
        graph = DynamicGraph(range(3), [(0, 1)])
        for cap in (0, 1, 64):
            report = scan_interval_connectivity(graph, 1.0, 5.0, max_violations=cap)
            assert not report.ok
            assert len(report.violations) == min(cap, report.windows_checked)
            assert report.truncated == (cap < report.windows_checked)
        assert "FAIL (0+ windows)" in scan_interval_connectivity(
            graph, 1.0, 5.0, max_violations=0
        ).summary()

    def test_attach_mirrors_live_graph(self):
        """The scan reads a live graph as it stands: a mutation after one
        scan shows in the next, with no replica to keep in step."""
        graph = DynamicGraph(range(3), [(0, 1)])
        graph.add_edge(1, 2, 1.0)
        first = scan_interval_connectivity(graph, 1.0, 2.5)
        assert first.violations and all(v.t1 < 1.0 for v in first.violations)  # before the add
        graph.remove_edge(1, 2, 3.0)
        later = scan_interval_connectivity(graph, 1.0, 5.0)
        assert later.violations[-1].t1 > 3.0

    def test_attach_replays_pre_attach_history(self):
        # Regression: E_0 is implicit in the graph's history (no events
        # fired for it); the scan must count it or every window looks
        # spuriously disconnected.
        graph = DynamicGraph(range(3), [(0, 1), (1, 2)])
        assert scan_interval_connectivity(graph, 1.0, 5.0).ok

    def test_window_straddling_two_gaps_is_caught(self):
        # Regression: the worst window can start at `removal - interval`,
        # between event times.  Edge (0, 2) is absent on [1, 2) and edge
        # (0, 1) is removed at 11.5, so the window [1.5, 11.5] isolates
        # node 0 -- yet no window anchored *at* an event time fails.  The
        # anchor set must therefore include event_time - interval.
        graph = _graph(3, [
            (0.0, 0, 1, True), (0.0, 0, 2, True), (0.0, 1, 2, True),
            (1.0, 0, 2, False), (2.0, 0, 2, True), (11.5, 0, 1, False), (12.5, 0, 1, True),
        ])
        report = scan_interval_connectivity(graph, 10.0, 20.0)
        assert not report.ok
        assert any(v.t1 == pytest.approx(1.5) for v in report.violations)

    def test_scan_validates_arguments(self):
        graph = DynamicGraph(range(2), [(0, 1)])
        with pytest.raises(ValueError, match="interval"):
            scan_interval_connectivity(graph, 0.0, 10.0)
        with pytest.raises(ValueError, match="t_end"):
            scan_interval_connectivity(graph, 1.0, -1.0)


class TestConnectivityGuard:
    def test_refuses_protected_edge(self):
        graph = DynamicGraph(range(3), [(0, 1), (1, 2), (0, 2)])
        guard = ConnectivityGuard(graph, protected=[(0, 1)])
        assert not guard.allows_removal(0, 1, 1.0)
        assert guard.refusals == 1

    def test_refuses_bridge_removal(self):
        graph = DynamicGraph(range(3), [(0, 1), (1, 2), (0, 2)])
        guard = ConnectivityGuard(graph)
        assert guard.allows_removal(0, 2, 1.0)  # cycle edge: fine
        graph.remove_edge(0, 2, 1.0)
        assert not guard.allows_removal(0, 1, 2.0)  # now a bridge
        assert not guard.allows_removal(1, 2, 2.0)

    def test_refuses_absent_edge(self):
        graph = DynamicGraph(range(3), [(0, 1), (1, 2)])
        guard = ConnectivityGuard(graph)
        assert not guard.allows_removal(0, 2, 1.0)

    def test_trailing_window_check(self):
        # Triangle, but (0, 2) only appeared at t=9: within the trailing
        # window [4, 10] the subgraph existing *throughout* is the path,
        # so removing (0, 1) must be refused even though the snapshot
        # stays connected via the fresh edge.
        graph = DynamicGraph(range(3), [(0, 1), (1, 2)])
        graph.add_edge(0, 2, 9.0)
        guard = ConnectivityGuard(graph, interval=6.0)
        assert not guard.allows_removal(0, 1, 10.0)
        # Without the interval requirement the same move is fine.
        lax = ConnectivityGuard(graph)
        assert lax.allows_removal(0, 1, 10.0)
