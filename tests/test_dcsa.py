"""Unit tests for the DCSA node: Algorithm 2's handlers and clock rule."""

from __future__ import annotations

import pytest

from repro import SystemParams
from repro.core import ClockSyncNode, DCSACore
from repro.sim.clocks import ConstantRateClock
from repro.sim.simulator import Simulator


class FakeTransport:
    def __init__(self):
        self.sent = []

    def send(self, u, v, payload):
        self.sent.append((u, v, payload))


def make_dcsa(params=None, rate=1.0):
    sim = Simulator()
    params = params or SystemParams.for_network(4)
    tr = FakeTransport()
    node = ClockSyncNode(0, sim, ConstantRateClock(rate), tr, params, core=DCSACore(0, params))
    return sim, node, tr


class TestDiscoveryHandlers:
    def test_discover_add_greets_and_believes(self):
        sim, node, tr = make_dcsa()
        node.on_discover_add(3)
        assert 3 in node.core.upsilon
        assert tr.sent == [(0, 3, (0.0, 0.0))]
        assert 3 not in node.core.gamma  # tracking starts only on receipt

    def test_discover_add_idempotent(self):
        sim, node, tr = make_dcsa()
        node.on_discover_add(3)
        node.on_discover_add(3)
        assert node.core.upsilon == {3}
        assert len(tr.sent) == 2  # re-greeting is harmless

    def test_discover_remove_forgets(self):
        sim, node, tr = make_dcsa()
        node.on_discover_add(3)
        node.on_message(3, (0.0, 0.0))
        assert 3 in node.core.gamma
        node.on_discover_remove(3)
        assert 3 not in node.core.gamma and 3 not in node.core.upsilon

    def test_discover_remove_unknown_is_noop(self):
        sim, node, tr = make_dcsa()
        node.on_discover_remove(9)  # must not raise
        assert 9 not in node.core.upsilon


class TestMessageHandling:
    def test_receive_tracks_and_adopts_max(self):
        sim, node, tr = make_dcsa()
        node.on_message(2, (5.0, 8.0))
        assert 2 in node.core.gamma
        row = node.core.gamma.get(2)
        assert row.l_est == 5.0
        # Lmax adopted; node jumps toward it (new edge: B is huge).
        assert node.max_estimate() == pytest.approx(8.0)
        assert node.logical_clock() == pytest.approx(8.0)

    def test_c_value_set_only_on_gamma_entry(self):
        """C^v_u persists across refreshes (Lemma 6.10's bookkeeping)."""
        sim, node, tr = make_dcsa()
        sim.run_until(1.0)
        node.on_message(2, (1.0, 1.0))
        c_first = node.core.gamma.get(2).added_h
        sim.run_until(2.0)
        node.on_message(2, (2.0, 2.0))
        assert node.core.gamma.get(2).added_h == c_first

    def test_c_value_reset_after_reentry(self):
        sim, node, tr = make_dcsa()
        node.on_message(2, (0.0, 0.0))
        sim.run_until(3.0)
        node.on_discover_remove(2)  # evict
        node.on_discover_add(2)
        node.on_message(2, (3.0, 3.0))
        assert node.core.gamma.get(2).added_h == pytest.approx(3.0)

    def test_estimate_refreshed_every_receipt(self):
        """L^v_u refreshes on every message (Lemma 6.5's contract)."""
        sim, node, tr = make_dcsa()
        node.on_message(2, (1.0, 1.0))
        sim.run_until(1.0)
        node.on_message(2, (9.0, 9.0))
        assert node.core.gamma.get(2).l_est == pytest.approx(9.0)

    def test_lost_timer_evicts_from_gamma_only(self):
        sim, node, tr = make_dcsa()
        node.on_discover_add(2)
        node.on_message(2, (0.0, 0.0))
        sim.run_until(node.params.delta_t_prime + 0.1)
        assert 2 not in node.core.gamma  # lost: silent too long
        assert 2 in node.core.upsilon    # still believed (still greeted on ticks)

    def test_message_rearms_lost_timer(self):
        sim, node, tr = make_dcsa()
        node.on_message(2, (0.0, 0.0))
        dt = node.params.delta_t_prime
        t_half = 0.6 * dt
        sim.schedule_at(t_half, lambda: node.on_message(2, (t_half, t_half)))
        sim.run_until(1.4 * dt)
        assert 2 in node.core.gamma  # timer restarted at 0.6 dt
        sim.run_until(1.7 * dt + 0.1)
        assert 2 not in node.core.gamma


class TestTick:
    def test_tick_sends_to_all_believed(self):
        sim, node, tr = make_dcsa()
        node.on_discover_add(1)
        node.on_discover_add(2)
        tr.sent.clear()
        node.start()
        sim.run_until(0.0)
        dests = sorted(v for _u, v, _p in tr.sent)
        assert dests == [1, 2]

    def test_tick_period_subjective(self):
        params = SystemParams.for_network(4)
        sim, node, tr = make_dcsa(params=params, rate=1.0 - params.rho)
        node.on_discover_add(1)
        tr.sent.clear()
        node.start()
        sim.run_until(3.0 * params.tick_interval / (1.0 - params.rho) + 1e-6)
        # Ticks at subjective 0, dH, 2dH, 3dH -> 4 sends at slow rate.
        assert len(tr.sent) == 4


class TestAdjustClock:
    def test_fresh_edge_allows_jump_within_b0_intercept(self):
        """A brand-new edge tolerates any skew up to B(0) > G(n): Lmax
        values within the global-skew envelope are adopted immediately."""
        sim, node, tr = make_dcsa()
        target = 0.9 * node.params.b_intercept
        node.on_message(2, (0.0, target))
        assert node.logical_clock() == pytest.approx(target)

    def test_fresh_edge_still_caps_extreme_jumps(self):
        """Even a fresh edge caps the jump at estimate + B(0) -- values far
        beyond the global-skew envelope are not adopted at once."""
        sim, node, tr = make_dcsa()
        node.on_message(2, (0.0, 10.0 * node.params.b_intercept))
        assert node.logical_clock() == pytest.approx(node.params.b_intercept)

    def test_old_neighbor_constrains(self):
        """Once B has settled, the node cannot exceed estimate + B0."""
        params = SystemParams.for_network(4)
        sim, node, tr = make_dcsa(params=params)
        node.on_message(2, (0.0, 0.0))
        # Age the edge past the B settle time, feeding messages frequently
        # enough that the lost timer never evicts 2 from Gamma (so C^v_u is
        # preserved and B decays all the way to B0).
        settle = params.b_settle_subjective
        t, step = 0.0, 0.5 * params.delta_t_prime
        while t < settle + 1.0:
            t += step
            sim.schedule_at(t, lambda t=t: node.on_message(2, (t, t)))
        sim.run_until(t)
        assert 2 in node.core.gamma
        assert node.core.tolerance(2) == pytest.approx(params.b0)
        node.on_message(2, (t - 5.0, t + 500.0))  # v reports low; huge Lmax
        # The low report cannot lower the monotone estimate (~t), so the
        # ceiling is the current estimate + B0.
        expected_ceiling = node.core.gamma.get(2).l_est + params.b0
        assert node.logical_clock() == pytest.approx(expected_ceiling)

    def test_never_exceeds_lmax(self):
        sim, node, tr = make_dcsa()
        node.on_message(2, (100.0, 10.0))  # estimate high but Lmax low
        assert node.logical_clock() <= node.max_estimate() + 1e-9

    def test_empty_gamma_jumps_to_lmax(self):
        sim, node, tr = make_dcsa()
        node._sync()
        node._raise_max(7.0)
        node.run_core_action(node.core._adjust_clock)
        assert node.logical_clock() == pytest.approx(7.0)

    def test_perceived_skew_and_tolerance(self):
        sim, node, tr = make_dcsa()
        node.on_message(2, (3.0, 3.0))
        assert node.core.perceived_skew(2) == pytest.approx(node.logical_clock() - 3.0)
        assert node.core.tolerance(2) == pytest.approx(node.params.b_function(0.0))
        assert node.core.perceived_skew(9) is None
        assert node.core.tolerance(9) is None
