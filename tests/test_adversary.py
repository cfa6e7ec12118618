"""Tests for the adaptive adversary subsystem (:mod:`repro.adversary`).

Covers the steerable clock, each adversary's mechanics and legality
(drift stays in the envelope, delays stay in ``[0, T]``, topology moves
stay certifiably T-interval connected), the harness integration
(``ExperimentConfig.adversary`` + ``AdversaryRef``), effectiveness against
the matched random baseline, and exact reproducibility of adversarial runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveMaskingDelayPolicy,
    CombinedAdversary,
    DriftAdversary,
    GreedyTopologyAdversary,
    scan_interval_connectivity,
)
from repro.harness import AdversaryRef, build_experiment, configs, run_experiment
from repro.sim.clocks import SteerableClock, validate_drift_columns
from repro.sweep.engine import summarize_run


# ---------------------------------------------------------------------- #
# SteerableClock
# ---------------------------------------------------------------------- #


class TestSteerableClock:
    def test_starts_at_zero_with_initial_rate(self):
        c = SteerableClock(1.5)
        assert c.value(0.0) == 0.0
        assert c.value(2.0) == 3.0
        assert c.rate_at(1.0) == 1.5

    def test_value_is_continuous_across_rate_changes(self):
        c = SteerableClock(1.0)
        c.set_rate(2.0, 2.0)
        c.set_rate(3.0, 0.5)
        assert c.value(2.0) == pytest.approx(2.0)
        assert c.value(3.0) == pytest.approx(4.0)
        assert c.value(5.0) == pytest.approx(5.0)

    def test_time_at_inverts_value(self):
        c = SteerableClock(1.0)
        c.set_rate(1.0, 1.25)
        c.set_rate(4.0, 0.8)
        for t in (0.0, 0.5, 1.0, 2.7, 4.0, 9.3):
            assert c.time_at(c.value(t)) == pytest.approx(t)

    def test_same_time_change_replaces_tail(self):
        c = SteerableClock(1.0)
        c.set_rate(2.0, 1.5)
        c.set_rate(2.0, 0.5)
        assert c.rate_at(3.0) == 0.5
        assert c.value(4.0) == pytest.approx(2.0 + 2.0 * 0.5)

    def test_out_of_order_change_rejected(self):
        c = SteerableClock(1.0)
        c.set_rate(5.0, 1.1)
        with pytest.raises(ValueError, match="time-ordered"):
            c.set_rate(4.0, 1.0)

    def test_envelope_enforced_and_reported(self):
        c = SteerableClock(1.0, rho=0.05)
        assert c.rate_bounds() == (0.95, 1.05)
        with pytest.raises(ValueError, match="envelope"):
            c.set_rate(1.0, 1.2)
        with pytest.raises(ValueError, match="envelope"):
            SteerableClock(0.5, rho=0.05)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SteerableClock(0.0)


# ---------------------------------------------------------------------- #
# Drift adversary
# ---------------------------------------------------------------------- #


class TestDriftAdversary:
    def test_replaces_clocks_and_splits_rates(self):
        cfg = configs.adversarial_drift(8, period=5.0, horizon=40.0)
        exp = build_experiment(cfg)
        adv = exp.adversary
        assert isinstance(adv, DriftAdversary)
        for node in exp.nodes.values():
            assert isinstance(node.clock, SteerableClock)
        exp.sim.run_until(20.0)
        rates = sorted(adv.rates_now().values())
        rho = cfg.params.rho
        assert rates[0] == pytest.approx(1.0 - rho)
        assert rates[-1] == pytest.approx(1.0 + rho)
        assert sum(1 for r in rates if r < 1.0) == 4
        assert adv.rounds >= 3

    def test_all_rates_stay_in_envelope(self):
        cfg = configs.adversarial_drift(6, period=3.0, horizon=60.0)
        exp = build_experiment(cfg)
        exp.sim.run_until(60.0)
        bounds = np.array([node.clock.rate_bounds() for node in exp.nodes.values()])
        validate_drift_columns(bounds[:, 0], bounds[:, 1], cfg.params.rho)

    def test_strength_zero_is_perfect_clocks(self):
        res = run_experiment(
            configs.adversarial_drift(6, strength=0.0, horizon=40.0)
        )
        assert res.max_global_skew == pytest.approx(0.0, abs=1e-9)

    def test_widens_skew_over_unsteered_perfect_clocks(self):
        adv = run_experiment(configs.adversarial_drift(8, horizon=100.0))
        base_cfg = configs.adversarial_drift(8, horizon=100.0)
        base_cfg.adversary = None
        base = run_experiment(base_cfg)
        assert adv.max_global_skew > base.max_global_skew

    def test_strength_validated(self):
        with pytest.raises(ValueError, match="strength"):
            DriftAdversary(0.01, 5.0, strength=1.5)

    def test_adversary_horizon_respected_below_run_horizon(self):
        # Regression: with adversary horizon < first period the adversary
        # must never act, even though the run itself continues.
        cfg = configs.adversarial_drift(6, period=15.0, horizon=40.0)
        cfg.adversary = AdversaryRef(
            "adaptive_drift", {"period": 15.0, "horizon": 10.0}
        )
        exp = build_experiment(cfg)
        exp.sim.run_until(40.0)
        assert exp.adversary.rounds == 0
        assert all(r == 1.0 for r in exp.adversary.rates_now().values())


# ---------------------------------------------------------------------- #
# Delay adversary
# ---------------------------------------------------------------------- #


class _StubNode:
    def __init__(self, value: float) -> None:
        self._value = value

    def logical_clock(self, t=None) -> float:
        return self._value


class TestDelayAdversary:
    def test_policy_masks_by_clock_order(self):
        nodes = {0: _StubNode(10.0), 1: _StubNode(7.0)}
        policy = AdaptiveMaskingDelayPolicy(nodes, 1.0)
        assert policy.delay(0, 1, 0.0) == 1.0  # ahead sender: stale
        assert policy.delay(1, 0, 0.0) == 0.0  # behind sender: instant
        assert policy.max_bound() == 1.0

    def test_policy_edge_restriction_falls_back(self):
        from repro.network.channels import ConstantDelay

        nodes = {0: _StubNode(5.0), 1: _StubNode(1.0), 2: _StubNode(0.0)}
        policy = AdaptiveMaskingDelayPolicy(
            nodes, 1.0, edges=[(0, 1)], fallback=ConstantDelay(0.25)
        )
        assert policy.delay(0, 1, 0.0) == 1.0
        assert policy.delay(0, 2, 0.0) == 0.25

    def test_installs_over_transport_and_run_stays_legal(self):
        cfg = configs.adversarial_delay(8, horizon=60.0)
        exp = build_experiment(cfg)
        assert isinstance(exp.transport.delay_policy, AdaptiveMaskingDelayPolicy)
        res = exp.run()
        # Transport validates every produced delay against max_delay.
        assert res.transport_stats["delivered"] > 0

    def test_masking_raises_skew_over_uniform_delays(self):
        adv = run_experiment(configs.adversarial_delay(8, horizon=100.0))
        base = run_experiment(
            configs.static_path(8, horizon=100.0, clock_spec="split")
        )
        assert adv.max_global_skew > base.max_global_skew


# ---------------------------------------------------------------------- #
# Greedy topology adversary
# ---------------------------------------------------------------------- #


class TestGreedyTopologyAdversary:
    def test_protected_backbone_never_removed(self):
        cfg = configs.greedy_topology(10, horizon=80.0)
        res = run_experiment(cfg)
        for u, v in cfg.initial_edges:
            assert res.graph.exists_throughout(u, v, 0.0, 80.0)

    def test_moves_committed_and_schedule_certifies(self):
        cfg = configs.greedy_topology(10, horizon=80.0)
        exp = build_experiment(cfg)
        res = exp.run()
        assert exp.adversary.moves > 0
        p = cfg.params
        report = scan_interval_connectivity(
            res.graph, p.max_delay + p.discovery_bound, 80.0
        )
        assert report.ok, report.summary()

    def test_beats_random_rewirer_matched(self):
        # The headline acceptance property, on a fast configuration.
        for seed in (0, 1):
            greedy = run_experiment(
                configs.greedy_topology(12, horizon=120.0, seed=seed)
            )
            random = run_experiment(
                configs.backbone_churn(12, horizon=120.0, seed=seed)
            )
            assert greedy.max_local_skew > random.max_local_skew

    def test_hold_aligned_with_period_does_not_crash(self):
        # Regression: a retraction and a rewiring round sharing a timestamp
        # must not re-insert the just-retracted edge at the same instant
        # (the model forbids same-instant remove+add of one edge).
        res = run_experiment(
            configs.greedy_topology(10, hold=5.0, period=5.0, horizon=60.0)
        )
        assert res.max_local_skew > 0.0

    def test_hold_retracts_inserted_edges(self):
        cfg = configs.greedy_topology(8, period=5.0, hold=2.0, horizon=40.0)
        exp = build_experiment(cfg)
        exp.sim.run_until(40.0)
        adv = exp.adversary
        # Flash edges from earlier rounds are gone again.
        assert len(adv.extras()) <= 1
        assert adv.moves >= 8  # insert + retract per round

    def test_unprotected_run_stays_connected(self):
        from repro.network.graph import DynamicGraph
        from repro.sim.simulator import Simulator

        adv = GreedyTopologyAdversary(4, 1, 5.0, protected=(), horizon=20.0)
        sim = Simulator()
        graph = DynamicGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        nodes = {i: _StubNode(float(i)) for i in range(4)}
        adv.install(sim, graph, nodes)
        sim.run_until(20.0)
        assert adv.moves > 0
        # With no protected set, snapshot connectivity is still guaranteed
        # (every removal passes through the guard's connectivity check):
        # every zero-length window, up to now, is connected.
        assert scan_interval_connectivity(graph, 1e-12, 20.0).ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            GreedyTopologyAdversary(1, 1, 5.0)
        with pytest.raises(ValueError, match="k_extra"):
            GreedyTopologyAdversary(4, 0, 5.0)
        with pytest.raises(ValueError, match="hold"):
            GreedyTopologyAdversary(4, 1, 5.0, hold=0.0)


# ---------------------------------------------------------------------- #
# Harness integration
# ---------------------------------------------------------------------- #


class TestHarnessIntegration:
    def test_adversary_ref_builds_and_installs(self, params8, rng):
        ref = AdversaryRef("adaptive_drift", {"period": 5.0})
        adv = ref(params8, rng)
        assert isinstance(adv, DriftAdversary)

    def test_combined_builder_composes_parts(self, params8, rng):
        ref = AdversaryRef(
            "combined",
            {"drift": {"period": 5.0}, "delay": {}},
        )
        adv = ref(params8, rng)
        assert isinstance(adv, CombinedAdversary)
        assert len(adv.parts) == 2

    def test_unknown_adversary_name_rejected_eagerly(self):
        with pytest.raises(KeyError, match="no_such_adversary"):
            AdversaryRef("no_such_adversary", {})

    def test_combined_workload_runs_and_certifies(self):
        res = run_experiment(configs.combined_adversary(8, horizon=60.0))
        m = summarize_run(res)
        assert m["tic_ok"] is True
        assert m["tic_windows"] > 0

    def test_non_adversarial_runs_skip_certification(self):
        res = run_experiment(configs.static_path(6, horizon=30.0))
        m = summarize_run(res)
        assert m["tic_ok"] is None

    def test_adversarial_run_is_exactly_reproducible(self):
        cfg = lambda: configs.combined_adversary(8, horizon=50.0, seed=3)
        a = summarize_run(run_experiment(cfg()))
        b = summarize_run(run_experiment(cfg()))
        assert a == b

    def test_swept_horizon_and_delay_reach_the_adversary(self):
        # AdversaryRef kwargs bake horizon and the certification interval
        # T + D; every sweep point rebuilds them from its own spec.
        from repro.sweep import SweepSpec, grid

        spec = SweepSpec(
            "greedy_topology", base={"n": 8}, axes=[grid(horizon=[40.0, 80.0], max_delay=[0.5, 1.0])]
        )
        got = [(c.adversary.kwargs["horizon"], c.adversary.kwargs["interval"]) for c in spec.expand()]
        d = configs.greedy_topology(8).params.discovery_bound
        assert got == [(h, t + d) for h in (40.0, 80.0) for t in (0.5, 1.0)]

    def test_tidy_rows_surface_adversary_coordinates(self):
        from repro.sweep import SweepEngine, tidy_rows

        result = SweepEngine().run(
            [
                configs.adversarial_drift(6, strength=0.5, horizon=20.0),
                configs.static_path(6, horizon=20.0),
            ]
        )
        adv_row, plain_row = tidy_rows(result)
        assert adv_row["adversary"] == "adaptive_drift"
        assert adv_row["adv_strength"] == 0.5
        assert "adversary" not in plain_row
        # Mixed sweeps keep adversary columns even when a plain row comes
        # first: default columns are the union across rows.
        from repro.sweep import sweep_csv

        header = sweep_csv(list(reversed(result.rows))).splitlines()[0]
        assert "adv_strength" in header

    def test_adversarial_runs_reproduce_through_the_store(self, tmp_path):
        from repro.sweep import ResultStore, SweepEngine

        cfgs = [configs.greedy_topology(8, horizon=40.0, seed=7)]
        store = ResultStore(tmp_path / "store")
        first = SweepEngine(store=store).run(cfgs)
        second = SweepEngine(store=store).run(cfgs)
        assert second.rows[0].cached
        assert first.rows[0].metrics == second.rows[0].metrics
        # And a cold recompute agrees bit-for-bit with the cached metrics.
        third = SweepEngine(store=None).run(cfgs)
        assert third.rows[0].metrics == first.rows[0].metrics
