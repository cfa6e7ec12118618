"""The paper's theorems as executable invariants.

Every test here runs full executions (static or dynamic, randomized or
adversarial) and asserts the guarantees of Sections 3 and 6:

* logical clocks are strictly increasing with rate >= 1/2 (Section 3.3);
* ``Lmax_u >= L_u`` (Property 6.3);
* global skew <= G(n) (Theorem 6.9) under (T+D)-interval connectivity;
* max-estimate lag <= Lemma 6.8's bound;
* every edge sample respects the dynamic local skew envelope of
  Corollary 6.13 -- including brand-new edges;
* established edges respect the stable bound (Theorem 6.12 limit).

The hypothesis test at the bottom samples random workloads (topology,
churn, clocks, seeds) and checks the whole bundle on each.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import SystemParams
from repro.analysis import envelope_violations, max_estimate_lag, max_global_skew
from repro.core import skew_bounds as sb
from repro.harness import OracleRef, configs, run_experiment
from repro.network.topology import path_edges
from repro.testing.strategies import experiment_configs


def check_rate_floor(record, *, floor=0.5, tol=1e-9):
    """Every logical clock advances at >= `floor` per unit real time."""
    dt = np.diff(record.times)
    dl = np.diff(record.clocks, axis=0)
    assert np.all(dl >= floor * dt[:, None] - tol), "rate floor violated"


def check_monotone(record, tol=1e-9):
    assert np.all(np.diff(record.clocks, axis=0) >= -tol), "clock decreased"


class TestSection3Requirements:
    @pytest.mark.parametrize("algo", ["dcsa", "max", "static", "free"])
    def test_rate_floor_and_monotonicity(self, algo):
        cfg = configs.static_path(8, horizon=80.0, algorithm=algo,
                                  clock_spec="split", seed=5)
        res = run_experiment(cfg)
        check_monotone(res.record)
        check_rate_floor(res.record)

    def test_lmax_dominates_logical(self):
        """Property 6.3 on a churned run, sampled densely."""
        cfg = configs.backbone_churn(10, horizon=80.0, seed=7)
        cfg.track_max_estimates = True
        res = run_experiment(cfg)
        assert np.all(res.record.max_estimates >= res.record.clocks - 1e-9)


class TestTheorem69GlobalSkew:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_static_path_worst_clocks(self, n):
        cfg = configs.static_path(n, horizon=150.0, clock_spec="split",
                                  seed=n)
        cfg.delay_spec = "max"
        res = run_experiment(cfg)
        assert res.max_global_skew <= sb.global_skew_bound(res.params) + 1e-9

    def test_rotating_backbone_no_stable_edge(self):
        """The theorem's own regime: interval-connected, nothing stable."""
        cfg = configs.rotating_backbone(10, horizon=200.0, window=25.0, seed=3)
        res = run_experiment(cfg)
        interval = res.params.max_delay + res.params.discovery_bound
        assert res.graph.check_interval_connectivity(interval, t_end=180.0)
        assert res.max_global_skew <= sb.global_skew_bound(res.params) + 1e-9

    def test_heavy_churn(self):
        cfg = configs.backbone_churn(12, k_extra=6, rewire_interval=2.0,
                                     horizon=150.0, seed=9)
        res = run_experiment(cfg)
        assert res.max_global_skew <= sb.global_skew_bound(res.params) + 1e-9

    def test_max_estimate_lag_lemma_6_8(self):
        cfg = configs.static_path(12, horizon=120.0, clock_spec="split", seed=1)
        cfg.track_max_estimates = True
        cfg.delay_spec = "max"
        res = run_experiment(cfg)
        lag = max_estimate_lag(res.record).max()
        assert lag <= sb.max_propagation_bound(res.params) + 1e-9


class TestCorollary613LocalSkew:
    @pytest.mark.parametrize(
        "maker, kwargs",
        [
            (configs.static_path, {"clock_spec": "split"}),
            (configs.static_ring, {}),
            (configs.backbone_churn, {}),
            (configs.flapping_edges, {}),
            (configs.edge_insertion, {"t_insert": 40.0, "horizon": 120.0}),
            (configs.two_chain_insertion, {"t_insert": 40.0, "horizon": 120.0}),
        ],
    )
    def test_envelope_never_violated(self, maker, kwargs):
        cfg = maker(12, seed=21, **({"horizon": 120.0} | kwargs))
        res = run_experiment(cfg)
        chk = envelope_violations(res.record, res.params)
        assert chk.compliant, (
            f"{cfg.name}: {chk.violations} violations, worst ratio "
            f"{chk.worst_ratio:.3f} on {chk.worst_edge} at age {chk.worst_age:.1f}"
        )

    def test_stable_edges_meet_stable_bound(self):
        """Edges older than the stabilization time obey B0 + 2 rho W."""
        cfg = configs.static_path(10, horizon=300.0, clock_spec="split", seed=2)
        res = run_experiment(cfg)
        stable = sb.stable_local_skew(res.params)
        t_stab = sb.stabilization_time(res.params)
        for ep in res.record.episodes:
            mask = ep.ages >= t_stab
            if mask.any():
                assert float(ep.skews[mask].max()) <= stable + 1e-9

    def test_adversarial_masked_execution_still_compliant(self):
        """Even under the Lemma 4.2 adversary (where skew is maximal), the
        DCSA never violates its own envelope: the hidden skew lives across
        *distant* pairs, not tracked edges."""
        from repro.lowerbound.executions import build_execution_pair
        from repro.lowerbound.mask import DelayMask
        from repro.lowerbound import masked_experiment
        from repro.sim.events import PRIORITY_SAMPLE

        n = 12
        params = SystemParams.for_network(n, rho=0.05)
        edges = path_edges(n)
        pair = build_execution_pair(
            list(range(n)), edges, DelayMask({}, params.max_delay), 0, params
        )
        horizon = 1.05 * pair.full_skew_time(n - 1, params.rho)
        run = masked_experiment(edges, pair.beta_clocks, pair.beta_policy,
                                params, "dcsa", horizon)
        worst = {"skew": 0.0}

        def sample():
            now = run.sim.now
            for u, v in edges:
                s = abs(run.nodes[u].logical_clock(now) - run.nodes[v].logical_clock(now))
                worst["skew"] = max(worst["skew"], s)
            if run.sim.now + 5.0 <= horizon:
                run.sim.schedule_at(run.sim.now + 5.0, sample,
                                    priority=PRIORITY_SAMPLE)

        run.sim.schedule_at(5.0, sample, priority=PRIORITY_SAMPLE)
        run.run()
        # Adjacent-edge skew stays near T (the beta per-hop offset), far
        # below the stable bound.
        assert worst["skew"] <= sb.stable_local_skew(params) + 1e-9


class TestGradientProperty:
    def test_dcsa_local_skew_beats_max_sync_under_adversary(self):
        """The headline comparison: on the adversarial beta execution with a
        revealing shortcut, max-sync creates a huge adjacent-edge skew jump
        while the DCSA phases the constraint in."""
        from repro.lowerbound.executions import build_execution_pair
        from repro.lowerbound.mask import DelayMask
        from repro.lowerbound import masked_experiment
        from repro.sim.events import PRIORITY_SAMPLE, PRIORITY_TOPOLOGY

        # Separation grows with n: max-sync's peak tracks T*(n-1) while the
        # DCSA's stays near B0 (which is n-independent at this scale).
        n = 24
        params = SystemParams.for_network(n, rho=0.05)
        edges = path_edges(n)
        pair = build_execution_pair(
            list(range(n)), edges, DelayMask({}, params.max_delay), 0, params
        )
        t_insert = 1.05 * pair.full_skew_time(n - 1, params.rho)
        peaks = {}
        for algo in ("dcsa", "max"):
            run = masked_experiment(edges, pair.beta_clocks, pair.beta_policy,
                                    params, algo, t_insert + 30.0)
            run.sim.schedule_at(
                t_insert,
                lambda run=run: run.graph.add_edge(0, n - 1, run.sim.now),
                priority=PRIORITY_TOPOLOGY,
            )
            peak = {"v": 0.0}

            def sample(run=run, peak=peak):
                # Max skew across *old path* edges after the revelation.
                now = run.sim.now
                for u, v in edges:
                    s = abs(run.nodes[u].logical_clock(now) - run.nodes[v].logical_clock(now))
                    peak["v"] = max(peak["v"], s)
                if run.sim.now + 0.5 <= t_insert + 30.0:
                    run.sim.schedule_at(run.sim.now + 0.5, sample,
                                        priority=PRIORITY_SAMPLE)

            run.sim.schedule_at(t_insert + 0.5, sample, priority=PRIORITY_SAMPLE)
            run.run()
            peaks[algo] = peak["v"]
        # Max-sync: the revealed Lmax yanks node 15's neighbours upward one
        # message-hop at a time -> adjacent skew ~ Theta(n T). DCSA: jumps
        # capped at B0 per old edge.
        assert peaks["max"] > 2.0 * peaks["dcsa"]
        assert peaks["dcsa"] <= sb.stable_local_skew(params) + 1e-9


@settings(max_examples=12, deadline=None)
@given(cfg=experiment_configs(4, 14, horizon=60.0, adversarial=True))
def test_property_full_bundle_random_workloads(cfg):
    """Random workload sweep: every invariant holds on every execution.

    Workloads come from the shared strategy library
    (:mod:`repro.testing.strategies`), which spans more topologies, clock
    specs and adversaries than the old inline generator -- and the
    streaming oracle rides along as a second, online checker whose verdict
    must agree with the offline assertions below.
    """
    cfg.oracle = OracleRef("standard", {})
    res = run_experiment(cfg)
    params = cfg.params
    check_monotone(res.record)
    check_rate_floor(res.record)
    assert max_global_skew(res.record) <= sb.global_skew_bound(params) + 1e-9
    assert envelope_violations(res.record, params).compliant
    assert res.oracle_report.ok, res.oracle_report.render()
