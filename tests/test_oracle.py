"""Unit and acceptance tests for the streaming conformance oracle.

Covers monitor mechanics on synthetic streams, harness wiring through
``ExperimentConfig.oracle``, and the two headline acceptance scenarios:
a 10x-longer-horizon ``large_ring`` run with the recorder disabled stays
memory-bounded and reports ``oracle_ok=True``, while a deliberately broken
bound surfaces structured violations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemParams
from repro.harness import ExperimentConfig, OracleRef, configs, run_experiment
from repro.network.topology import path_edges
from repro.oracle import (
    MONITOR_FACTORIES,
    GlobalSkewMonitor,
    OracleError,
    ProgressMonitor,
    StreamingOracle,
    Violation,
)


def bind(monitor, params, node_ids, **overrides):
    kwargs = dict(bound_scale=1.0, tolerance=1e-9, max_recorded=100)
    kwargs.update(overrides)
    monitor.bind(params, node_ids, **kwargs)
    return monitor


class TestMonitorsUnit:
    def test_progress_accepts_compliant_stream(self, params8):
        m = bind(ProgressMonitor(), params8, [0, 1])
        m.on_sample(0.0, np.array([0.0, 0.0]), None)
        m.on_sample(1.0, np.array([1.0, 0.9]), None)
        m.on_sample(2.0, np.array([1.6, 1.9]), None)
        assert m.violation_count == 0
        # Two inter-sample steps, two nodes each.
        assert m.checks == 4

    def test_progress_flags_slow_and_decreasing_clocks(self, params8):
        m = bind(ProgressMonitor(), params8, [0, 1])
        m.on_sample(0.0, np.array([0.0, 0.0]), None)
        m.on_sample(1.0, np.array([0.2, -0.5]), None)  # both below 0.5*dt
        assert m.violation_count == 2
        v = m.violations[0]
        assert v.monitor == "progress" and v.time == 1.0
        assert v.observed < v.bound  # rate floor: observed dL too small
        # Margin is negative even though the bound is a floor, not a cap.
        assert v.margin == pytest.approx(0.2 - 0.5)

    def test_global_skew_monitor_margin_and_violation(self, params8):
        m = bind(GlobalSkewMonitor(), params8, list(range(8)), bound_scale=1.0)
        g = params8.global_skew_bound
        clocks = np.zeros(8)
        clocks[3] = g - 1.0
        m.on_sample(1.0, clocks, None)
        assert m.violation_count == 0
        assert m.worst_margin == pytest.approx(1.0)
        clocks[3] = g + 1.0
        m.on_sample(2.0, clocks, None)
        assert m.violation_count == 1
        v = m.violations[0]
        assert set(v.nodes) == {3, 0} and v.observed == pytest.approx(g + 1.0)

    def test_violation_record_shape(self):
        v = Violation("global_skew", 3.0, (1, 2), 5.0, 7.5, -2.5, detail="x")
        assert v.margin == pytest.approx(-2.5)
        text = v.describe()
        assert "global_skew" in text and "7.5" in text and "5" in text

    def test_all_recorded_violations_have_negative_margin(self):
        # Break both a ceiling (global skew) and, via an impossible floor
        # configuration, exercise the margin contract end to end.
        cfg = configs.static_path(10, horizon=40.0, seed=21)
        cfg.oracle = OracleRef("standard", {"bound_scale": 0.02})
        rep = run_experiment(cfg).oracle_report
        assert rep.violation_count > 0
        assert all(v.margin < 0.0 for v in rep.violations)


class TestOracleConstruction:
    def test_unknown_monitor_rejected(self, params8):
        with pytest.raises(OracleError, match="unknown monitor"):
            StreamingOracle(params8, monitors=["nope"])

    def test_duplicate_monitor_rejected(self, params8):
        with pytest.raises(OracleError, match="duplicate"):
            StreamingOracle(params8, monitors=["progress", "progress"])

    def test_empty_monitor_set_rejected(self, params8):
        with pytest.raises(OracleError, match="at least one"):
            StreamingOracle(params8, monitors=[])

    def test_bad_bound_scale_rejected(self, params8):
        with pytest.raises(OracleError, match="bound_scale"):
            StreamingOracle(params8, bound_scale=0.0)

    def test_default_set_is_every_monitor(self, params8):
        oracle = StreamingOracle(params8)
        assert {m.name for m in oracle.monitors} == set(MONITOR_FACTORIES)

    def test_double_install_rejected(self, params8):
        cfg = configs.static_path(4, horizon=5.0)
        from repro.harness.runner import build_experiment

        exp = build_experiment(cfg)
        oracle = StreamingOracle(params8, interval=1.0)
        oracle.install(exp.sim, exp.graph, exp.nodes)
        with pytest.raises(OracleError, match="already installed"):
            oracle.install(exp.sim, exp.graph, exp.nodes)


class TestHarnessWiring:
    def test_oracle_report_attached_and_clean(self):
        cfg = configs.static_path(8, horizon=40.0, seed=3)
        cfg.oracle = OracleRef("standard", {})
        res = run_experiment(cfg)
        rep = res.oracle_report
        assert rep is not None and rep.ok
        assert rep.checks > 0 and rep.violation_count == 0
        assert set(rep.monitors) == set(MONITOR_FACTORIES)
        assert rep.to_metrics()["oracle_ok"] is True

    def test_no_oracle_means_no_report(self):
        res = run_experiment(configs.static_path(4, horizon=10.0))
        assert res.oracle_report is None

    def test_oracle_is_a_neutral_observer(self):
        """Attaching the oracle must not change the execution it observes.

        Regression: the oracle's rng used to come from the shared
        RngFactory, shifting every later (churn/adversary) stream.
        """
        plain = run_experiment(configs.backbone_churn(8, horizon=60.0, seed=5))
        cfg = configs.backbone_churn(8, horizon=60.0, seed=5)
        cfg.oracle = OracleRef("standard", {})
        monitored = run_experiment(cfg)
        # (events_dispatched differs by the oracle's own sampling
        # callbacks; the *model* trajectory must be bit-identical.)
        assert monitored.max_global_skew == plain.max_global_skew
        assert monitored.max_local_skew == plain.max_local_skew
        assert monitored.total_jumps() == plain.total_jumps()
        assert monitored.transport_stats == plain.transport_stats

    def test_oracle_interval_defaults_to_sample_interval(self):
        cfg = configs.static_path(4, horizon=10.0, seed=1)
        cfg.sample_interval = 2.0
        cfg.oracle = OracleRef("standard", {})
        res = run_experiment(cfg)
        # t = 0, 2, ..., 10 -> 6 samples feeding the global monitor.
        assert res.oracle_report.monitor("global_skew").checks == 6

    def test_explicit_zero_interval_rejected_not_defaulted(self):
        cfg = configs.static_path(4, horizon=10.0)
        cfg.oracle = OracleRef("standard", {"interval": 0})
        with pytest.raises(OracleError, match="interval must be positive"):
            run_experiment(cfg)

    def test_summary_reports_unrecorded_runs_and_oracle_verdict(self):
        res = run_experiment(configs.large_ring(8, horizon=30.0))
        text = res.summary()
        assert "not recorded" in text and "oracle: OK" in text
        assert "0.000" not in text.split("\n")[1]  # no fake zero skew line

    def test_monitor_subset_via_ref_kwargs(self):
        cfg = configs.static_path(4, horizon=10.0)
        cfg.oracle = OracleRef("standard", {"monitors": ["global_skew", "progress"]})
        res = run_experiment(cfg)
        assert set(res.oracle_report.monitors) == {"global_skew", "progress"}

    def test_record_disabled_yields_empty_record(self):
        cfg = configs.static_ring(6, horizon=20.0, seed=2)
        cfg.record = False
        res = run_experiment(cfg)
        assert res.record.samples == 0 and res.record.episodes == []
        assert res.max_global_skew == 0.0  # empty-record convention


class TestAcceptance:
    """The ISSUE's two acceptance scenarios."""

    BASE_HORIZON = 60.0

    def test_long_horizon_large_ring_bounded_memory_and_clean(self):
        # 10x the base horizon, recorder off, oracle on: the regime the
        # offline suite cannot reach.
        cfg = configs.large_ring(32, horizon=10 * self.BASE_HORIZON)
        assert cfg.record is False and cfg.oracle is not None
        res = run_experiment(cfg)
        rep = res.oracle_report
        assert rep.ok and rep.to_metrics()["oracle_ok"] is True
        # No recorded history: memory is the oracle's O(n) state only.
        assert res.record.samples == 0
        assert res.record.clocks.size == 0
        assert rep.checks > 10_000  # the run really was monitored throughout
        # Each monitor kept scalars, not series: no violation storage grew.
        assert rep.violations == ()

    def test_broken_bound_reports_structured_violations(self):
        cfg = configs.static_path(12, horizon=self.BASE_HORIZON, seed=21)
        cfg.oracle = OracleRef("standard", {"bound_scale": 0.05})
        res = run_experiment(cfg)
        rep = res.oracle_report
        assert not rep.ok
        assert rep.violation_count > 0
        assert rep.to_metrics()["oracle_ok"] is False
        assert rep.worst_margin < 0.0
        by_monitor = {v.monitor for v in rep.violations}
        assert "global_skew" in by_monitor
        for v in rep.violations:
            assert 0.0 <= v.time <= cfg.horizon
            assert v.nodes and all(0 <= n < 12 for n in v.nodes)
            assert v.observed > v.bound

    def test_violation_storage_is_capped(self):
        cfg = configs.static_path(12, horizon=self.BASE_HORIZON, seed=21)
        cfg.oracle = OracleRef("standard", {"bound_scale": 0.05, "max_recorded": 3})
        rep = run_experiment(cfg).oracle_report
        assert rep.violation_count > len(rep.violations)
        per_monitor: dict[str, int] = {}
        for v in rep.violations:
            per_monitor[v.monitor] = per_monitor.get(v.monitor, 0) + 1
        assert all(count <= 3 for count in per_monitor.values())

    def test_worst_margin_aggregates_only_bound_monitors(self):
        # The floor monitors sit at ~0 slack on every compliant run; the
        # headline margin must reflect distance to a *real* theorem bound.
        cfg = configs.static_path(8, horizon=40.0, seed=3)
        cfg.oracle = OracleRef("standard", {})
        rep = run_experiment(cfg).oracle_report
        bound_margins = [
            rep.monitor(name).worst_margin
            for name in ("global_skew", "estimate_lag", "envelope")
        ]
        assert rep.worst_margin == pytest.approx(min(bound_margins))
        assert rep.worst_margin > 1.0  # informative, not pinned to ~0
        assert rep.monitor("lmax_dominates").worst_margin == pytest.approx(0.0)

    def test_report_render_mentions_verdict(self):
        cfg = configs.static_path(6, horizon=20.0)
        cfg.oracle = OracleRef("standard", {})
        rep = run_experiment(cfg).oracle_report
        assert "oracle OK" in rep.render()


class TestOracleOnAdversaries:
    @pytest.mark.parametrize(
        "maker",
        [configs.adversarial_drift, configs.adversarial_delay,
         configs.greedy_topology, configs.combined_adversary],
        ids=lambda m: m.__name__,
    )
    def test_adversarial_workloads_stay_conformant(self, maker):
        cfg = maker(8, horizon=60.0, seed=11)
        cfg.oracle = OracleRef("standard", {})
        res = run_experiment(cfg)
        assert res.oracle_report.ok, res.oracle_report.render()


class TestBulkEdgeSeeding:
    """``attach_graph`` seeds E_0 with one bulk call per edge monitor (and
    the timeline) in ``graph.edges()`` order: the same state, and the same
    run, as one ``edge_event`` per edge."""

    @staticmethod
    def _per_edge(self, graph):
        if self._edge_monitors:
            graph.subscribe(self.edge_event)
            for u, v in graph.edges():
                self.edge_event(0.0, u, v, True)

    @staticmethod
    def _configs():
        from dataclasses import replace

        from repro.network.churn import ScriptedChurn

        grid = configs.huge_sync_grid(6, 6, horizon=12.0)
        churned = replace(
            configs.huge_sync_ring(24, horizon=12.0),
            churn=[ScriptedChurn([(1.5, "add", 3, 11), (4.2, "remove", 5, 6),
                                  (7.9, "add", 5, 6), (9.1, "remove", 3, 11)])],
        )
        return [replace(cfg, oracle=OracleRef("standard", {})) for cfg in (grid, churned)]

    def _run(self, cfg, monkeypatch, per_edge):
        from repro.harness.runner import Experiment
        from repro.obs import timeline_session

        with monkeypatch.context() as mp:
            if per_edge:
                mp.setattr(StreamingOracle, "attach_graph", self._per_edge)
            with timeline_session() as tl:
                exp = Experiment(cfg)
                (env,) = [m for m in exp.oracle.monitors if m.tracks_edges]
                seeded = (list(env._live.items()), list(tl.events))
                report = exp.run().oracle_report
                return seeded, report.to_dict(), tl.to_dict()

    def test_seeded_state_and_the_run_equal_the_per_edge_path(self, monkeypatch):
        for cfg in self._configs():
            bulk = self._run(cfg, monkeypatch, per_edge=False)
            assert bulk[0][0] and bulk[0][1]  # both were seeded
            assert bulk == self._run(cfg, monkeypatch, per_edge=True)
