"""Tests for the experiment harness: configs, wiring, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemParams
from repro.harness import Experiment, ExperimentConfig, configs, run_experiment
from repro.harness.registry import ClockRef
from repro.harness.runner import _max_events
from repro.network.topology import path_edges
from repro.sim.simulator import SimulationError
from repro.tracing import SPAN_FLIGHT, trace_session


class TestConfigs:
    def test_all_canned_configs_build(self):
        cfgs = [
            configs.static_path(8, horizon=20.0),
            configs.static_ring(8, horizon=20.0),
            configs.static_grid(2, 4, horizon=20.0),
            configs.backbone_churn(8, horizon=20.0),
            configs.rotating_backbone(8, horizon=50.0, window=12.0),
            configs.mobile_network(8, horizon=20.0),
            configs.edge_insertion(8, t_insert=10.0, horizon=30.0),
            configs.flapping_edges(8, horizon=20.0),
            configs.two_chain_insertion(10, t_insert=10.0, horizon=30.0),
        ]
        for cfg in cfgs:
            exp = Experiment(cfg)
            assert len(exp.nodes) == cfg.params.n

    def test_unknown_algorithm_rejected(self):
        cfg = configs.static_path(4)
        cfg.algorithm = "nope"
        with pytest.raises(ValueError, match="unknown algorithm"):
            Experiment(cfg)

    def test_unknown_specs_rejected(self):
        cfg = configs.static_path(4)
        cfg.clock_spec = "warp"
        with pytest.raises(ValueError, match="clock spec"):
            Experiment(cfg)
        cfg = configs.static_path(4)
        cfg.delay_spec = "warp"
        with pytest.raises(ValueError, match="delay spec"):
            Experiment(cfg)
        cfg = configs.static_path(4)
        cfg.discovery_spec = "warp"
        with pytest.raises(ValueError, match="discovery spec"):
            Experiment(cfg)

    def test_drift_violating_clock_spec_rejected(self):
        cfg = ExperimentConfig(
            params=SystemParams.for_network(4),
            initial_edges=path_edges(4),
            clock_spec=ClockRef("segments", {"segments": [[[0.0, 2.0]]] * 4}),
            horizon=10.0,
        )
        with pytest.raises(ValueError, match="drift"):
            Experiment(cfg)


class TestRunResult:
    def test_summary_contains_key_facts(self):
        res = run_experiment(configs.static_ring(6, horizon=30.0))
        s = res.summary()
        assert "n=6" in s and "global skew" in s and "messages" in s

    def test_stats_exposed(self):
        res = run_experiment(configs.static_ring(6, horizon=30.0))
        assert res.transport_stats["sent"] > 0
        assert res.events_dispatched > 0
        assert res.total_jumps() >= 0

    def test_trace_collection(self):
        cfg = configs.static_path(4, horizon=10.0)
        assert run_experiment(cfg).spans is None
        with trace_session():
            res = run_experiment(cfg)
        assert res.spans is not None
        assert res.spans.kind_counts[SPAN_FLIGHT] == res.transport_stats["sent"]

    def test_summary_reports_trace_drops(self):
        cfg = configs.static_path(4, horizon=10.0)
        with trace_session():
            res = run_experiment(cfg)
        assert "spans dropped" not in res.summary()
        with trace_session(capacity=8):
            capped = run_experiment(cfg)
        assert len(capped.spans) == 8
        lost = len(res.spans) - 8
        assert f"spans dropped: {lost} (capacity 8)" in capped.summary()

    def test_summary_reports_oracle_truncation(self):
        from repro.oracle.oracle import OracleReport

        res = run_experiment(configs.static_ring(6, horizon=30.0))
        res.oracle_report = OracleReport(
            ok=False,
            checks=10,
            violation_count=7,
            violations=(),  # the max_recorded cap dropped all 7 records
            worst_margin=-1.0,
        )
        s = res.summary()
        assert "7 violations" in s
        assert "oracle violations truncated: 7 not recorded" in s


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = run_experiment(configs.backbone_churn(8, horizon=40.0, seed=11))
        b = run_experiment(configs.backbone_churn(8, horizon=40.0, seed=11))
        assert np.array_equal(a.record.clocks, b.record.clocks)
        assert a.transport_stats == b.transport_stats
        assert a.events_dispatched == b.events_dispatched

    def test_different_seed_differs(self):
        a = run_experiment(configs.backbone_churn(8, horizon=40.0, seed=11))
        b = run_experiment(configs.backbone_churn(8, horizon=40.0, seed=12))
        assert not np.array_equal(a.record.clocks, b.record.clocks)

    def test_trace_determinism(self):
        tables = []
        for _ in range(2):
            with trace_session():
                res = run_experiment(configs.static_path(5, horizon=20.0, seed=3))
            spans = res.spans
            tables.append([spans.kind, spans.node, spans.peer, spans.t0, spans.t1,
                           spans.status, spans.detail])
        assert tables[0][0] and tables[0] == tables[1]


class TestClockSpecs:
    @pytest.mark.parametrize(
        "spec", ["perfect", "random_walk", "split", "alternating", "uniform"]
    )
    def test_all_specs_run(self, spec):
        cfg = configs.static_path(6, horizon=15.0)
        cfg.clock_spec = spec
        res = run_experiment(cfg)
        assert res.record.samples > 0

    @pytest.mark.parametrize("spec", ["uniform", "max", "half", "zero"])
    def test_all_delay_specs_run(self, spec):
        cfg = configs.static_path(6, horizon=15.0)
        cfg.delay_spec = spec
        res = run_experiment(cfg)
        assert res.transport_stats["delivered"] > 0


class TestHugeWorkloads:
    """The production-scale workload family (scaled down for test speed)."""

    def test_huge_workloads_registered(self):
        for name in ("huge_ring", "huge_grid", "huge_churn_ring"):
            assert name in configs.WORKLOADS

    def test_huge_ring_runs_checked_without_recorder(self):
        res = run_experiment(configs.huge_ring(12, horizon=12.0))
        assert res.record.samples == 0  # recorder off by design
        assert res.events_dispatched > 0
        assert res.oracle_report is not None and res.oracle_report.ok

    def test_huge_grid_runs_checked(self):
        res = run_experiment(configs.huge_grid(3, 4, horizon=12.0))
        assert res.params.n == 12
        assert res.oracle_report is not None and res.oracle_report.ok

    def test_huge_churn_ring_churns_and_stays_conformant(self):
        res = run_experiment(configs.huge_churn_ring(12, horizon=15.0))
        assert res.graph.edge_events > 12  # backbone + rewiring happened
        assert res.oracle_report is not None and res.oracle_report.ok

    def test_the_runaway_guard_scales_with_the_config(self):
        """``Simulator.max_events`` is derived from the config: room for
        twice what the run dispatches, and linear in n and in the horizon
        (a 10^6-node sync ring dispatches 54.5M events by horizon 10)."""
        cfg = configs.huge_sync_ring(4096, horizon=10.0)
        exp = Experiment(cfg)
        assert exp.sim.max_events == _max_events(cfg)
        assert exp.sim.max_events >= 2 * exp.run().events_dispatched

        def limit(n, horizon):
            return _max_events(configs.huge_sync_ring(n, horizon=horizon))

        per_node = limit(8192, 10.0) - limit(4096, 10.0)
        assert per_node == pytest.approx(2 * (limit(4096, 10.0) - limit(2048, 10.0)), abs=2)
        assert limit(4096, 30.0) - limit(4096, 20.0) == pytest.approx(
            limit(4096, 20.0) - limit(4096, 10.0), abs=2
        )
        assert per_node / 4096 * 10**6 > 2 * 54_500_003

    def test_a_run_past_its_guard_still_raises(self):
        exp = Experiment(configs.huge_sync_ring(64, horizon=10.0))
        exp.sim.max_events = 1000
        with pytest.raises(SimulationError, match="max_events"):
            exp.run()

    def test_an_unused_sample_interval_is_not_a_divisor(self):
        cfg = configs.static_ring(6, horizon=5.0)
        cfg.sample_interval, cfg.record = 0.0, False
        assert run_experiment(cfg).events_dispatched > 0

    def test_huge_configs_serialize(self):
        for cfg in (
            configs.huge_ring(12),
            configs.huge_grid(3, 4),
            configs.huge_churn_ring(12),
        ):
            rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
            assert rebuilt.to_dict() == cfg.to_dict()


class TestEngineRegistry:
    def test_sim_runtime_resolves_through_registry(self):
        from repro.harness.registry import RUNTIME, RuntimeRef

        assert RUNTIME["sim"].build is not None and "sim" in RuntimeRef.builders()
        res = run_experiment(configs.static_ring(5, horizon=10.0))
        assert res.events_dispatched > 0

    def test_unknown_runtime_rejected(self):
        cfg = configs.static_ring(5, horizon=10.0)
        cfg.runtime = "warp-drive"
        with pytest.raises(ValueError, match="unknown runtime"):
            run_experiment(cfg)
