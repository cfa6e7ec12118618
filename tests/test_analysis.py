"""Tests for the recorder, metrics and report modules."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from graph_listeners import ListenerRecorder
from hypothesis import given, settings

from repro import SystemParams
from repro.analysis.metrics import (
    envelope_violations,
    global_skew_series,
    gradient_profile,
    max_estimate_lag,
    max_global_skew,
    max_local_skew,
    stabilization_age,
    stable_local_skew_measured,
)
from repro.analysis.recorder import EdgeEpisode, RunRecord, SkewRecorder
from repro.analysis.report import TextTable, csv_text, format_value
from repro.core.batch import Sampler
from repro.harness import Experiment, configs, run_experiment
from repro.network.graph import DynamicGraph
from repro.network.topology import path_edges
from repro.sim.simulator import Simulator
from repro.testing.strategies import experiment_configs


def installed(recorder: SkewRecorder) -> None:
    """Arm ``recorder`` on a sampler of its own, reading every node."""
    sampler = Sampler(recorder.sim, recorder.nodes)
    recorder.join(sampler)
    sampler.install()


def synthetic_record() -> RunRecord:
    """3 nodes, 4 samples, one edge episode with a decaying skew."""
    times = np.array([0.0, 1.0, 2.0, 3.0])
    clocks = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 1.2, 0.9],
            [2.0, 2.5, 1.8],
            [3.0, 3.2, 2.9],
        ]
    )
    ep = EdgeEpisode(
        u=0,
        v=1,
        add_time=0.0,
        ages=np.array([0.0, 1.0, 2.0, 3.0]),
        skews=np.array([0.0, 0.2, 0.5, 0.2]),
    )
    return RunRecord(node_ids=[0, 1, 2], times=times, clocks=clocks, episodes=[ep])


class TestRecordBasics:
    def test_global_skew_series(self):
        r = synthetic_record()
        assert global_skew_series(r).tolist() == pytest.approx([0.0, 0.3, 0.7, 0.3])
        assert max_global_skew(r) == pytest.approx(0.7)

    def test_local_skew(self):
        r = synthetic_record()
        assert max_local_skew(r) == pytest.approx(0.5)

    def test_episodes_for(self):
        r = synthetic_record()
        assert len(r.episodes_for(1, 0)) == 1
        assert r.episodes_for(0, 2) == []

    def test_empty_record(self):
        r = RunRecord(node_ids=[0], times=np.empty(0), clocks=np.empty((0, 1)))
        assert max_global_skew(r) == 0.0
        assert global_skew_series(r).size == 0


class TestEpisodeMetrics:
    def test_stabilization_age(self):
        ep = EdgeEpisode(
            0, 1, 10.0,
            ages=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            skews=np.array([5.0, 4.0, 1.0, 0.5, 0.4]),
        )
        assert stabilization_age(ep, threshold=1.5) == pytest.approx(2.0)
        assert stabilization_age(ep, threshold=10.0) == pytest.approx(0.0)
        assert stabilization_age(ep, threshold=0.1) is None
        empty = EdgeEpisode(0, 1, 10.0, ages=np.array([]), skews=np.array([]))
        assert stabilization_age(empty, threshold=1.5) is None

    def test_stabilization_requires_staying_below(self):
        ep = EdgeEpisode(
            0, 1, 0.0,
            ages=np.array([0.0, 1.0, 2.0]),
            skews=np.array([0.5, 3.0, 0.5]),  # dips back up
        )
        assert stabilization_age(ep, threshold=1.0) == pytest.approx(2.0)

    def test_stable_local_skew_measured(self):
        params = SystemParams.for_network(4)
        ep = EdgeEpisode(
            0, 1, 0.0,
            ages=np.array([0.0, 1000.0]),
            skews=np.array([50.0, 2.0]),
        )
        r = RunRecord(node_ids=[0, 1], times=np.array([0.0]),
                      clocks=np.zeros((1, 2)), episodes=[ep])
        # Only samples older than the stabilization age count.
        assert stable_local_skew_measured(r, params) == pytest.approx(2.0)
        assert stable_local_skew_measured(r, params, age_floor=0.0) == 50.0


class TestEnvelope:
    def test_compliant_record(self):
        params = SystemParams.for_network(4)
        r = synthetic_record()
        chk = envelope_violations(r, params)
        assert chk.compliant
        assert chk.samples_checked == 4
        assert chk.worst_ratio < 1.0

    def test_violation_detected(self):
        params = SystemParams.for_network(4)
        from repro.core import skew_bounds as sb
        big = 2.0 * sb.dynamic_local_skew(params, 1e9)
        ep = EdgeEpisode(
            0, 1, 0.0,
            ages=np.array([1e9]),
            skews=np.array([big]),
        )
        r = RunRecord(node_ids=[0, 1], times=np.array([0.0]),
                      clocks=np.zeros((1, 2)), episodes=[ep])
        chk = envelope_violations(r, params)
        assert not chk.compliant
        assert chk.violations == 1
        assert chk.worst_ratio == pytest.approx(2.0)
        assert chk.worst_edge == (0, 1)

    def test_grace_period(self):
        params = SystemParams.for_network(4)
        ep = EdgeEpisode(0, 1, 0.0, ages=np.array([0.5]), skews=np.array([1e9]))
        r = RunRecord(node_ids=[0, 1], times=np.array([0.0]),
                      clocks=np.zeros((1, 2)), episodes=[ep])
        assert envelope_violations(r, params, grace=1.0).samples_checked == 0


class TestRecorderLive:
    def test_samples_and_episodes(self):
        sim = Simulator()
        g = DynamicGraph(range(3), path_edges(3))

        class Dummy:
            def __init__(self, rate):
                self.rate = rate

            def logical_clock(self, t):
                return self.rate * t

        nodes = {0: Dummy(1.0), 1: Dummy(1.1), 2: Dummy(0.9)}
        rec = SkewRecorder(sim, g, nodes, interval=1.0, track_edges=True, end=5.0)
        installed(rec)
        sim.schedule_at(2.5, lambda: g.remove_edge(0, 1, sim.now))
        sim.schedule_at(3.5, lambda: g.add_edge(0, 1, sim.now))
        sim.run_until(5.0)
        record = rec.result()
        assert record.samples == 6
        eps = record.episodes_for(0, 1)
        assert len(eps) == 2
        assert eps[0].end_time == 2.5
        assert eps[1].add_time == 3.5
        assert eps[1].end_time is None
        # Skew grows as 0.1 * t on edge (0, 1).
        assert eps[0].skews[-1] == pytest.approx(0.2)

    def test_table_run_records_what_the_reader_loop_reads(self):
        """A recorded run on the array step samples the table's columns;
        a second recorder given no transport calls every node instead.
        The two records are equal bit for bit."""
        cfg = configs.backbone_churn(8, horizon=40.0, seed=5, track_max_estimates=True)
        exp = Experiment(cfg)
        loop = SkewRecorder(
            exp.sim, exp.graph, exp.nodes, cfg.sample_interval,
            track_max_estimates=True, end=cfg.horizon,
        )
        installed(loop)
        result = exp.run()
        assert result.batch_gate_reason is None and result.array_events > 0
        by_loop = loop.result()
        assert result.record.samples == by_loop.samples > 0
        assert np.array_equal(result.record.clocks, by_loop.clocks)
        assert np.array_equal(result.record.max_estimates, by_loop.max_estimates)

    @settings(max_examples=25, deadline=None)
    @given(cfg=experiment_configs(4, 10, horizon=30.0))
    def test_property_episodes_equal_a_listener_recorder(self, cfg):
        """``RunRecord.episodes``, read off the graph's history at the end,
        equal byte for byte what a graph listener subscribed where the
        recorder is built, running the per-sample episode loop, records."""
        listener: list[ListenerRecorder] = []
        init, sample = SkewRecorder.__init__, SkewRecorder.sample

        def subscribing_init(rec, sim, graph, nodes, *args, **kwargs):
            init(rec, sim, graph, nodes, *args, **kwargs)
            listener.append(ListenerRecorder(graph, nodes))

        def looping_sample(rec, t, clocks, estimates):
            sample(rec, t, clocks, estimates)
            listener[0].sample(t, rec._clocks[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SkewRecorder, "__init__", subscribing_init)
            mp.setattr(SkewRecorder, "sample", looping_sample)
            record = run_experiment(replace(cfg, record=True, track_edges=True)).record
        assert record.episodes
        assert [
            (e.u, e.v, e.add_time, e.end_time, e.ages.tobytes(), e.skews.tobytes())
            for e in record.episodes
        ] == listener[0].record()

    def test_max_estimate_lag_requires_tracking(self):
        r = synthetic_record()
        with pytest.raises(ValueError):
            max_estimate_lag(r)


class TestGradientProfile:
    def test_profile_on_run(self):
        res = run_experiment(configs.static_path(8, horizon=60.0, seed=2))
        prof = gradient_profile(res.record, res.graph, 60.0)
        assert set(prof) == set(range(1, 8))
        assert all(v >= 0 for v in prof.values())


class TestReport:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(1.23456) == "1.235"
        assert format_value("x") == "x"

    def test_table_render(self):
        t = TextTable(["a", "bb"], title="T")
        t.add_row([1, 2.5])
        out = t.render()
        assert "== T ==" in out
        assert "a" in out and "bb" in out and "2.500" in out

    def test_row_width_mismatch(self):
        t = TextTable(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_csv(self):
        text = csv_text(["x", "y"], [[1, 2.0], [3, None]])
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,2"
        assert lines[2] == "3,-"
