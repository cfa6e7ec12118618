"""Tests for the sweep engine: determinism, backend parity, caching.

The acceptance-level checks live here: a >= 8-config sweep through
``SweepEngine(processes=4)`` must produce metric rows identical to the
serial backend, and an immediate rerun must be served entirely from the
store with zero new writes.
"""

from __future__ import annotations

import pytest

from repro.harness import ExperimentConfig, configs, run_experiment
from repro.sweep import (
    ResultStore,
    SweepEngine,
    SweepSpec,
    config_hash,
    grid,
    seeds,
    sweep_csv,
    tidy_rows,
)


def small_spec() -> SweepSpec:
    """8 fast configs: 2 sizes x 2 algorithms x 2 seeds on a short ring."""
    return SweepSpec(
        "static_ring",
        base={"horizon": 20.0},
        axes=[grid(n=[5, 6], algorithm=["dcsa", "max"]), seeds(2)],
    )


class TestDeterminism:
    def test_same_config_and_seed_is_bit_identical(self):
        """Determinism regression: two runs of one config agree exactly."""
        cfg = configs.backbone_churn(6, horizon=25.0, seed=3)
        r1 = run_experiment(cfg)
        r2 = run_experiment(ExperimentConfig.from_dict(cfg.to_dict()))
        assert r1.max_global_skew == r2.max_global_skew
        assert r1.max_local_skew == r2.max_local_skew
        assert r1.events_dispatched == r2.events_dispatched

    def test_parallel_backend_matches_direct_run(self):
        cfg = configs.static_path(6, horizon=25.0, seed=1)
        direct = run_experiment(cfg)
        (row,) = SweepEngine(processes=2).run([cfg]).rows
        assert row.metrics["max_global_skew"] == direct.max_global_skew
        assert row.metrics["max_local_skew"] == direct.max_local_skew


class TestBackendParity:
    def test_eight_config_parallel_matches_serial_and_rerun_is_free(self, tmp_path):
        spec = small_spec()
        assert len(spec.expand()) == 8

        serial_store = ResultStore(tmp_path / "serial")
        serial = SweepEngine(processes=None, store=serial_store).run(spec)

        par_store = ResultStore(tmp_path / "parallel")
        parallel = SweepEngine(processes=4, store=par_store).run(spec)

        assert len(serial) == len(parallel) == 8
        assert serial_store.writes == par_store.writes == 8
        for s_row, p_row in zip(serial.rows, parallel.rows):
            assert s_row.key == p_row.key
            assert s_row.metrics == p_row.metrics
            assert s_row.index == p_row.index

        # Immediate rerun: everything cached, zero new store writes.
        rerun_store = ResultStore(tmp_path / "parallel")
        rerun = SweepEngine(processes=4, store=rerun_store).run(spec)
        assert rerun.cached_count == 8
        assert rerun.executed_count == 0
        assert rerun_store.writes == 0
        for p_row, c_row in zip(parallel.rows, rerun.rows):
            assert p_row.metrics == c_row.metrics

    def test_rows_keep_expansion_order(self, tmp_path):
        spec = small_spec()
        result = SweepEngine(processes=3).run(spec)
        expected = [config_hash(c.to_dict()) for c in spec.expand()]
        assert [r.key for r in result.rows] == expected
        assert [r.index for r in result.rows] == list(range(8))


class TestEngineBehaviour:
    def test_progress_callback_sees_every_point(self, tmp_path):
        seen = []
        store = ResultStore(tmp_path / "cache")
        spec = SweepSpec("static_ring", base={"n": 5, "horizon": 15.0}, axes=[seeds(3)])
        SweepEngine(store=store, progress=lambda d, t, r: seen.append((d, t, r.cached))).run(spec)
        assert seen == [(1, 3, False), (2, 3, False), (3, 3, False)]
        seen.clear()
        SweepEngine(store=store, progress=lambda d, t, r: seen.append((d, t, r.cached))).run(spec)
        assert seen == [(1, 3, True), (2, 3, True), (3, 3, True)]

    def test_duplicate_configs_share_one_execution(self, tmp_path):
        cfg = configs.static_ring(5, horizon=15.0)
        store = ResultStore(tmp_path / "cache")
        result = SweepEngine(store=store).run([cfg, cfg])
        assert store.writes == 1
        assert result.rows[0].metrics == result.rows[1].metrics
        assert not result.rows[0].cached and result.rows[1].cached

    def test_reuse_cache_false_recomputes(self, tmp_path):
        cfg = configs.static_ring(5, horizon=15.0)
        store = ResultStore(tmp_path / "cache")
        SweepEngine(store=store).run([cfg])
        result = SweepEngine(store=store).run([cfg], reuse_cache=False)
        assert result.executed_count == 1
        assert store.writes == 2

    def test_failing_config_raises_with_name(self):
        cfg = configs.static_ring(5, horizon=15.0)
        cfg.algorithm = "nope"  # passes to_dict, fails at build time
        with pytest.raises(RuntimeError, match="static_ring"):
            SweepEngine().run([cfg])
        with pytest.raises(RuntimeError, match="static_ring"):
            SweepEngine(processes=2).run([cfg])

    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            SweepEngine(processes=-1)

    def test_result_reads_like_its_rows(self):
        result = SweepEngine().run(
            [configs.static_ring(5, horizon=10.0), configs.static_ring(6, horizon=10.0)]
        )
        assert len(result) == len(result.rows) == 2

    def test_telemetry_counts_cache_economics(self, tmp_path):
        from repro.telemetry import get_registry

        cfg = configs.static_ring(5, horizon=10.0)
        store = ResultStore(tmp_path / "cache")
        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            SweepEngine(store=store).run([cfg, cfg])  # one run, one duplicate
            SweepEngine(store=store).run([cfg])  # a store hit
            snap = registry.snapshot()
        finally:
            registry.disable()
            registry.reset()
        counters, gauges = snap["counters"], snap["gauges"]
        assert counters["sweep.points_executed"] == 1
        assert counters["sweep.dedup_hits"] == 1
        assert counters["sweep.cache_hits"] == 1
        assert counters["sweep.exec_seconds"] > 0
        assert gauges["sweep.points_total"] == 1 and gauges["sweep.points_done"] == 1
        assert gauges["sweep.worker_utilization"] > 0

    def test_pool_falls_back_where_fork_is_missing(self, monkeypatch):
        import multiprocessing

        from repro.sweep.engine import _pool_context

        real = multiprocessing.get_context

        def get_context(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        assert _pool_context() is real()


class TestMetricsDir:
    def test_executed_points_write_one_frame_each(self, tmp_path):
        from repro.telemetry import read_frames

        spec = SweepSpec("static_ring", base={"n": 5, "horizon": 15.0}, axes=[seeds(2)])
        mdir = tmp_path / "metrics"
        store = ResultStore(tmp_path / "cache")
        result = SweepEngine(store=store, metrics_dir=str(mdir)).run(spec)
        files = sorted(p.name for p in mdir.glob("*.jsonl"))
        # One flight-recorder file per executed point, named by key prefix.
        assert files == sorted(r.key[:16] + ".jsonl" for r in result.rows)
        for row in result.rows:
            frames = read_frames(str(mdir / (row.key[:16] + ".jsonl")))
            assert len(frames) == 1
            assert frames[0]["source"].startswith("static_ring")
            assert frames[0]["counters"]["kernel.events_dispatched"] > 0

    def test_cached_points_write_nothing(self, tmp_path):
        spec = SweepSpec("static_ring", base={"n": 5, "horizon": 15.0}, axes=[seeds(2)])
        store = ResultStore(tmp_path / "cache")
        SweepEngine(store=store).run(spec)  # warm the store, no metrics
        mdir = tmp_path / "metrics"
        rerun = SweepEngine(store=store, metrics_dir=str(mdir)).run(spec)
        assert rerun.cached_count == 2 and rerun.executed_count == 0
        # Fully-cached sweep: the directory is never even created.
        assert not mdir.exists()

    def test_parallel_backend_writes_metrics_too(self, tmp_path):
        mdir = tmp_path / "metrics"
        cfgs = [configs.static_ring(5, horizon=15.0, seed=s) for s in (1, 2, 3)]
        result = SweepEngine(processes=2, metrics_dir=str(mdir)).run(cfgs)
        assert result.executed_count == 3
        assert len(list(mdir.glob("*.jsonl"))) == 3


class TestSummary:
    def test_untracked_run_has_no_envelope_and_an_oracle_verdict(self):
        from repro.harness import OracleRef
        from repro.sweep.engine import summarize_run

        cfg = configs.static_ring(6, horizon=20.0)
        cfg.track_edges = False
        cfg.oracle = OracleRef("standard", {})
        metrics = summarize_run(run_experiment(cfg))
        for key in ("max_local_skew", "stable_local_skew", "envelope_samples",
                    "envelope_violations", "envelope_worst_ratio", "envelope_compliant"):
            assert metrics[key] is None
        assert metrics["oracle_ok"] is True and metrics["oracle_checks"] > 0


class TestAggregation:
    def test_tidy_rows_join_coords_and_metrics(self):
        spec = SweepSpec("static_ring", base={"n": 5, "horizon": 15.0}, axes=[seeds(2)])
        rows = tidy_rows(SweepEngine().run(spec))
        assert [r["seed"] for r in rows] == [0, 1]
        assert all(r["n"] == 5 for r in rows)
        assert all("max_global_skew" in r for r in rows)

    def test_csv_has_header_and_rows(self):
        spec = SweepSpec("static_ring", base={"horizon": 15.0, "n": 5}, axes=[seeds(2)])
        text = sweep_csv(SweepEngine().run(spec), columns=["seed", "max_global_skew"])
        lines = text.strip().splitlines()
        assert lines[0] == "seed,max_global_skew"
        assert len(lines) == 3
