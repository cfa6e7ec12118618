"""Integration tests for the Section 4 scenario experiments."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import SystemParams
from repro.core import skew_bounds as sb
from repro.lowerbound import run_figure1_experiment, run_masking_experiment
from repro.lowerbound.scenario import _value_at, settle_age


class TestMaskingExperiment:
    def test_unmasked_chain_meets_floor(self):
        params = SystemParams.for_network(8, rho=0.05)
        res = run_masking_experiment(params)
        assert res.flexible_distance == 7
        assert res.floor == pytest.approx(0.25 * params.max_delay * 7)
        assert res.floor_met
        # Beta hides the full T*d hardware skew from the algorithm.
        assert res.skew == pytest.approx(params.max_delay * 7, rel=0.15)

    def test_indistinguishability_is_exact(self):
        """The real implementation cannot distinguish alpha from beta:
        L^beta_w(t) == L^alpha_w(H^beta_w(t)) to machine precision."""
        params = SystemParams.for_network(6, rho=0.05)
        res = run_masking_experiment(params, indist_samples=6)
        assert res.indistinguishability_error is not None
        assert res.indistinguishability_error < 1e-9

    def test_constrained_prefix_reduces_skew(self):
        params = SystemParams.for_network(8, rho=0.05)
        free = run_masking_experiment(params, check_indistinguishability=False)
        masked = run_masking_experiment(
            params, constrained_prefix=4, check_indistinguishability=False
        )
        assert masked.flexible_distance == free.flexible_distance - 4
        assert masked.skew < free.skew

    def test_works_for_baseline_algorithms(self):
        """The bound is algorithm-independent: max-sync cannot beat it
        either (shown here for the implementation we have)."""
        params = SystemParams.for_network(6, rho=0.05)
        res = run_masking_experiment(
            params, algorithm="max", check_indistinguishability=False
        )
        assert res.floor_met

    def test_measure_time_validation(self):
        params = SystemParams.for_network(6, rho=0.05)
        with pytest.raises(ValueError):
            run_masking_experiment(params, measure_time=1.0)

    def test_prefix_validation(self):
        params = SystemParams.for_network(6, rho=0.05)
        with pytest.raises(ValueError):
            run_masking_experiment(params, constrained_prefix=10)


class TestFigure1Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        params = SystemParams.for_network(16, rho=0.05)
        return run_figure1_experiment(params, k=1, sample_interval=2.0)

    def test_panel_a_skew_linear_in_flexible_distance(self, result):
        """Chain A carries Omega(n) skew between u and v at T2."""
        # dist(u, v) = |A-edges| - 2k; skew ~ T * dist.
        expected = (16 // 2) - 2 * result.k
        assert result.skew_uv_t2 == pytest.approx(float(expected), rel=0.2)
        assert result.skew_w0_wn_t2 == pytest.approx(result.skew_uv_t2, rel=0.2)

    def test_panel_b_initial_skews_in_lemma_window(self, result):
        """Every injected edge's initial skew lies in [c - d, c]."""
        assert result.new_edges, "no edges were injected"
        c, d = result.requested_initial_skew, result.gap_slack
        for e in result.new_edges:
            assert c - d - 1e-6 <= e.initial_skew <= c + 1e-6

    def test_panel_d_corner_clocks_ordered(self, result):
        """w0 == u layer is behind; v == wn layer is ahead (beta drift)."""
        t1 = result.corner_clocks_t1
        assert t1["w0"] == pytest.approx(t1["u"], abs=1.5)
        assert t1["wn"] == pytest.approx(t1["v"], abs=1.5)
        assert t1["v"] > t1["u"]

    def test_new_edges_eventually_settle(self, result):
        """All new edges reach the stable bound within the horizon, no
        faster than physics allows and no slower than the DCSA guarantee."""
        for e in result.new_edges:
            assert e.final_skew <= result.stable_skew + 1e-6
            assert e.reduction_time is not None
            assert e.reduction_time <= result.theory_reduction_ceiling + 1e-6

    def test_max_reduction_time_is_the_slowest_settled_edge(self, result):
        times = [e.reduction_time for e in result.new_edges]
        assert result.max_reduction_time == max(times)
        assert replace(result, new_edges=[]).max_reduction_time is None

    def test_an_explicit_initial_skew_is_the_requested_one(self):
        params = SystemParams.for_network(16, rho=0.05)
        res = run_figure1_experiment(params, k=1, initial_skew=2.0, sample_interval=2.0)
        assert res.requested_initial_skew == max(2.0, 1.5 * res.gap_slack)

    @pytest.mark.parametrize(
        "series,age",
        [
            ([], None),
            ([(1.0, 0.1), (2.0, 0.1)], 0.0),  # never above: settled at the first sample
            ([(1.0, 5.0), (2.0, 0.1), (3.0, 0.1)], 1.0),  # settled after the last excursion
            ([(1.0, 0.1), (2.0, 5.0)], None),  # still above at the end
        ],
    )
    def test_settle_age(self, series, age):
        assert settle_age(series, 1.0, 1.0) == age

    def test_value_at_an_empty_series_is_zero(self):
        assert _value_at([], 3.0) == 0.0
        assert _value_at([(1.0, 4.0), (3.5, 6.0)], 3.0) == 6.0

    def test_validation(self):
        params = SystemParams.for_network(16, rho=0.05)
        with pytest.raises(ValueError):
            run_figure1_experiment(params, k=100)
        with pytest.raises(ValueError):
            run_figure1_experiment(params, settle_factor=0.5)
        small = SystemParams.for_network(6, rho=0.05)
        with pytest.raises(ValueError):
            run_figure1_experiment(small)
