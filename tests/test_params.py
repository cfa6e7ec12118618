"""Tests for SystemParams: validation, derived quantities, B function."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ParameterError, SystemParams


class TestValidation:
    def test_for_network_produces_valid_params(self):
        p = SystemParams.for_network(16)
        p.validate()  # must not raise
        assert p.n == 16

    def test_rho_zero_rejected(self):
        with pytest.raises(ParameterError, match="rho"):
            SystemParams(n=4, rho=0.0, b0=100.0).validate()

    def test_rho_half_rejected(self):
        # rho >= 0.5 would violate the logical-clock rate floor of 1/2.
        with pytest.raises(ParameterError, match="rho"):
            SystemParams(n=4, rho=0.5, b0=100.0).validate()

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ParameterError, match="max_delay"):
            SystemParams(n=4, max_delay=-1.0, b0=100.0).validate()

    def test_zero_tick_rejected(self):
        with pytest.raises(ParameterError, match="tick_interval"):
            SystemParams(n=4, tick_interval=0.0, b0=100.0).validate()

    def test_n_one_rejected(self):
        with pytest.raises(ParameterError, match="n"):
            SystemParams(n=1, b0=100.0).validate()

    def test_discovery_must_exceed_max_delay(self):
        # The paper assumes D > max(T, delta_H / (1 - rho)).
        with pytest.raises(ParameterError, match="discovery_bound"):
            SystemParams(n=4, max_delay=1.0, discovery_bound=0.5, b0=100.0).validate()

    def test_b0_floor_enforced(self):
        p = SystemParams(n=4, b0=0.1)
        with pytest.raises(ParameterError, match="b0"):
            p.validate()

    def test_b0_just_above_floor_accepted(self):
        probe = SystemParams(n=4, b0=1.0)
        floor = 2.0 * (1.0 + probe.rho) * probe.tau
        SystemParams(n=4, b0=floor * 1.001).validate()

    def test_with_b0_validates(self):
        p = SystemParams.for_network(8)
        with pytest.raises(ParameterError):
            p.with_b0(0.01)


class TestDerivedQuantities:
    def test_delta_t_formula(self):
        p = SystemParams.for_network(8, rho=0.25, max_delay=2.0, tick_interval=1.5,
                                     discovery_bound=4.0)
        assert p.delta_t == pytest.approx(2.0 + 1.5 / 0.75)

    def test_delta_t_prime_formula(self):
        p = SystemParams.for_network(8)
        assert p.delta_t_prime == pytest.approx((1 + p.rho) * p.delta_t)

    def test_tau_formula(self):
        p = SystemParams.for_network(8)
        expected = (1 + p.rho) / (1 - p.rho) * p.delta_t + p.max_delay + p.discovery_bound
        assert p.tau == pytest.approx(expected)

    def test_global_skew_bound_theorem_6_9(self):
        p = SystemParams.for_network(10, rho=0.02, max_delay=1.0, discovery_bound=2.0)
        expected = ((1.02) * 1.0 + 2 * 0.02 * 2.0) * 9
        assert p.global_skew_bound == pytest.approx(expected)

    def test_global_skew_scales_linearly_in_n(self):
        p = SystemParams.for_network(10)
        q = replace(p, n=19)
        assert q.global_skew_bound == pytest.approx(2.0 * p.global_skew_bound)

    def test_w_window_lemma_6_10(self):
        p = SystemParams.for_network(8)
        expected = (4 * p.global_skew_bound / p.b0 + 1) * p.tau
        assert p.w_window == pytest.approx(expected)


class TestBFunction:
    def test_intercept_exceeds_global_skew(self):
        # B(0) > G(n): a brand-new edge can never constrain below the
        # global skew, which is what makes insertion safe.
        p = SystemParams.for_network(20)
        assert p.b_function(0.0) > p.global_skew_bound

    def test_floor_reached_at_settle_age(self):
        p = SystemParams.for_network(8)
        age = p.b_settle_subjective
        assert p.b_function(age) == pytest.approx(p.b0)
        assert p.b_function(age * 2) == pytest.approx(p.b0)

    def test_monotone_non_increasing(self):
        p = SystemParams.for_network(8)
        ages = [0.0, 1.0, 5.0, 20.0, 100.0, 1e6]
        values = [p.b_function(a) for a in ages]
        assert values == sorted(values, reverse=True)

    def test_linear_decay_slope(self):
        p = SystemParams.for_network(8)
        a = p.b_settle_subjective / 4
        v0, v1 = p.b_function(a), p.b_function(a + 1.0)
        assert v0 - v1 == pytest.approx(p.b_slope)

    @given(st.floats(min_value=0.0, max_value=1e7))
    def test_b_never_below_floor(self, age):
        p = SystemParams.for_network(8)
        assert p.b_function(age) >= p.b0


class TestAutoB0:
    def test_auto_b0_above_floor(self):
        for n in (2, 8, 64, 512):
            p = SystemParams.for_network(n)
            assert p.b0 > 2 * (1 + p.rho) * p.tau

    def test_auto_b0_scales_with_sqrt_n_when_unclamped(self):
        # For large n the Corollary 6.14 term dominates the validity floor.
        p1 = SystemParams.for_network(10_000)
        p2 = SystemParams.for_network(40_000)
        assert p2.b0 == pytest.approx(2.0 * p1.b0, rel=1e-6)
        assert p1.b0 == pytest.approx(
            math.sqrt(p1.rho * p1.n) * p1.global_skew_rate, rel=1e-6
        )

    def test_explicit_b0_respected(self):
        p = SystemParams.for_network(8, b0=50.0)
        assert p.b0 == 50.0
