"""Tests for BFunction and the closed-form skew bounds of Sections 4 & 6."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SystemParams
from repro.core import skew_bounds as sb
from repro.core.bfunction import BFunction


class TestBFunction:
    def test_matches_params(self, params8):
        b = BFunction.from_params(params8)
        for age in (0.0, 1.0, 10.0, 100.0, 1e5):
            assert b(age) == pytest.approx(params8.b_function(age))

    def test_vectorised_matches_scalar(self, params8):
        b = BFunction.from_params(params8)
        ages = np.linspace(0, 2 * b.settle_age, 50)
        vec = b.evaluate(ages)
        for a, v in zip(ages, vec):
            assert v == pytest.approx(b(float(a)))

    def test_settle_age(self, params8):
        b = BFunction.from_params(params8)
        assert b(b.settle_age) == pytest.approx(b.b0)
        assert b(b.settle_age * 0.99) > b.b0

    def test_negative_age_rejected(self, params8):
        b = BFunction.from_params(params8)
        with pytest.raises(ValueError):
            b(-1.0)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            BFunction(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BFunction(2.0, 1.0, 1.0)  # intercept below floor
        with pytest.raises(ValueError):
            BFunction(1.0, 2.0, 0.0)  # zero slope


class TestGlobalSkewBound:
    def test_theorem_6_9_value(self, params8):
        g = sb.global_skew_bound(params8)
        expected = ((1 + params8.rho) * params8.max_delay
                    + 2 * params8.rho * params8.discovery_bound) * 7
        assert g == pytest.approx(expected)

    def test_override_n(self, params8):
        assert sb.global_skew_bound(params8, n=15) == pytest.approx(
            2.0 * sb.global_skew_bound(params8)
        )

    def test_max_propagation_equals_global(self, params8):
        assert sb.max_propagation_bound(params8) == sb.global_skew_bound(params8)


class TestLocalSkewBounds:
    def test_new_edge_bound_exceeds_global_skew(self, params16):
        # Cor 6.13 at age 0: bound > G(n), so fresh edges are trivially safe.
        assert sb.dynamic_local_skew(params16, 0.0) > sb.global_skew_bound(params16)

    def test_envelope_non_increasing(self, params16):
        ages = np.linspace(0.0, 3 * sb.stabilization_time(params16), 200)
        vals = [sb.dynamic_local_skew(params16, float(a)) for a in ages]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_envelope_converges_to_stable(self, params16):
        t_stab = sb.stabilization_time(params16)
        stable = sb.stable_local_skew(params16)
        assert sb.dynamic_local_skew(params16, t_stab) == pytest.approx(stable)
        assert sb.dynamic_local_skew(params16, 10 * t_stab) == pytest.approx(stable)

    def test_stable_formula(self, params16):
        assert sb.stable_local_skew(params16) == pytest.approx(
            params16.b0 + 2 * params16.rho * params16.w_window
        )

    def test_negative_age_rejected(self, params16):
        with pytest.raises(ValueError):
            sb.dynamic_local_skew(params16, -1.0)


class TestTradeoff:
    def test_stabilization_dominated_by_adaptation(self, params16):
        # For growing n the Theta(n/B0) term dominates stabilization time.
        small = sb.stabilization_time(params16)
        big = sb.stabilization_time(replace(params16, n=16 * 16))
        assert big > 8 * small


class TestLowerBounds:
    def test_masking_floor(self, params8):
        assert sb.masking_skew_floor(params8, 8) == pytest.approx(
            0.25 * params8.max_delay * 8
        )
        with pytest.raises(ValueError):
            sb.masking_skew_floor(params8, -1)

    def test_lb_reduction_time_scales_linearly_in_n(self):
        p1 = SystemParams.for_network(100, b0=60.0)
        p2 = replace(p1, n=200)
        r = sb.lb_reduction_time(p2, stable_skew=50.0) / sb.lb_reduction_time(
            p1, stable_skew=50.0
        )
        assert r == pytest.approx(2.0)


@given(st.floats(min_value=0.0, max_value=1e4))
def test_property_envelope_at_least_stable(age):
    p = SystemParams.for_network(12)
    assert sb.dynamic_local_skew(p, age) >= sb.stable_local_skew(p) - 1e-9


@given(
    st.integers(min_value=2, max_value=500),
    st.floats(min_value=0.001, max_value=0.4),
)
def test_property_global_bound_positive_and_linear(n, rho):
    p = SystemParams.for_network(n, rho=rho)
    g = sb.global_skew_bound(p)
    assert g >= 0.0
    assert g == pytest.approx(p.global_skew_rate * (n - 1))
