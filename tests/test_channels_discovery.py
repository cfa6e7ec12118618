"""Tests for delay policies and discovery policies."""

from __future__ import annotations

import pytest

from repro.network.channels import ConstantDelay, UniformDelay
from repro.network.discovery import ConstantDiscovery, UniformDiscovery


class TestConstantDelay:
    def test_value(self):
        p = ConstantDelay(0.7)
        assert p.delay(0, 1, 10.0) == 0.7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-0.1)


class TestUniformDelay:
    def test_within_range(self, rng):
        p = UniformDelay(0.2, 0.9, rng)
        for _ in range(200):
            d = p.delay(0, 1, 0.0)
            assert 0.2 <= d <= 0.9

    def test_degenerate_range(self, rng):
        p = UniformDelay(0.5, 0.5, rng)
        assert p.delay(0, 1, 0.0) == 0.5

    def test_bad_range_rejected(self, rng):
        with pytest.raises(ValueError):
            UniformDelay(0.9, 0.2, rng)


class TestDiscoveryPolicies:
    def test_constant(self):
        d = ConstantDiscovery(1.5)
        assert d.latency(0, 1, True, 0.0) == 1.5

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDiscovery(-1.0)

    def test_uniform_range(self, rng):
        d = UniformDiscovery(0.5, 2.0, rng)
        for _ in range(100):
            lat = d.latency(0, 1, False, 0.0)
            assert 0.5 <= lat <= 2.0

    def test_uniform_bad_range(self, rng):
        with pytest.raises(ValueError):
            UniformDiscovery(2.0, 0.5, rng)
