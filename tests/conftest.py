"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import SystemParams
from repro.harness import registry
from repro.sim.clocks import ConstantRateClock, PiecewiseRateClock

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def _segments(params, rng, horizon, *, segments):
    """Node ``i``'s clock from ``segments[i]``, its ``[t, rate]`` pieces
    (the first at ``t = 0``): one piece is a constant rate, more a
    piecewise one."""
    return registry._seated([
        ConstantRateClock(pieces[0][1]) if len(pieces) == 1
        else PiecewiseRateClock([t for t, _ in pieces], [r for _, r in pieces])
        for pieces in segments
    ], params)


#: Explicit per-node clocks for the tests,
#: ``ClockRef("segments", {"segments": [[[t, rate], ...], ...]})``: the
#: parity rows' drifting and switching clocks, and the drift checks.
registry.CLOCK["segments"] = registry.Ingredient(_segments)


@pytest.fixture
def params8() -> SystemParams:
    """Small validated parameter set (n=8, defaults)."""
    return SystemParams.for_network(8)


@pytest.fixture
def params16() -> SystemParams:
    """Medium validated parameter set (n=16, defaults)."""
    return SystemParams.for_network(16)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy Generator."""
    return np.random.default_rng(12345)
