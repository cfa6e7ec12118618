"""Tests for hardware clock models: exactness, inversion, drift bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clocks import (
    ConstantRateClock,
    HardwareClock,
    PiecewiseRateClock,
    SteerableClock,
    perfect_clock,
    random_walk_rates,
    validate_drift_columns,
)


def _validate_drift(clock, rho):
    lo, hi = clock.rate_bounds()
    validate_drift_columns(np.array([lo]), np.array([hi]), rho)


class TestConstantRateClock:
    def test_perfect_clock_identity(self):
        c = perfect_clock()
        assert c.value(3.7) == 3.7
        assert c.time_at(3.7) == 3.7

    def test_fast_clock(self):
        c = ConstantRateClock(1.25)
        assert c.value(4.0) == pytest.approx(5.0)
        assert c.time_at(5.0) == pytest.approx(4.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantRateClock(0.0)


class TestPiecewiseRateClock:
    def test_two_segments_exact(self):
        c = PiecewiseRateClock([0.0, 10.0], [2.0, 0.5])
        assert c.value(10.0) == pytest.approx(20.0)
        assert c.value(14.0) == pytest.approx(22.0)
        assert c.time_at(22.0) == pytest.approx(14.0)

    def test_rate_at(self):
        """The rate at ``t`` is the first field of the piece holding it."""
        c = PiecewiseRateClock([0.0, 10.0], [2.0, 0.5])
        assert c.segment_at(5.0) == (2.0, 0.0, 0.0, 10.0, 20.0)
        # The boundary belongs to the new segment.
        assert c.segment_at(10.0) == (0.5, 10.0, 20.0, float("inf"), float("inf"))

    def test_rate_bounds(self):
        c = PiecewiseRateClock([0.0, 1.0, 2.0], [1.1, 0.9, 1.0])
        assert c.rate_bounds() == (0.9, 1.1)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PiecewiseRateClock([1.0], [1.0])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseRateClock([0.0, 5.0, 5.0], [1.0, 1.0, 1.0])

    def test_negative_time_query_rejected(self):
        c = PiecewiseRateClock([0.0], [1.0])
        with pytest.raises(ValueError):
            c.value(-1.0)


class TestChecks:
    """Clock schedules come from configs (``CLOCK["segments"]`` rows, which
    ``conftest.py`` registers): what a clock refuses, and the interface a
    new clock class fills in."""

    @pytest.mark.parametrize(
        "times,rates,message",
        [
            ([0.0, 1.0], [1.0], "equal length"),
            ([], [], "at least one segment"),
            ([0.0, 1.0], [1.0, 0.0], "rates must be positive"),
        ],
    )
    def test_piecewise_schedule_refused(self, times, rates, message):
        with pytest.raises(ValueError, match=message):
            PiecewiseRateClock(times, rates)

    @pytest.mark.parametrize(
        "clock", [PiecewiseRateClock([0.0, 1.0], [1.0, 0.5]), SteerableClock(1.0)],
        ids=["piecewise", "steerable"],
    )
    def test_negative_arguments_refused(self, clock):
        with pytest.raises(ValueError, match="time must be non-negative"):
            clock.value(-1.0)
        with pytest.raises(ValueError, match="clock value must be non-negative"):
            clock.time_at(-1.0)

    def test_constant_rate_at(self):
        assert ConstantRateClock(1.25).segment_at(7.0)[0] == 1.25

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda rng: random_walk_rates(0.1, 10.0, 0.0, rng, 1), "segment and horizon"),
        ],
    )
    def test_builders_refuse_empty_schedules(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(np.random.default_rng(0))

    @pytest.mark.parametrize("method,args", [("value", (0.0,)), ("time_at", (0.0,))])
    def test_the_interface_is_abstract(self, method, args):
        with pytest.raises(NotImplementedError):
            getattr(HardwareClock(), method)(*args)

    def test_reprs_name_the_schedule(self):
        assert repr(ConstantRateClock(1.5)) == "ConstantRateClock(rate=1.5)"
        assert repr(PiecewiseRateClock([0.0, 1.0], [1.0, 0.5])) == (
            "PiecewiseRateClock(segments=2, rates in [0.5, 1])"
        )
        assert repr(SteerableClock(1.0, rho=0.1)) == (
            "SteerableClock(segments=1, rate=1, rho=0.1)"
        )


class TestScheduleBuilders:
    def test_random_walk_within_drift(self, rng):
        times, rates = random_walk_rates(0.03, horizon=100.0, segment=5.0, rng=rng, n=1)
        _validate_drift(PiecewiseRateClock(times, rates[0]), 0.03)

    def test_random_walk_bad_persistence(self, rng):
        with pytest.raises(ValueError):
            random_walk_rates(0.01, horizon=10.0, segment=1.0, rng=rng, n=1, persistence=1.0)

    def test_validate_drift_rejects_violation(self):
        c = ConstantRateClock(1.2)
        with pytest.raises(ValueError, match="drift"):
            _validate_drift(c, 0.1)


@st.composite
def piecewise_clocks(draw):
    """Random admissible piecewise clocks with rho = 0.2."""
    k = draw(st.integers(min_value=1, max_value=8))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
            min_size=k - 1,
            max_size=k - 1,
        )
    )
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    rates = draw(
        st.lists(
            st.floats(min_value=0.8, max_value=1.2, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return PiecewiseRateClock(times, rates)


@given(piecewise_clocks(), st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
def test_property_inverse_round_trip(clock, t):
    """time_at(value(t)) == t for strictly increasing clocks."""
    assert clock.time_at(clock.value(t)) == pytest.approx(t, abs=1e-9)


@given(
    piecewise_clocks(),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_property_drift_bound_on_increments(clock, t1, dt):
    """Increments obey (1-rho) dt <= H(t2) - H(t1) <= (1+rho) dt."""
    rho = 0.2 + 1e-9
    t2 = t1 + dt
    dh = clock.value(t2) - clock.value(t1)
    assert (1 - rho) * dt - 1e-9 <= dh <= (1 + rho) * dt + 1e-9


@given(piecewise_clocks())
def test_property_strictly_increasing(clock):
    ts = np.linspace(0.0, 150.0, 97)
    vals = [clock.value(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
