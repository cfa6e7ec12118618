"""Hardware clock models with bounded drift.

The paper's model (Section 3.3): every node has a continuous hardware clock
``H_u`` with ``H_u(0) = 0`` whose rate always lies in ``[1 - rho, 1 + rho]``.
Logical clocks, neighbour estimates and subjective timers are all driven off
the hardware clock, so clocks must support two exact queries:

* :meth:`HardwareClock.value` -- ``H(t)`` for real time ``t``;
* :meth:`HardwareClock.time_at` -- the inverse, the real time at which the
  clock reaches a given value (used to arm subjective timers).

All concrete models are piecewise linear (piecewise-constant rate), which is
fully general for our purposes: the adversarial schedules used by the
lower-bound constructions *are* piecewise linear (e.g. the beta execution of
Lemma 4.2 runs a node at rate ``1 + rho`` until its layer's skew target is
reached and at rate ``1`` afterwards), and smooth drift processes are
approximated to arbitrary precision by refining segments.

Schedule builders at the bottom of the module generate the rate profiles
the clock table (``repro.harness.registry.CLOCK``) draws: perfect and a
bounded random walk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

__all__ = [
    "HardwareClock",
    "ConstantRateClock",
    "PiecewiseRateClock",
    "SteerableClock",
    "perfect_clock",
    "random_walk_rates",
    "validate_drift_columns",
]

#: One linear piece of a clock, ``(rate, t0, h0, t1, h1)``: ``H(t) = h0 +
#: rate * (t - t0)`` on ``t0 <= t < t1`` and ``H(t1) = h1`` (both ends
#: ``inf`` on the last piece).  The struct-of-arrays step
#: (:mod:`repro.core.batch`) holds one per node and evaluates it inline.
Segment = tuple[float, float, float, float, float]


def _segment_at(clock: PiecewiseRateClock | SteerableClock, t: float) -> Segment:
    """The piece holding real time ``t``, selected as ``value`` selects it."""
    times, values = clock._times, clock._values
    i = bisect_right(times, t) - 1
    if i + 1 == len(times):
        return clock._rates[i], times[i], values[i], math.inf, math.inf
    return clock._rates[i], times[i], values[i], times[i + 1], values[i + 1]


class HardwareClock:
    """Interface for hardware clocks (``H(0) = 0``, strictly increasing)."""

    __slots__ = ()

    def value(self, t: float) -> float:
        """Return ``H(t)`` for real time ``t >= 0``."""
        raise NotImplementedError

    def time_at(self, h: float) -> float:
        """Return the real time ``t`` with ``H(t) = h`` (``h >= 0``)."""
        raise NotImplementedError


class ConstantRateClock(HardwareClock):
    """A clock running at a fixed rate (rate 1.0 = perfect real time)."""

    __slots__ = ("rate",)

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0.0:
            raise ValueError(f"clock rate must be positive; got {rate!r}")
        self.rate = float(rate)

    def value(self, t: float) -> float:
        return self.rate * t

    def time_at(self, h: float) -> float:
        return h / self.rate

    def segment_at(self, t: float) -> Segment:
        """The single piece ``(rate, 0, 0, inf, inf)``."""
        return self.rate, 0.0, 0.0, math.inf, math.inf

    def rate_bounds(self) -> tuple[float, float]:
        return (self.rate, self.rate)

    def __repr__(self) -> str:
        return f"ConstantRateClock(rate={self.rate!r})"


class PiecewiseRateClock(HardwareClock):
    """A clock with piecewise-constant rate.

    Parameters
    ----------
    times:
        Strictly increasing segment start times; ``times[0]`` must be ``0``.
        The last segment extends to infinity.
    rates:
        Positive rate for each segment (``len(rates) == len(times)``).

    Both :meth:`value` and :meth:`time_at` are exact (no integration error):
    cumulative clock values at segment boundaries are precomputed and the
    query segment is located by binary search, O(log k) per query.
    """

    __slots__ = ("_times", "_rates", "_values", "_hint")

    def __init__(self, times: Sequence[float], rates: Sequence[float]) -> None:
        if len(times) != len(rates):
            raise ValueError("times and rates must have equal length")
        if len(times) == 0:
            raise ValueError("need at least one segment")
        if times[0] != 0.0:
            raise ValueError(f"first segment must start at 0; got {times[0]!r}")
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError("segment times must be strictly increasing")
        for r in rates:
            if r <= 0.0:
                raise ValueError(f"clock rates must be positive; got {r!r}")
        self._times = [float(t) for t in times]
        self._rates = [float(r) for r in rates]
        values = [0.0]
        for i in range(1, len(times)):
            dt = self._times[i] - self._times[i - 1]
            values.append(values[-1] + self._rates[i - 1] * dt)
        self._values = values
        # Last-hit segment index: kernel queries are near-monotone in time,
        # so the previous segment answers most lookups without a bisect.
        self._hint = 0

    def value(self, t: float) -> float:
        if t < 0.0:
            raise ValueError(f"time must be non-negative; got {t!r}")
        times = self._times
        i = self._hint
        if not (times[i] <= t and (i + 1 == len(times) or t < times[i + 1])):
            i = bisect_right(times, t) - 1
            self._hint = i
        return self._values[i] + self._rates[i] * (t - times[i])

    def time_at(self, h: float) -> float:
        if h < 0.0:
            raise ValueError(f"clock value must be non-negative; got {h!r}")
        values = self._values
        i = self._hint
        if not (values[i] <= h and (i + 1 == len(values) or h < values[i + 1])):
            i = bisect_right(values, h) - 1
            self._hint = i
        return self._times[i] + (h - values[i]) / self._rates[i]

    segment_at = _segment_at

    def rate_bounds(self) -> tuple[float, float]:
        return (min(self._rates), max(self._rates))

    def __repr__(self) -> str:
        return (
            f"PiecewiseRateClock(segments={len(self._times)}, "
            f"rates in [{min(self._rates):.4g}, {max(self._rates):.4g}])"
        )


class SteerableClock(HardwareClock):
    """A piecewise-constant-rate clock whose *future* rate is set online.

    Unlike :class:`PiecewiseRateClock`, whose whole schedule is fixed at
    construction, a steerable clock starts at ``initial_rate`` and grows its
    schedule as :meth:`set_rate` is called with non-decreasing times.  This
    is the mechanism adaptive drift adversaries
    (:class:`repro.adversary.drift.DriftAdversary`) use to steer a node's
    hardware rate in reaction to the observed execution.

    When ``rho`` is given, every rate is validated against the drift
    envelope ``[1 - rho, 1 + rho]``.

    Past values never change: ``value``/``time_at`` are exact over the
    segments laid down so far, and :meth:`set_rate` only appends (or
    replaces a zero-length tail segment).  Note that a ``time_at`` answer
    computed *before* a subsequent rate change extrapolates the old tail
    rate -- callers holding timers armed off stale inversions see a bounded
    subjective error of at most ``2 * rho`` per unit of remaining wait (see
    the drift adversary's docstring for why this is acceptable).
    """

    __slots__ = ("_times", "_rates", "_values", "rho", "on_rate_change")

    def __init__(self, initial_rate: float = 1.0, *, rho: float | None = None) -> None:
        self.rho = None if rho is None else float(rho)
        self._check_rate(initial_rate)
        self._times = [0.0]
        self._rates = [float(initial_rate)]
        self._values = [0.0]
        #: Called after every :meth:`set_rate`: the batch table, which
        #: holds a copy of the current segment, re-seats its row here.
        self.on_rate_change: Callable[[], None] | None = None

    def _check_rate(self, rate: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"clock rate must be positive; got {rate!r}")
        if self.rho is not None and not (
            1.0 - self.rho - 1e-12 <= rate <= 1.0 + self.rho + 1e-12
        ):
            raise ValueError(
                f"rate {rate!r} outside drift envelope "
                f"[{1.0 - self.rho:.6g}, {1.0 + self.rho:.6g}]"
            )

    def set_rate(self, t: float, rate: float) -> None:
        """Run at ``rate`` from real time ``t`` on (``t >=`` last change)."""
        self._check_rate(rate)
        last = self._times[-1]
        if t < last:
            raise ValueError(
                f"rate changes must be time-ordered: {t!r} < {last!r}"
            )
        if t == last:
            # Replace the zero-length tail segment.
            self._rates[-1] = float(rate)
        else:
            self._values.append(
                self._values[-1] + self._rates[-1] * (t - last)
            )
            self._times.append(float(t))
            self._rates.append(float(rate))
        if self.on_rate_change is not None:
            self.on_rate_change()

    def value(self, t: float) -> float:
        if t < 0.0:
            raise ValueError(f"time must be non-negative; got {t!r}")
        i = bisect_right(self._times, t) - 1
        return self._values[i] + self._rates[i] * (t - self._times[i])

    def time_at(self, h: float) -> float:
        if h < 0.0:
            raise ValueError(f"clock value must be non-negative; got {h!r}")
        i = bisect_right(self._values, h) - 1
        return self._times[i] + (h - self._values[i]) / self._rates[i]

    segment_at = _segment_at

    def __repr__(self) -> str:
        return (
            f"SteerableClock(segments={len(self._times)}, "
            f"rate={self._rates[-1]:.6g}, rho={self.rho!r})"
        )


# ---------------------------------------------------------------------- #
# Schedule builders
# ---------------------------------------------------------------------- #


def perfect_clock() -> ConstantRateClock:
    """A drift-free clock (rate exactly 1)."""
    return ConstantRateClock(1.0)


def random_walk_rates(
    rho: float,
    horizon: float,
    segment: float,
    rng: np.random.Generator,
    n: int,
    *,
    persistence: float = 0.7,
) -> tuple[list[float], npt.NDArray[np.float64]]:
    """A bounded random-walk rate schedule in ``[1 - rho, 1 + rho]`` for
    ``n`` clocks: the segment start times and an ``(n, k)`` rate array, row
    ``i`` node ``i``'s rates.

    Each row performs an AR(1)-style walk (coefficient ``persistence`` in
    ``[0, 1)``; higher changes the rate more slowly) over segments of
    length ``segment`` until ``horizon``; afterwards the last rate
    persists.  One ``(n, k + 1)`` draw consumes ``rng`` row after row.
    This models oscillator drift that wanders but respects the drift
    bound -- crystal oscillators whose frequency moves with temperature.
    """
    if not (0.0 <= persistence < 1.0):
        raise ValueError(f"persistence must be in [0, 1); got {persistence!r}")
    if segment <= 0.0 or horizon <= 0.0:
        raise ValueError("segment and horizon must be positive")
    k = max(1, int(math.ceil(horizon / segment)))
    times = [i * segment for i in range(k)]
    draws = rng.uniform(-1.0, 1.0, (n, k + 1))
    rates = np.empty((n, k))
    x = draws[:, 0]
    for j in range(k):
        x = persistence * x + (1.0 - persistence) * draws[:, j + 1]
        x = np.minimum(1.0, np.maximum(-1.0, x))
        rates[:, j] = 1.0 + rho * x
    return times, rates


def validate_drift_columns(
    lo: npt.NDArray[np.float64],
    hi: npt.NDArray[np.float64],
    rho: float,
) -> None:
    """Raise ``ValueError`` if clock ``i``'s rate bounds ``lo[i]`` /
    ``hi[i]`` leave ``[1-rho, 1+rho]`` by more than ``1e-12``; the message
    names the first node out of bounds."""
    bad = np.flatnonzero((lo < 1.0 - rho - 1e-12) | (hi > 1.0 + rho + 1e-12))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"node {i}: clock rates [{lo[i]:.6g}, {hi[i]:.6g}] violate the drift bound "
            f"[1-rho, 1+rho] = [{1 - rho:.6g}, {1 + rho:.6g}]"
        )
