"""The process-wide metrics registry.

Telemetry here follows the same discipline as tracing
(:func:`repro.tracing.active_tracer`): instrumented code holds an
*instrument-or-None* reference and pays a single ``is not None`` check when
telemetry is off.  The registry itself is **ambient** -- one process-wide
instance, toggled by :meth:`MetricsRegistry.enable` -- and deliberately not
part of :class:`~repro.harness.runner.ExperimentConfig`: the config dict is
the content-address of cached sweep results, and attaching a pure observer
must not change a run's identity any more than it may change its behaviour.

Three instrument kinds:

* :class:`Counter` -- monotone event count (``inc``);
* :class:`Gauge` -- last-written level (``set``);
* :class:`Histogram` -- fixed log-spaced buckets, O(#buckets) memory.

Hot subsystems that already keep their own counters (e.g.
:class:`~repro.network.transport.TransportStats`) do not double-count into
telemetry objects; they register *polled* readbacks
(:meth:`MetricsRegistry.counter_fn` / :meth:`MetricsRegistry.gauge_fn`)
that :meth:`MetricsRegistry.snapshot` evaluates out-of-band.  Polled
registrations overwrite silently -- re-running an experiment in one process
re-registers readbacks bound to the fresh subsystem objects.

Thread-safety: instrument *creation* is lock-guarded; updates are plain
attribute writes (atomic enough under the GIL for monitoring purposes), and
:meth:`snapshot` takes a best-effort racy read -- the sampler thread must
never be able to perturb the run it observes.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "get_registry",
]

#: Default histogram bucket boundaries: log-spaced from 1 microsecond to
#: ~100 s, suitable for latencies/lags in seconds.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(
    10.0**e for e in range(-6, 3)
)


class Counter:
    """A monotonically increasing count (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self.value += amount


class Gauge:
    """A last-write-wins level (``None`` until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value


class Histogram:
    """Fixed-boundary histogram with O(#buckets) state.

    ``bounds`` must be strictly increasing; an observation lands in the
    first bucket whose upper bound is >= the value, with one overflow
    bucket past the last bound (``len(counts) == len(bounds) + 1``).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "max")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS) -> None:
        bs = tuple(float(b) for b in bounds)
        if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError(f"histogram bounds must strictly increase; got {bs!r}")
        self.name = name
        self.bounds = bs
        self.counts = [0] * (len(bs) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        # Linear scan: bucket lists are short (<= ~10) and observations are
        # rare relative to sim events, so this beats bisect's call overhead.
        i = 0
        bounds = self.bounds
        n = len(bounds)
        while i < n and value > bounds[i]:
            i += 1
        self.counts[i] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        """Mean observation, or ``None`` before the first one."""
        return self.total / self.count if self.count else None


def _clean(value: Any) -> float | int | None:
    """Coerce a metric reading to a JSON-safe number (``None`` if not one)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    try:
        f = float(value)  # also collapses numpy scalars
    except (TypeError, ValueError):
        return None
    return f if math.isfinite(f) else None


class MetricsRegistry:
    """Named instruments plus polled readbacks, snapshot-able at any time.

    The registry is usually the process-wide instance from
    :func:`get_registry`; independent instances exist only in tests.
    Instruments are created on first use and shared by name thereafter.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._counter_fns: dict[str, Callable[[], Any]] = {}
        self._gauge_fns: dict[str, Callable[[], Any]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def enable(self) -> None:
        """Turn telemetry on (instrumented code re-checks at wiring time)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn telemetry off; existing instruments keep their state."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every instrument and polled readback (tests, run boundaries)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._counter_fns.clear()
            self._gauge_fns.clear()

    # ------------------------------------------------------------------ #
    # Instrument creation (get-or-create by name)
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, bounds)
            return inst

    # ------------------------------------------------------------------ #
    # Polled readbacks (subsystems that keep their own counters)
    # ------------------------------------------------------------------ #

    def counter_fn(self, name: str, fn: Callable[[], Any]) -> None:
        """Register/overwrite a polled counter readback (monotone values)."""
        with self._lock:
            self._counter_fns[name] = fn

    def gauge_fn(self, name: str, fn: Callable[[], Any]) -> None:
        """Register/overwrite a polled gauge readback (instantaneous level)."""
        with self._lock:
            self._gauge_fns[name] = fn

    # ------------------------------------------------------------------ #
    # Snapshot
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """One JSON-safe reading of every instrument, taken racily.

        Polled readbacks that raise are skipped (a subsystem may already
        be torn down when the final frame is taken); non-finite and
        non-numeric readings become ``None`` for gauges and are dropped
        for counters.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            counter_fns = list(self._counter_fns.items())
            gauge_fns = list(self._gauge_fns.items())
        out_counters: dict[str, float | int] = {}
        for c in counters:
            cleaned = _clean(c.value)
            if cleaned is not None:
                out_counters[c.name] = cleaned
        for name, fn in counter_fns:
            try:
                cleaned = _clean(fn())
            except Exception:
                continue
            if cleaned is not None:
                out_counters[name] = cleaned
        out_gauges: dict[str, float | int | None] = {}
        for g in gauges:
            out_gauges[g.name] = _clean(g.value) if g.value is not None else None
        for name, fn in gauge_fns:
            try:
                out_gauges[name] = _clean(fn())
            except Exception:
                continue
        out_hists: dict[str, dict[str, Any]] = {}
        for h in histograms:
            out_hists[h.name] = {
                "bounds": list(h.bounds),
                "counts": list(h.counts),
                "count": h.count,
                "total": _clean(h.total) or 0.0,
                "max": _clean(h.max) or 0.0,
            }
        return {
            "counters": out_counters,
            "gauges": out_gauges,
            "histograms": out_hists,
        }


#: The process-wide registry (ambient; see module docstring).
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry, enabled or not."""
    return _GLOBAL


def active_registry() -> MetricsRegistry | None:
    """The process-wide registry if telemetry is enabled, else ``None``.

    This is the wiring-time guard: subsystems call it once while being
    built and keep instruments-or-None attributes, so disabled telemetry
    costs one attribute check on hot paths.
    """
    return _GLOBAL if _GLOBAL.enabled else None
