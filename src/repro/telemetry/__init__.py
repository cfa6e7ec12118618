"""Runtime telemetry: metrics registry, flight recorder, sampler, top view.

See ``docs/observability.md`` for the subsystem design.  The short version:

* :func:`~repro.telemetry.registry.get_registry` is the process-wide
  :class:`~repro.telemetry.registry.MetricsRegistry`; instrumented
  subsystems check :func:`~repro.telemetry.registry.active_registry` at
  wiring time and hold instruments-or-``None`` so disabled telemetry costs
  one attribute check.
* :class:`~repro.telemetry.sampler.TelemetrySampler` snapshots the
  registry out-of-band on a background thread -- a neutral observer, like
  the streaming oracle: bit-identical runs with telemetry on or off.
* :class:`~repro.telemetry.flight.FlightRecorder` streams frames as JSONL
  (schema in :mod:`repro.telemetry.schema`); ``repro top`` renders them
  (:mod:`repro.telemetry.top`).
"""

from .flight import FlightRecorder, build_frame
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    get_registry,
)
from .sampler import GcWatcher, TelemetrySampler
from .schema import FRAME_VERSION, FrameError, validate_frame
from .top import follow_frames, read_frames, render_snapshot, render_sweep_dir

__all__ = [
    "FRAME_VERSION",
    "Counter",
    "FlightRecorder",
    "FrameError",
    "Gauge",
    "GcWatcher",
    "Histogram",
    "MetricsRegistry",
    "TelemetrySampler",
    "active_registry",
    "build_frame",
    "follow_frames",
    "get_registry",
    "read_frames",
    "render_snapshot",
    "render_sweep_dir",
    "validate_frame",
]
