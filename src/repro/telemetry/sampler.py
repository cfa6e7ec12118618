"""Out-of-band periodic sampling of the metrics registry.

:class:`TelemetrySampler` is a background thread that snapshots the
process-wide registry on a wall-clock cadence and hands each frame to a
sink (typically a :class:`~repro.telemetry.flight.FlightRecorder`).  It is
a **neutral observer** in the same sense as the streaming oracle: it
schedules no simulation events, draws from no run RNG stream, and touches
subsystem state only through racy numeric reads -- so enabling it cannot
perturb event order, skews, jumps or ``events_dispatched`` (the golden-pin
neutrality tests hold it to that).

One frame is always emitted synchronously at :meth:`start` (sequence 0)
and one at :meth:`stop`, so even a run shorter than the sampling interval
produces a first/last pair to diff.

:class:`GcWatcher` piggybacks on :mod:`gc` callbacks to expose collection
counts and pause durations, plus a peak-RSS readback via
:mod:`resource` -- the "is the interpreter itself misbehaving" channel.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable

from .flight import build_frame
from .registry import MetricsRegistry

__all__ = ["GcWatcher", "TelemetrySampler"]

#: Frame sink signature (FlightRecorder instances satisfy it).
FrameSink = Callable[[dict[str, Any]], None]

#: GC pauses are short: microseconds to tens of milliseconds.
_GC_PAUSE_BOUNDS = tuple(10.0**e for e in range(-6, 1))


def _read_max_rss_kb() -> float | None:
    """Peak resident set size in KiB, or ``None`` where unsupported."""
    try:
        import resource
    except ImportError:  # not a POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS; normalise to KiB.
    rss = float(usage.ru_maxrss)
    import sys

    if sys.platform == "darwin":
        rss /= 1024.0
    return rss


class GcWatcher:
    """Feeds cyclic-GC activity into the registry via ``gc.callbacks``.

    Registers ``proc.gc_collections`` (counter), ``proc.gc_pause_s``
    (histogram of per-collection pauses) and a ``proc.max_rss_kb`` polled
    gauge.  The callback itself does two perf-counter reads and two
    attribute writes per collection -- negligible against any collection.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._collections = registry.counter("proc.gc_collections")
        self._pauses = registry.histogram("proc.gc_pause_s", _GC_PAUSE_BOUNDS)
        registry.gauge_fn("proc.max_rss_kb", _read_max_rss_kb)
        self._t0: float | None = None
        self._installed = False

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        elif phase == "stop" and self._t0 is not None:
            self._pauses.observe(time.perf_counter() - self._t0)
            self._collections.inc()
            self._t0 = None

    def install(self) -> None:
        """Hook into ``gc.callbacks`` (idempotent)."""
        if not self._installed:
            gc.callbacks.append(self._on_gc)
            self._installed = True

    def uninstall(self) -> None:
        """Unhook from ``gc.callbacks`` (idempotent)."""
        if self._installed:
            gc.callbacks.remove(self._on_gc)
            self._installed = False


class TelemetrySampler:
    """Background thread emitting registry snapshots as JSONL frames.

    Parameters
    ----------
    registry:
        The registry to snapshot (normally :func:`~repro.telemetry.registry.get_registry`).
    interval:
        Seconds between frames (wall clock).
    sink:
        Optional per-frame callback; ``None`` keeps frames in memory only.
    source:
        Label stamped into every frame (workload name).
    watch_gc:
        Install a :class:`GcWatcher` for the sampler's lifetime.
    keep_frames:
        Retain every frame in :attr:`frames` (tests; first/last are always
        kept regardless).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 0.5,
        sink: FrameSink | None = None,
        source: str = "",
        watch_gc: bool = True,
        keep_frames: bool = False,
    ) -> None:
        if interval <= 0.0:
            raise ValueError(f"interval must be positive; got {interval!r}")
        self.registry = registry
        self.interval = float(interval)
        self.sink = sink
        self.source = source
        self.first_frame: dict[str, Any] | None = None
        self.last_frame: dict[str, Any] | None = None
        self.frames: list[dict[str, Any]] | None = [] if keep_frames else None
        self.frames_emitted = 0
        self._gc_watcher = GcWatcher(registry) if watch_gc else None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0

    # ------------------------------------------------------------------ #

    def _emit(self) -> None:
        frame = build_frame(
            self.registry,
            self.frames_emitted,
            time.monotonic() - self._t0,
            self.source,
        )
        self.frames_emitted += 1
        if self.first_frame is None:
            self.first_frame = frame
        self.last_frame = frame
        if self.frames is not None:
            self.frames.append(frame)
        if self.sink is not None:
            self.sink(frame)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._emit()

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Install watchers, emit frame 0, and start the sampling thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self._gc_watcher is not None:
            self._gc_watcher.install()
        self._t0 = time.monotonic()
        self._emit()
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread, emit the final frame, remove watchers (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        self._emit()
        if self._gc_watcher is not None:
            self._gc_watcher.uninstall()
