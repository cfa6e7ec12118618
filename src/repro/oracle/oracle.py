"""The streaming conformance oracle itself.

:class:`StreamingOracle` consumes the run's one
:class:`~repro.core.batch.Sampler` beside the
:class:`~repro.analysis.recorder.SkewRecorder`, but instead of
accumulating history it feeds each sample to its
:class:`~repro.oracle.monitors.Monitor` set and keeps only O(n) streaming
state.  Its edge monitors and the skew timeline read the run's graph
itself; the oracle's one graph listener, :meth:`StreamingOracle.edge_event`,
only marks their view of it stale.  That makes runs with the recorder
disabled and the oracle enabled memory-bounded regardless of horizon,
which is the whole point: long-horizon, large-n executions become
self-checking.

Use through the harness (serializable config)::

    cfg = ExperimentConfig(..., record=False,
                           oracle=OracleRef("standard", {}))
    result = run_experiment(cfg)
    assert result.oracle_report.ok, result.oracle_report.violations

or standalone on any simulator/graph/node wiring via :meth:`install`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from ..core.batch import PopulationReader, Sampler
from ..network.graph import DynamicGraph
from ..params import SystemParams
from ..sim.simulator import Simulator
from .monitors import (
    MONITOR_FACTORIES,
    EnvelopeMonitor,
    Monitor,
    MonitorSummary,
    Violation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..harness.registry import OracleRef
    from ..obs.timeline import TimelineRecorder
    from ..telemetry.registry import MetricsRegistry
    from ..tracing.context import Tracer

__all__ = ["OracleError", "OracleReport", "StreamingOracle", "resolve_oracle"]


class OracleError(RuntimeError):
    """Raised on oracle misuse (unknown monitor, double install, ...)."""


@dataclass(frozen=True)
class OracleReport:
    """Final verdict of a monitored run.

    ``violations`` holds up to ``max_recorded`` structured records per
    monitor (``violation_count`` counts them all); ``worst_margin`` is the
    minimum slack in skew units across every check of every *bound-type*
    monitor (global skew, estimate lag, envelope).  Floor monitors
    (progress, Lmax dominance) are excluded from the aggregate -- their
    slack is structurally ~0 on any compliant run, which would pin the
    number and hide how close the run came to a real theorem bound; their
    violations still flip ``ok``, and their own margins remain available
    per monitor in :attr:`monitors`.
    """

    ok: bool
    checks: int
    violation_count: int
    violations: tuple[Violation, ...]
    worst_margin: float | None
    monitors: dict[str, MonitorSummary] = field(default_factory=dict)

    def to_metrics(self) -> dict[str, Any]:
        """The flat ``oracle_*`` columns stored per run row.

        Beside the aggregates, each monitor contributes its worst margin
        (``oracle_<name>_worst_margin``) and the sample time at which it
        occurred (``oracle_<name>_worst_margin_time``), so ``repro diff``
        can judge each bound and dashboards can deep-link into the
        captured timeline.
        """
        out: dict[str, Any] = {
            "oracle_ok": self.ok,
            "oracle_checks": self.checks,
            "oracle_violations": self.violation_count,
            "oracle_worst_margin": self.worst_margin,
        }
        for name, summary in sorted(self.monitors.items()):
            out[f"oracle_{name}_worst_margin"] = summary.worst_margin
            out[f"oracle_{name}_worst_margin_time"] = summary.worst_margin_time
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe nested form (run bundles, structured logs)."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "violation_count": self.violation_count,
            "worst_margin": self.worst_margin,
            "monitors": {
                name: s.to_dict() for name, s in sorted(self.monitors.items())
            },
            "violations": [v.to_dict() for v in self.violations],
        }


class StreamingOracle:
    """Online checker of the paper's invariants with O(n) state.

    Parameters
    ----------
    params:
        The run's model parameters (source of every bound).
    monitors:
        Monitor names from
        :data:`~repro.oracle.monitors.MONITOR_FACTORIES`, concrete
        :class:`~repro.oracle.monitors.Monitor` instances, or ``None`` for
        the full set.  Estimate-based monitors require nodes to expose
        ``max_estimate`` (all :class:`~repro.core.node.ClockSyncNode`
        subclasses do).
    interval:
        Sampling period; ``None`` defers to the installer (the harness
        passes the config's ``sample_interval``).
    bound_scale:
        Multiplier on every upper bound -- values below 1 deliberately
        break the bounds (see :mod:`repro.oracle.monitors`).
    tolerance:
        Slack beyond which a breach counts as a violation (matches the
        offline suite's ``1e-9``).
    max_recorded:
        Violation records kept *per monitor*; further violations are
        counted but not stored, keeping memory bounded even on
        pathological runs.
    """

    def __init__(
        self,
        params: SystemParams,
        monitors: Iterable[str | Monitor] | None = None,
        *,
        interval: float | None = None,
        bound_scale: float = 1.0,
        tolerance: float = 1e-9,
        max_recorded: int = 100,
    ) -> None:
        if bound_scale <= 0.0:
            raise OracleError(f"bound_scale must be positive; got {bound_scale!r}")
        if max_recorded < 0:
            raise OracleError(f"max_recorded must be >= 0; got {max_recorded!r}")
        self.params = params
        self.interval = interval
        self.bound_scale = float(bound_scale)
        self.tolerance = float(tolerance)
        self.max_recorded = int(max_recorded)
        self.monitors: list[Monitor] = []
        names = set()
        for m in MONITOR_FACTORIES if monitors is None else monitors:
            monitor = self._resolve(m)
            if monitor.name in names:
                raise OracleError(f"duplicate monitor {monitor.name!r}")
            names.add(monitor.name)
            self.monitors.append(monitor)
        if not self.monitors:
            raise OracleError("an oracle needs at least one monitor")
        self.samples_seen = 0
        self._installed = False
        self._node_ids: list[int] = []
        #: Whether some monitor reads ``Lmax`` (a sample's estimates).
        self.needs_estimates = any(m.requires_estimates for m in self.monitors)
        self._edge_monitors: list[Monitor] = []
        #: The run's graph (a weak proxy), once attach_graph() took it.
        self._graph: DynamicGraph | None = None
        #: The live-edge pass the timeline row takes.
        self._envelope = next(
            (m for m in self.monitors if isinstance(m, EnvelopeMonitor)), None
        )
        #: The joined sampler's reader, for a sample off its schedule (not
        #: the sampler: it holds the simulator, which would outlive the run).
        self._probe: PopulationReader | None = None
        # Span tracer + per-monitor violation counts already anchored
        # (``None`` / unused when causal tracing is off).
        self._tracer: "Tracer | None" = None
        self._anchored: list[int] | None = None
        # Skew-timeline recorder (``None`` when the observatory is off);
        # picked up ambiently at attach time.
        self._timeline: "TimelineRecorder | None" = None

    @staticmethod
    def _resolve(m: str | Monitor) -> Monitor:
        if isinstance(m, Monitor):
            return m
        factory = MONITOR_FACTORIES.get(m)
        if factory is None:
            raise OracleError(
                f"unknown monitor {m!r}; choose from {sorted(MONITOR_FACTORIES)}"
            )
        return factory()

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(
        self,
        nodes: Mapping[int, Any],
        *,
        interval: float | None = None,
    ) -> None:
        """Bind the monitors to a node set without arming any scheduler.

        This is the driver-agnostic half of :meth:`join`: after
        attaching, the owner hands over its graph (:meth:`attach_graph`)
        and calls :meth:`sample` periodically with the columns.  The
        :mod:`repro.live` runtime uses this path to monitor real-time
        asyncio runs with the exact same monitor code as simulations.
        """
        if self._installed:
            raise OracleError("oracle already installed")
        self._installed = True
        if interval is not None:
            self.interval = interval
        if self.interval is None or self.interval <= 0.0:
            raise OracleError(
                f"sampling interval must be positive; got {self.interval!r}"
            )
        self._node_ids = sorted(nodes)
        for monitor in self.monitors:
            monitor.bind(
                self.params,
                self._node_ids,
                bound_scale=self.bound_scale,
                tolerance=self.tolerance,
                max_recorded=self.max_recorded,
            )
        self._edge_monitors = [m for m in self.monitors if m.tracks_edges]
        # Ambient skew-timeline pickup (repro.obs): attach is the one
        # choke point every driver goes through -- the sim runner's
        # install(), the live runtime and standalone wirings all land
        # here -- so a recorder activated by ``--bundle`` hooks every
        # runtime with a single definition.  Imported lazily to keep the
        # oracle importable before repro.obs (and its harness-facing
        # bundle layer) finishes loading.
        if self._timeline is None:
            from ..obs.timeline import active_timeline

            self._timeline = active_timeline()
        if self._timeline is not None:
            self._bind_timeline()

    def _bind_timeline(self) -> None:
        timeline = self._timeline
        assert timeline is not None
        timeline.bind(self._node_ids, self._graph)

    def attach_graph(self, graph: DynamicGraph) -> None:
        """Hand the run's graph to the edge monitors and the timeline.

        They read its history (an edge's age runs from the add that began
        its current episode, ``E_0``'s from ``t = 0``: the recorder's
        episode convention), and :meth:`edge_event`, subscribed here,
        marks their view stale on every mutation.  Shared by both drivers
        so the convention has exactly one definition.

        The monitors borrow the graph through a weak proxy: the graph
        holds this oracle (its listener), and a strong reference back
        would keep the oracle and the node views it reads alive after the
        run until a cyclic collection.  The timeline, which is exported
        after the run, holds it.
        """
        if self._edge_monitors:
            graph.subscribe(self.edge_event)
            self._graph = weakref.proxy(graph)
            for monitor in self._edge_monitors:
                monitor.graph = self._graph
            if self._timeline is not None:
                self._timeline.graph = graph

    def join(
        self,
        sampler: Sampler,
        graph: DynamicGraph,
        nodes: Mapping[int, Any],
        *,
        interval: float | None = None,
        end: float | None = None,
    ) -> None:
        """Ride ``sampler``'s schedule (its owner arms it) and take the
        run's graph (sim driver).  Must be called at ``t = 0``; see
        :meth:`attach_graph` for the edge-age convention."""
        self.attach(nodes, interval=interval)
        self.attach_graph(graph)
        assert self.interval is not None
        self._probe = sampler.read
        sampler.add(self.interval, self.sample, end=end, estimates=self.needs_estimates)

    def install(
        self, sim: Simulator, graph: DynamicGraph, nodes: Mapping[int, Any], **window: float | None
    ) -> None:
        """:meth:`join` (``window``: ``interval``, ``end``) a sampler of its own, and arm it."""
        sampler = Sampler(sim, nodes)
        self.join(sampler, graph, nodes, **window)
        sampler.install()

    def instrument(self, registry: "MetricsRegistry") -> None:
        """Register oracle health as polled readbacks on ``registry``.

        Exposes ``oracle.samples``/``oracle.checks``/``oracle.violations``
        plus one live worst-margin gauge per monitor (``None`` until the
        monitor's first check; ``inf`` readings are normalised to ``None``
        by the snapshot layer).  Reads are racy by design -- the oracle
        remains the only writer of its own state.
        """
        registry.counter_fn("oracle.samples", lambda: self.samples_seen)
        registry.counter_fn(
            "oracle.checks", lambda: sum(m.checks for m in self.monitors)
        )
        registry.counter_fn(
            "oracle.violations",
            lambda: sum(m.violation_count for m in self.monitors),
        )

        def _margin_reader(monitor: Monitor) -> Any:
            return lambda: float(monitor.worst_margin) if monitor.checks else None

        for monitor in self.monitors:
            registry.gauge_fn(
                f"oracle.worst_margin.{monitor.name}", _margin_reader(monitor)
            )

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Anchor future violations in ``tracer``'s span table.

        Each newly recorded :class:`Violation` gets a violation span and
        its ``anchor_span`` id filled in -- the entry point forensics
        walks back from.
        """
        self._tracer = tracer
        self._anchored = [len(m.violations) for m in self.monitors]

    def _anchor_new_violations(self, t: float) -> None:
        """Stamp spans onto violations recorded since the last sample."""
        tracer = self._tracer
        anchored = self._anchored
        assert tracer is not None and anchored is not None
        for idx, monitor in enumerate(self.monitors):
            recorded = monitor.violations
            while anchored[idx] < len(recorded):
                i = anchored[idx]
                v = recorded[i]
                node = v.nodes[0] if v.nodes else -1
                sid = tracer.violation(t, node)
                recorded[i] = replace(v, anchor_span=sid)
                anchored[idx] = i + 1

    def edge_event(self, time: float, u: int, v: int, added: bool) -> None:
        """The graph changed: the edge monitors re-read it at their next
        sample."""
        for monitor in self._edge_monitors:
            monitor.stale = True

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(
        self, t: float, clocks: np.ndarray | None = None, estimates: np.ndarray | None = None
    ) -> None:
        """Check one sample (without columns: read through the joined sampler)."""
        if clocks is None:
            assert self._probe is not None, "no sampler to read from"
            clocks, estimates = self._probe(t, self.needs_estimates)
        for monitor in self.monitors:
            monitor.on_sample(t, clocks, estimates)
        self.samples_seen += 1
        if self._tracer is not None:
            self._anchor_new_violations(t)
        timeline = self._timeline
        if timeline is not None:
            # Reuses the columns and the envelope pass computed above:
            # capture adds zero node reads, draws no RNG and schedules
            # nothing (neutrality is pinned by the golden tests with
            # capture on).
            envelope = self._envelope
            timeline.record(
                t,
                clocks,
                estimates,
                violations=sum(m.violation_count for m in self.monitors),
                envelope=None if envelope is None else envelope.last_pass,
            )

    # ------------------------------------------------------------------ #
    # Verdict
    # ------------------------------------------------------------------ #

    @property
    def ok(self) -> bool:
        """Whether no monitor has seen a violation so far."""
        return all(m.violation_count == 0 for m in self.monitors)

    def report(self) -> OracleReport:
        """Freeze the current monitor state into an :class:`OracleReport`."""
        summaries = {m.name: m.summary() for m in self.monitors}
        violations: list[Violation] = []
        for m in self.monitors:
            violations.extend(m.violations)
        violations.sort(key=lambda v: (v.time, v.monitor))
        margins = [
            float(m.worst_margin)
            for m in self.monitors
            if m.aggregate_margin and m.checks
        ]
        return OracleReport(
            ok=self.ok,
            checks=sum(m.checks for m in self.monitors),
            violation_count=sum(m.violation_count for m in self.monitors),
            violations=tuple(violations),
            worst_margin=min(margins) if margins else None,
            monitors=summaries,
        )


def resolve_oracle(
    ref: "OracleRef | None",
    params: SystemParams,
    seed: int,
    sample_interval: float,
) -> tuple[StreamingOracle | None, float]:
    """A config's ``oracle`` ref as ``(oracle, sampling interval)``.

    The ref is called with an rng derived from ``seed`` out of band --
    never from the run's spawn sequence, whose order shifts every later
    stream: attaching a pure observer must not change the execution it
    observes.  The oracle's own ``interval`` wins over the run's.
    """
    if ref is None:
        return None, sample_interval
    orc: StreamingOracle = ref(params, np.random.default_rng(seed))
    return orc, sample_interval if orc.interval is None else orc.interval
