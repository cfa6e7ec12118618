"""The streaming conformance oracle itself.

:class:`StreamingOracle` is installed on a run exactly like the
:class:`~repro.analysis.recorder.SkewRecorder` -- a periodic
:data:`~repro.sim.events.PRIORITY_SAMPLE` callback plus a graph
subscription -- but instead of accumulating history it feeds each sample to
its :class:`~repro.oracle.monitors.Monitor` set and keeps only O(n)
streaming state.  That makes runs with the recorder disabled and the
oracle enabled memory-bounded regardless of horizon, which is the whole
point: long-horizon, large-n executions become self-checking.

Use through the harness (serializable config)::

    cfg = ExperimentConfig(..., record=False,
                           oracle=OracleRef("standard", {}))
    result = run_experiment(cfg)
    assert result.oracle_report.ok, result.oracle_report.render()

or standalone on any simulator/graph/node wiring via :meth:`install`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from ..core.batch import PopulationReader
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
    from ..network.transport import Transport
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

    def monitor(self, name: str) -> MonitorSummary:
        """Summary of one monitor (raises ``KeyError`` if not installed)."""
        return self.monitors[name]

    def to_metrics(self) -> dict[str, Any]:
        """The flat ``oracle_*`` columns stored per sweep point.

        Beside the aggregates, each monitor contributes the sample time
        at which its worst margin occurred
        (``oracle_<name>_worst_margin_time``) so dashboards and the
        cross-run ledger can deep-link into the captured timeline.
        """
        out: dict[str, Any] = {
            "oracle_ok": self.ok,
            "oracle_checks": self.checks,
            "oracle_violations": self.violation_count,
            "oracle_worst_margin": self.worst_margin,
        }
        for name in sorted(self.monitors):
            out[f"oracle_{name}_worst_margin_time"] = self.monitors[
                name
            ].worst_margin_time
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

    def render(self, *, max_lines: int = 20) -> str:
        """Multi-line human-readable report (CLI output)."""
        verdict = "OK" if self.ok else "VIOLATED"
        lines = [
            f"oracle {verdict}: {self.checks} checks, "
            f"{self.violation_count} violations"
            + (
                f", worst margin {self.worst_margin:.6g}"
                if self.worst_margin is not None
                else ""
            )
        ]
        for name in sorted(self.monitors):
            s = self.monitors[name]
            margin = (
                f"{s.worst_margin:.6g}" if s.worst_margin is not None else "n/a"
            )
            lines.append(
                f"  {name}: {s.checks} checks, {s.violations} violations, "
                f"worst margin {margin}"
            )
        shown = self.violations[:max_lines]
        for v in shown:
            lines.append("  " + v.describe())
        hidden = self.violation_count - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more violations")
        return "\n".join(lines)


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
        self._needs_estimates = any(m.requires_estimates for m in self.monitors)
        self._edge_monitors: list[Monitor] = []
        #: The one live-edge table: the timeline row takes its pass.
        self._envelope = next(
            (m for m in self.monitors if isinstance(m, EnvelopeMonitor)), None
        )
        #: Reads the population's columns at a sample; bound by attach().
        self._read: PopulationReader
        # Span tracer + per-monitor violation counts already anchored
        # (``None`` / unused when causal tracing is off).
        self._tracer: "Tracer | None" = None
        self._anchored: list[int] | None = None
        # Skew-timeline recorder (``None`` when the observatory is off);
        # picked up ambiently at attach time, see ``attach_timeline``.
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

        This is the driver-agnostic half of :meth:`install`: after
        attaching, the owner is responsible for calling :meth:`sample`
        periodically and :meth:`edge_event` on every topology mutation.
        The :mod:`repro.live` runtime uses this path to monitor real-time
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
        self._read = PopulationReader(nodes, estimates=self._needs_estimates)
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

    def attach_timeline(self, timeline: "TimelineRecorder") -> None:
        """Record the skew timeline of this oracle's run into ``timeline``.

        Mirrors :meth:`attach_tracer`: explicit wiring for standalone
        use, while :meth:`attach` picks the ambient recorder up
        automatically.  Binding resets the recorder's captured state
        (last bound run wins -- bundle assembly happens per run).
        """
        self._timeline = timeline
        if self._installed:
            self._bind_timeline()

    def _bind_timeline(self) -> None:
        timeline = self._timeline
        assert timeline is not None
        timeline.bind(self._node_ids)

    def attach_graph(self, graph: DynamicGraph) -> None:
        """Subscribe to graph mutations and seed current edges at age 0.

        Must be called at ``t = 0`` (before any mutation the oracle should
        see); edges already present are seeded as age-0 edges, matching
        the recorder's episode convention.  Shared by both drivers so the
        episode convention has exactly one definition.
        """
        if self._edge_monitors:
            graph.subscribe(self.edge_event)
            edges = list(graph.edges())
            for monitor in self._edge_monitors:
                monitor.seed_edges(edges)
            if self._timeline is not None:
                self._timeline.seed_edges(edges)

    def install(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, Any],
        *,
        interval: float | None = None,
        end: float | None = None,
        transport: "Transport | None" = None,
    ) -> None:
        """Arm periodic sampling and subscribe to graph events (sim driver).

        Must be called at ``t = 0``; see :meth:`attach_graph` for the
        edge-seeding convention.  ``transport`` is the transport whose
        registered nodes are exactly ``nodes``: when its kernel plan holds
        a table, samples read the table's fused columns instead of calling
        each node.
        """
        self.attach(nodes, interval=interval)
        self.attach_graph(graph)
        self._read.transport = transport
        assert self.interval is not None
        sim.every(self.interval, self.sample, end=end)

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
        """Feed one topology mutation to the edge-tracking monitors."""
        for monitor in self._edge_monitors:
            monitor.on_edge_event(time, u, v, added)
        if self._timeline is not None:
            self._timeline.edge_event(time, u, v, added)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, t: float) -> None:
        clocks, estimates = self._read(t)
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
    spec: "StreamingOracle | Callable[..., StreamingOracle] | None",
    params: SystemParams,
    seed: int,
    sample_interval: float,
) -> tuple[StreamingOracle | None, float]:
    """A config's ``oracle`` entry as ``(oracle, sampling interval)``.

    A builder is called with an rng derived from ``seed`` out of band --
    never from the run's spawn sequence, whose order shifts every later
    stream: attaching a pure observer must not change the execution it
    observes.  The oracle's own ``interval`` wins over the run's.
    """
    if spec is None:
        return None, sample_interval
    orc = spec if isinstance(spec, StreamingOracle) else spec(
        params, np.random.default_rng(seed)
    )
    return orc, sample_interval if orc.interval is None else orc.interval
