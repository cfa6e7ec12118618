"""One-call experiment runner.

:func:`run_experiment` builds a complete execution from an
:class:`ExperimentConfig` -- simulator, dynamic graph, transport, hardware
clocks, algorithm nodes, churn processes, recorder -- runs it to the horizon
and returns a :class:`RunResult` bundling the recorded data with the stats
every benchmark needs.

Construction order matters and is fixed here (see inline comments): the
transport must observe graph mutations only after nodes are registered, and
initial-edge discovery must not double-fire for edges churn processes seed
at ``t = 0``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence, cast

import numpy as np
import numpy.typing as npt

from ..adversary.base import Adversary
from ..analysis.metrics import max_global_skew, max_local_skew
from ..analysis.recorder import RunRecord, SkewRecorder
from ..baselines import FreeRunningNode, MaxSyncNode, StaticGradientNode
from ..core.batch import Decline, NodeArrayTable
from ..core.dcsa import DCSANode
from ..core.node import ClockSyncNode, Population
from ..core.protocol import DCSACore, StaticGradientCore
from ..network.channels import ConstantDelay, DelayPolicy, UniformDelay
from ..network.churn import ChurnProcess, ScriptedChurn
from ..network.discovery import ConstantDiscovery, DiscoveryPolicy, UniformDiscovery
from ..network.graph import DynamicGraph
from ..network.transport import Transport
from ..oracle.oracle import OracleReport, StreamingOracle, resolve_oracle
from ..params import SystemParams
from ..sim.clocks import (
    ConstantRateClock,
    HardwareClock,
    PiecewiseRateClock,
    random_walk_rates,
    validate_drift,
    validate_drift_columns,
)
from ..sim.rng import RngFactory
from ..sim.simulator import Simulator
from ..telemetry.registry import active_registry
from ..tracing.context import Tracer, active_tracer
from ..tracing.spans import SpanTable
from .registry import (
    RUNTIME_BUILDERS,
    AdversaryRef,
    ChurnRef,
    OracleRef,
    RuntimeRef,
    SerializationError,
    jsonify,
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "RunResult",
    "build_experiment",
    "run_experiment",
]

Edge = tuple[int, int]

#: Algorithm registry: name -> node class.
ALGORITHMS: dict[str, type[ClockSyncNode]] = {
    "dcsa": DCSANode,
    "max": MaxSyncNode,
    "static": StaticGradientNode,
    "free": FreeRunningNode,
}

ClockSpec = str | Callable[[int, SystemParams, np.random.Generator, float], HardwareClock]
DelaySpec = str | Callable[[SystemParams, np.random.Generator], DelayPolicy]
DiscoverySpec = str | Callable[[SystemParams, np.random.Generator], DiscoveryPolicy]
ChurnBuilder = Callable[[SystemParams, np.random.Generator], ChurnProcess]
AdversaryBuilder = Callable[[SystemParams, np.random.Generator], Adversary]
OracleBuilder = Callable[[SystemParams, np.random.Generator], StreamingOracle]


def _ref_entry(
    value: Any,
    ref_cls: Any,
    base: type,
    noun: str,
    *,
    instance: str | None = None,
    hint: str = "",
) -> Any:
    """``to_dict`` form of a ``ref_cls`` config ingredient.

    Anything else -- a concrete ``base`` instance or a raw builder
    callable -- has no plain-data form and raises, naming the registry.
    """
    if isinstance(value, ref_cls):
        return value.to_dict()
    what = (
        f"{instance or noun} {type(value).__name__}"
        if isinstance(value, base)
        else f"{noun} builder callable {getattr(value, '__name__', value)!r}"
    )
    raise SerializationError(
        f"cannot serialize {what}; register a factory in "
        f"repro.harness.registry.{noun.upper()}_BUILDERS (via "
        f"@register_{noun}(name)) and reference it as "
        f"{ref_cls.__name__}(name, kwargs).{hint}"
    )


def _ref_from_entry(entry: Mapping[str, Any] | None, ref_cls: Any, noun: str) -> Any:
    """Inverse of :func:`_ref_entry` (``None`` passes through)."""
    if entry is None:
        return None
    if entry.get("kind") != "ref":
        raise ValueError(f"unknown {noun} entry kind {entry.get('kind')!r}")
    return ref_cls.from_dict(entry)


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    Attributes
    ----------
    params:
        Model parameters (defines ``n``).
    initial_edges:
        ``E_0``; must reference node ids below ``params.n``.
    algorithm:
        Key into :data:`ALGORITHMS` (``"dcsa"``, ``"max"``, ``"static"``,
        ``"free"``).
    clock_spec:
        Hardware clock assignment.  Strings: ``"perfect"``,
        ``"random_walk"`` (bounded AR(1) drift), ``"split"`` (first half
        ``1+rho``, second half ``1-rho``), ``"alternating"`` (odd/even),
        ``"uniform"`` (constant rate drawn uniformly from the envelope per
        node); or a callable ``(node_id, params, rng, horizon) -> clock``.
    delay_spec:
        ``"uniform"`` ([0, T] i.i.d.), ``"max"`` (always T), ``"zero"``,
        ``"half"`` (T/2); or a callable ``(params, rng) -> DelayPolicy``.
    discovery_spec:
        ``"uniform"`` ([0, D] i.i.d.), ``"max"`` (always D), ``"zero"``;
        or a callable ``(params, rng) -> DiscoveryPolicy``.
    churn:
        Concrete :class:`ChurnProcess` instances and/or builders
        ``(params, rng) -> ChurnProcess``.
    adversary:
        Optional adaptive adversary (see :mod:`repro.adversary`): a
        concrete :class:`~repro.adversary.base.Adversary` or a builder
        ``(params, rng) -> Adversary`` -- use
        :class:`~repro.harness.registry.AdversaryRef` for serializable
        configs.  Installed at ``t = 0`` after churn, before nodes start.
    horizon:
        Run length (real time).
    sample_interval:
        Recorder period.
    seed:
        Root seed for all random streams.
    track_edges / track_max_estimates:
        Recorder options (see :class:`~repro.analysis.recorder.SkewRecorder`).
    stagger_ticks:
        Randomise each node's first tick within one tick interval.
    record:
        Install the :class:`~repro.analysis.recorder.SkewRecorder`.
        Disable for long-horizon runs whose O(samples x n) history would
        not fit in memory -- typically together with ``oracle`` so the run
        stays checked; ``RunResult.record`` is then an empty record.
    oracle:
        Optional streaming conformance oracle (see :mod:`repro.oracle`):
        a concrete :class:`~repro.oracle.oracle.StreamingOracle` or a
        builder ``(params, rng) -> StreamingOracle`` -- use
        :class:`~repro.harness.registry.OracleRef` for serializable
        configs.  Installed at ``t = 0`` alongside the recorder; its
        sampling interval defaults to ``sample_interval``; the final
        report lands in ``RunResult.oracle_report``.
    runtime:
        How to execute the run: ``"sim"`` (default; the discrete-event
        kernel, deterministic and bit-stable) or a
        :class:`~repro.harness.registry.RuntimeRef` -- e.g.
        ``RuntimeRef("live", {"channel": "loopback"})`` to drive the same
        protocol cores on a real asyncio loop (:mod:`repro.live`), where
        ``horizon`` is interpreted as wall-clock seconds.  A bare string
        resolves against
        :data:`~repro.harness.registry.RUNTIME_BUILDERS`.
    name:
        Label carried into reports.
    """

    params: SystemParams
    initial_edges: Sequence[Edge]
    algorithm: str = "dcsa"
    clock_spec: ClockSpec = "random_walk"
    delay_spec: DelaySpec = "uniform"
    discovery_spec: DiscoverySpec = "uniform"
    churn: Sequence[ChurnProcess | ChurnBuilder] = field(default_factory=list)
    adversary: Adversary | AdversaryBuilder | None = None
    horizon: float = 200.0
    sample_interval: float = 1.0
    seed: int = 0
    track_edges: bool = True
    track_max_estimates: bool = False
    stagger_ticks: bool = True
    record: bool = True
    oracle: StreamingOracle | OracleBuilder | None = None
    runtime: str | RuntimeRef = "sim"
    name: str = ""

    # ------------------------------------------------------------------ #
    # Serialization (see repro.harness.registry for the callable story)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-safe dict that round-trips via :meth:`from_dict`.

        The dict is the config's *identity* for content-addressed caching
        (:mod:`repro.sweep.store`), so every ingredient must be plain data:
        spec strings stay strings, churn entries must be
        :class:`~repro.harness.registry.ChurnRef` or
        :class:`~repro.network.churn.ScriptedChurn`.  Raw callables raise
        :class:`~repro.harness.registry.SerializationError` pointing at the
        registry to use instead.
        """
        churn_entries: list[dict[str, Any]] = []
        for proc in self.churn:
            if isinstance(proc, ScriptedChurn):
                churn_entries.append(
                    {"kind": "scripted", "events": jsonify(proc.events)}
                )
            else:
                churn_entries.append(
                    _ref_entry(
                        proc, ChurnRef, ChurnProcess, "churn",
                        instance="churn process",
                        hint=" ScriptedChurn and ChurnRef entries serialize directly.",
                    )
                )
        oracle_entry = (
            None
            if self.oracle is None
            else _ref_entry(self.oracle, OracleRef, StreamingOracle, "oracle")
        )
        adversary_entry = (
            None
            if self.adversary is None
            else _ref_entry(self.adversary, AdversaryRef, Adversary, "adversary")
        )
        if isinstance(self.runtime, str):
            runtime_entry: Any = self.runtime
        elif isinstance(self.runtime, RuntimeRef):
            runtime_entry = self.runtime.to_dict()
        else:
            raise SerializationError(
                f"cannot serialize runtime {self.runtime!r}; use a registered "
                "runtime name or RuntimeRef(name, kwargs)"
            )
        return {
            "params": self.params.to_dict(),
            "initial_edges": [[int(u), int(v)] for u, v in self.initial_edges],
            "algorithm": self.algorithm,
            "clock_spec": _spec_name(
                self.clock_spec, "clock_spec",
                "perfect, random_walk, split, alternating, uniform",
            ),
            "delay_spec": _spec_name(
                self.delay_spec, "delay_spec", "uniform, max, half, zero"
            ),
            "discovery_spec": _spec_name(
                self.discovery_spec, "discovery_spec", "uniform, max, zero"
            ),
            "churn": churn_entries,
            "adversary": adversary_entry,
            "horizon": float(self.horizon),
            "sample_interval": float(self.sample_interval),
            "seed": int(self.seed),
            "track_edges": bool(self.track_edges),
            "track_max_estimates": bool(self.track_max_estimates),
            "stagger_ticks": bool(self.stagger_ticks),
            "record": bool(self.record),
            "oracle": oracle_entry,
            "runtime": runtime_entry,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        params = SystemParams.from_dict(data.pop("params"))
        initial_edges = [(int(u), int(v)) for u, v in data.pop("initial_edges")]
        churn: list[ChurnProcess | ChurnBuilder] = []
        for entry in data.pop("churn", []):
            kind = entry.get("kind")
            if kind == "ref":
                churn.append(ChurnRef.from_dict(entry))
            elif kind == "scripted":
                churn.append(
                    ScriptedChurn(
                        [
                            (float(t), str(op), int(u), int(v))
                            for t, op, u, v in entry["events"]
                        ]
                    )
                )
            else:
                raise ValueError(f"unknown churn entry kind {kind!r}")
        adversary = _ref_from_entry(
            data.pop("adversary", None), AdversaryRef, "adversary"
        )
        oracle = _ref_from_entry(data.pop("oracle", None), OracleRef, "oracle")
        runtime: str | RuntimeRef = "sim"
        runtime_entry = data.pop("runtime", "sim")
        if isinstance(runtime_entry, str):
            runtime = runtime_entry
        elif isinstance(runtime_entry, Mapping) and runtime_entry.get("kind") == "ref":
            runtime = RuntimeRef.from_dict(runtime_entry)
        else:
            raise ValueError(f"unknown runtime entry {runtime_entry!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields: {unknown}")
        return cls(
            params=params,
            initial_edges=initial_edges,
            churn=churn,
            adversary=adversary,
            oracle=oracle,
            runtime=runtime,
            **data,
        )


@dataclass
class RunResult:
    """Everything a finished run produced."""

    config: ExperimentConfig
    record: RunRecord
    graph: DynamicGraph
    #: The nodes by id: drivers, or -- an untouched node of a column
    #: population -- a :class:`~repro.core.node.NodeRow` reading its row.
    nodes: Mapping[int, Any]
    transport_stats: dict[str, int]
    events_dispatched: int
    oracle_report: OracleReport | None = None
    #: Causal span table (``None`` unless tracing was active for the run).
    spans: SpanTable | None = None
    #: Forensic cause reports, filled by ``repro.tracing.explain_result``.
    cause_reports: list[Any] = field(default_factory=list)
    #: Every fast path the run's kernel plan declined (see
    #: :func:`repro.core.batch.kernel_plan`; a ``"par"`` run that fell back
    #: to one process adds its ``shards`` entry).  A live run has no plan.
    declines: tuple[Decline, ...] = ()
    #: How many of ``events_dispatched`` the plan's table executed, on its
    #: array lane (bursts and tick groups as numpy passes) and its scalar
    #: lane (singletons, small runs and what the array lane handed over):
    #: the rest went through ``handle()`` or were not node events at all
    #: (``non_node_events``: callbacks, samples, topology mutations).
    #: ``blocked_rows`` counts the deliveries that left ``Lmax > L`` and
    #: scanned Gamma: over ``transport_stats["delivered"]``, how much of
    #: the run the gradient constraint could bind at all.
    array_lane_events: int = 0
    scalar_lane_events: int = 0
    blocked_rows: int = 0
    non_node_events: int = 0
    #: Shard count for a genuinely sharded run (``None`` otherwise).
    par_shards: int | None = None
    #: The :class:`~repro.live.runtime.LiveRunResult` behind a ``"live"``
    #: run (``None`` otherwise): what it cost the host is ``live.cost()``.
    live: Any = None
    #: Host seconds :class:`Experiment`'s constructor took (``None`` for
    #: live and sharded runs, which wire elsewhere).
    setup_s: float | None = None
    #: Host seconds of the run's start: deciding the kernel plan and
    #: building its table (``None`` where ``setup_s`` is).
    plan_s: float | None = None
    #: Node objects (drivers) built by the time the run returned: the
    #: touched nodes of a column population, every node of any other
    #: (``None`` where ``setup_s`` is).
    materialised_nodes: int | None = None

    @property
    def params(self) -> SystemParams:
        """The run's model parameters."""
        return self.config.params

    def _declined(self, path: str) -> str | None:
        return next((d.reason for d in self.declines if d.path == path), None)

    @property
    def array_events(self) -> int:
        """Events the plan's table executed, on either lane."""
        return self.array_lane_events + self.scalar_lane_events

    @property
    def batch_gate_reason(self) -> str | None:
        """Why the array step declined; ``None`` iff it engaged (sim, par)."""
        return self._declined("array_step")

    @property
    def par_fallback_reason(self) -> str | None:
        """Why a ``"par"`` run fell back to the serial backend, or ``None``
        when it was serial by construction or genuinely sharded."""
        return self._declined("shards")

    @property
    def max_global_skew(self) -> float:
        """Peak global skew over the run."""
        return max_global_skew(self.record)

    @property
    def max_local_skew(self) -> float:
        """Peak skew across any live edge (requires ``track_edges``)."""
        return max_local_skew(self.record)

    def total_jumps(self) -> int:
        """Total discrete clock jumps across all nodes."""
        store = getattr(self.nodes, "store", None)
        if store is not None:  # a column population: its jumps column
            return int(store.np.jumps[store.ids.start : store.ids.stop].sum())
        return sum(node.jumps for node in self.nodes.values())

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        p = self.params
        lines = [
            f"run '{self.config.name or self.config.algorithm}': "
            f"n={p.n} algo={self.config.algorithm} horizon={self.config.horizon}",
        ]
        if self.config.record:
            lines.append(
                f"  global skew: {self.max_global_skew:.3f}  "
                f"(G(n) = {p.global_skew_bound:.3f})"
            )
        else:
            lines.append(
                f"  global skew: not recorded  (G(n) = {p.global_skew_bound:.3f})"
            )
        if self.config.track_edges and self.config.record:
            lines.append(f"  max edge skew: {self.max_local_skew:.3f}")
        if self.oracle_report is not None:
            rep = self.oracle_report
            lines.append(
                f"  oracle: {'OK' if rep.ok else 'VIOLATED'} "
                f"({rep.checks} checks, {rep.violation_count} violations)"
            )
            # Capped buffers must never be silently lossy: say when the
            # per-monitor violation store truncated records.
            truncated = rep.violation_count - len(rep.violations)
            if truncated > 0:
                lines.append(
                    f"  oracle violations truncated: {truncated} not recorded "
                    f"(max_recorded cap)"
                )
        if self.spans is not None and self.spans.dropped > 0:
            lines.append(
                f"  spans dropped: {self.spans.dropped} "
                f"(capacity {self.spans.capacity})"
            )
        lines.extend(f"  {d.describe()}" for d in self.declines)
        if self.array_events:
            lines.append(
                f"  array step: {self.array_events:,} / "
                f"{self.events_dispatched:,} events "
                f"({self.array_lane_events:,} on the array lane, "
                f"{self.blocked_rows:,} blocked rows)"
            )
        if self.par_shards is not None:
            lines.append(f"  parallel backend: {self.par_shards} shards")
        if self.live is not None:
            lines.append(self.live.cost_line())
        lines.append(
            f"  events: {self.events_dispatched}  messages: "
            f"{self.transport_stats['sent']} sent / "
            f"{self.transport_stats['delivered']} delivered  "
            f"jumps: {self.total_jumps()}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Spec resolution
# ---------------------------------------------------------------------- #


def _spec_name(spec: Any, field_name: str, built_in: str) -> str:
    if isinstance(spec, str):
        return spec
    raise SerializationError(
        f"{field_name} callables cannot be serialized; use one of the "
        f"built-in spec strings: {built_in}"
    )


def _draw_clocks(
    spec: ClockSpec,
    params: SystemParams,
    rng: np.random.Generator,
    horizon: float,
) -> tuple[npt.NDArray[np.float64] | None, list[HardwareClock | None]]:
    """Every node's hardware clock, in id order, as the ``rate`` column of
    a constant-rate built-in spec (no clock objects: ``[None] * n``), a
    ``random_walk``'s first-piece rates and its clocks, or -- a callable
    spec -- ``(None, clocks)``.  A built-in spec draws ``rng`` as one
    call per node would, in id order, with one vector call."""
    n = params.n
    rho = params.rho
    if callable(spec):
        clocks: list[HardwareClock | None] = []
        for i in range(n):
            clock = spec(i, params, rng, horizon)
            validate_drift(clock, rho)
            clocks.append(clock)
        return None, clocks
    ids = np.arange(n)
    if spec == "random_walk":
        segment = max(horizon / 20.0, 4.0 * params.tick_interval)
        times, walk = random_walk_rates(rho, horizon, segment, rng, n)
        validate_drift_columns(walk.min(axis=1), walk.max(axis=1), rho)
        return walk[:, 0].copy(), [PiecewiseRateClock(times, row) for row in walk]
    if spec == "perfect":
        rates = np.ones(n)
    elif spec == "split":
        rates = np.where(ids < n // 2, 1.0 + rho, 1.0 - rho)
    elif spec == "alternating":
        rates = np.where(ids % 2 == 0, 1.0 + rho, 1.0 - rho)
    elif spec == "uniform":
        rates = 1.0 + rho * rng.uniform(-1.0, 1.0, n)
    else:
        raise ValueError(f"unknown clock spec {spec!r}")
    validate_drift_columns(rates, rates, rho)
    return rates, [None] * n


def _make_delay(
    spec: DelaySpec, params: SystemParams, rng: np.random.Generator
) -> DelayPolicy:
    if callable(spec):
        return spec(params, rng)
    if spec == "uniform":
        return UniformDelay(0.0, params.max_delay, rng)
    if spec == "max":
        return ConstantDelay(params.max_delay)
    if spec == "half":
        return ConstantDelay(0.5 * params.max_delay)
    if spec == "zero":
        return ConstantDelay(0.0)
    raise ValueError(f"unknown delay spec {spec!r}")


def _make_discovery(
    spec: DiscoverySpec, params: SystemParams, rng: np.random.Generator
) -> DiscoveryPolicy:
    if callable(spec):
        return spec(params, rng)
    if spec == "uniform":
        return UniformDiscovery(0.0, params.discovery_bound, rng)
    if spec == "max":
        return ConstantDiscovery(params.discovery_bound)
    if spec == "zero":
        return ConstantDiscovery(0.0)
    raise ValueError(f"unknown discovery spec {spec!r}")


def _draw_staggers(
    node_cls: type[ClockSyncNode], cfg: ExperimentConfig, rng: np.random.Generator
) -> npt.NDArray[np.float64] | None:
    """Every ticking node's first-tick offset, in id order: one draw per
    node when ``cfg.stagger_ticks``, else zeros (``None``: the algorithm
    never ticks)."""
    n = cfg.params.n
    if node_cls is FreeRunningNode:
        return None
    if not cfg.stagger_ticks:
        return np.zeros(n)
    return rng.uniform(0.0, cfg.params.tick_interval, n)


# ---------------------------------------------------------------------- #
# Building and running
# ---------------------------------------------------------------------- #


class Experiment:
    """A fully wired, not-yet-run execution (exposed for tests).

    ``shard`` is the seam of the parallel backend (:mod:`repro.sim.par`),
    not reachable from config, CLI or environment: a transport factory
    called like :class:`Transport` and the id range whose nodes this
    replica constructs.  Everything else -- graph, every node's clock
    draw, churn -- is wired for the full population, so shared randomness
    is bitwise identical across shard counts.

    **Set-up is one pass** (docs/performance.md, "Set-up"): the cyclic
    collector is paused, the graph fills E_0 in one loop, clocks and
    first-tick offsets are drawn as columns (one vector call per stream),
    a constant discovery latency announces E_0 as one wave record, and a
    population the table will run is its store's columns from here on
    (:class:`~repro.core.node.Population`: no driver, core, clock or timer
    dict until something touches a node; its first ticks are records by
    node id) -- each in its per-record order (``initial_edges``,
    ``graph.edges()``, node id), so every digest holds.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        *,
        shard: tuple[Callable[..., Transport], range] | None = None,
    ) -> None:
        # Paused as for the event loop (see :meth:`run`): nothing built
        # here is garbage, so a collection only re-traverses a growing
        # heap.  A collector the caller already disabled stays disabled.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            self._wire(cfg, shard)
        finally:
            if gc_was_enabled:
                gc.enable()
        #: Host seconds the wiring took (``RunResult.setup_s``).
        self.setup_s = time.perf_counter() - t0

    def _wire(
        self,
        cfg: ExperimentConfig,
        shard: tuple[Callable[..., Transport], range] | None,
    ) -> None:
        cfg.params.validate()
        runtime_name = (
            cfg.runtime if isinstance(cfg.runtime, str) else cfg.runtime.name
        )
        if runtime_name != "sim":
            raise ValueError(
                f"Experiment wires the 'sim' runtime only; config asks for "
                f"{runtime_name!r} -- dispatch through run_experiment() instead"
            )
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {cfg.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        self.cfg = cfg
        params = cfg.params
        make_transport, local = shard or (Transport, range(params.n))
        rngf = RngFactory(cfg.seed)
        self.sim = Simulator()
        # 1. Graph with E_0 (no listeners yet, so no discovery is emitted).
        self.graph = DynamicGraph(range(params.n), cfg.initial_edges)
        # 2. Transport subscribes to graph events.
        self.transport = make_transport(
            self.sim,
            self.graph,
            delay_policy=_make_delay(cfg.delay_spec, params, rngf.spawn("delay")),
            discovery_policy=_make_discovery(
                cfg.discovery_spec, params, rngf.spawn("discovery")
            ),
            max_delay=params.max_delay,
            discovery_bound=params.discovery_bound,
        )
        # 3. Nodes (registered before any churn can mutate the graph).  The
        #    clock and stagger draws cover every id, local or not, so the
        #    streams stay aligned across shard counts.
        node_cls = ALGORITHMS[cfg.algorithm]
        rates, clocks = _draw_clocks(
            cfg.clock_spec, params, rngf.spawn("clocks"), cfg.horizon
        )
        stagger = _draw_staggers(node_cls, cfg, rngf.spawn("stagger"))
        core_cls = node_cls.core_class
        self._store: NodeArrayTable | None = None
        self.nodes: Mapping[int, ClockSyncNode]
        if (
            shard is None
            and self.sim.batch
            and rates is not None
            and core_cls in (DCSACore, StaticGradientCore)
        ):
            # A column population: the table's store from here on, and a
            # driver only for a node something touches.
            assert core_cls is not None and stagger is not None
            core = core_cls(0, params)
            self._store = NodeArrayTable(
                self.sim, self.transport, local, core, clocks, rates
            )
            self.nodes = Population(
                node_cls, self.sim, self.transport, self._store, core, stagger
            )
            self.transport.register_population(self.nodes)
        else:
            nodes: dict[int, ClockSyncNode] = {}
            for i in local:
                clock = clocks[i] or ConstantRateClock(rates[i])  # type: ignore[index]
                kwargs = {} if stagger is None else {"tick_stagger": float(stagger[i])}
                node = nodes[i] = node_cls(i, self.sim, clock, self.transport, params, **kwargs)
                self.transport.register_node(i, node)
            self.nodes = nodes
        # 4. Recorder (subscribes to graph for edge episodes); skipped for
        #    unbounded-horizon runs that rely on the streaming oracle.
        self.recorder: SkewRecorder | None = None
        if cfg.record:
            self.recorder = SkewRecorder(
                self.sim,
                self.graph,
                self.nodes,
                cfg.sample_interval,
                track_edges=cfg.track_edges,
                track_max_estimates=cfg.track_max_estimates,
                end=cfg.horizon,
                transport=self.transport,
            )
            self.recorder.install()
        # 4b. Streaming oracle (same vantage point as the recorder: it must
        #     subscribe before churn seeds extra t=0 edges).  Its rng is
        #     derived out of band, NOT via rngf.spawn (see resolve_oracle).
        self.oracle, interval = resolve_oracle(
            cfg.oracle, params, cfg.seed, cfg.sample_interval
        )
        if self.oracle is not None:
            self.oracle.install(
                self.sim, self.graph, self.nodes,
                interval=interval, end=cfg.horizon, transport=self.transport,
            )
        # 5. Announce E_0 *before* churn seeds extra t=0 edges (those get
        #    their discover events from the graph-event path instead).
        self.transport.announce_initial_edges()
        churn_rng = rngf.spawn("churn")
        for proc in cfg.churn:
            if isinstance(proc, ChurnProcess):
                proc.install(self.sim, self.graph)
            else:
                proc(params, churn_rng).install(self.sim, self.graph)
        # 6. Adversary (still t = 0: clocks may be swapped, no timers armed
        #    yet, and churn-seeded edges are already visible to observe).
        self.adversary: Adversary | None = None
        if cfg.adversary is not None:
            adversary_rng = rngf.spawn("adversary")
            adv = cfg.adversary
            if not isinstance(adv, Adversary):
                adv = adv(params, adversary_rng)
            adv.install(self.sim, self.graph, self.nodes)
            self.adversary = adv
        # 6b. Causal tracing (ambient, like telemetry below: never part of
        #     the config dict).  Must attach BEFORE nodes start: Start()
        #     dispatches emit sends at t=0, and every flight span's id is
        #     carried on its delivery record, so the tracer has to see the
        #     send that schedules it.  Hooks draw no RNG and schedule
        #     nothing, so traced runs stay bit-identical (the neutrality
        #     tests pin this).
        self.tracer: Tracer | None = active_tracer()
        if self.tracer is not None:
            self.transport.attach_tracer(self.tracer)
            if self.oracle is not None:
                self.oracle.attach_tracer(self.tracer)
        # 7. Start node activity (id order: the first ticks' queue order).
        #    A column population's first deadlines are one column, as each
        #    ``start()`` would arm them (a touched node's clock may have
        #    been swapped: it asks its own).
        if self._store is None:
            for node in self.nodes.values():
                node.start()
        else:
            assert stagger is not None
            col = self._store.np  # every row's segment starts at H(0) = 0
            fires = stagger / col.rate
            for i in np.flatnonzero(stagger >= col.h1).tolist():
                fires[i] = clocks[i].time_at(stagger[i])  # type: ignore[union-attr]
            for node in cast(Population, self.nodes).touched():
                i = node.node_id
                fires[i] = max(node.clock.time_at(node.clock.value(0.0) + stagger[i]), 0.0)
            self._store.arm_ticks(fires.tolist())
        # 8. Telemetry (ambient, not config: the config dict is the cache
        #    identity and a pure observer must not change it).  Polled
        #    readbacks only -- instrumenting schedules nothing and draws
        #    no RNG, so runs stay bit-identical with telemetry enabled.
        telemetry = active_registry()
        if telemetry is not None:
            nodes = self.nodes
            telemetry.gauge_fn(  # drivers built so far (see RunResult)
                "kernel.materialised_nodes",
                lambda: getattr(nodes, "materialised", len(nodes)),
            )
            self.sim.instrument(telemetry)
            self.transport.instrument(telemetry)
            if self.oracle is not None:
                self.oracle.instrument(telemetry)
            if self.tracer is not None:
                self.tracer.instrument(telemetry)

    @property
    def node_list(self) -> list[ClockSyncNode]:
        """The drivers in id order (reading it touches every node)."""
        return [self.nodes[i] for i in sorted(self.nodes)]

    def run(self) -> RunResult:
        """Run to the horizon and package the results.

        The cyclic garbage collector is paused for the duration of the
        event loop: the kernel's hot path allocates no reference cycles
        (typed records are pooled, effects are acyclic value objects), so
        generational collections only add pauses proportional to the live
        heap.  The collector is restored -- and a collection triggered --
        on exit, even on error.  Pausing comes before any allocation: the
        still-young population is left to that one collection.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.sim.run_until(self.cfg.horizon)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        if self.tracer is not None:
            # Patch the optimistically-closed spans of messages the
            # horizon caught mid-flight (O(pending queue), not O(spans)).
            self.transport.finalize_tracing()
        lanes = self.transport.lane_counts()
        nodes = self.nodes
        materialised = len(nodes)
        if isinstance(nodes, Population):
            materialised = nodes.materialised
            nodes = nodes.readers()
        return RunResult(
            config=self.cfg,
            record=(
                self.recorder.result()
                if self.recorder is not None
                else RunRecord.empty(self.nodes)
            ),
            graph=self.graph,
            nodes=nodes,
            transport_stats=self.transport.stats.as_dict(),
            events_dispatched=self.sim.events_dispatched,
            oracle_report=self.oracle.report() if self.oracle is not None else None,
            spans=self.tracer.table if self.tracer is not None else None,
            declines=self.transport.plan.declines,
            array_lane_events=lanes["array_lane_events"],
            scalar_lane_events=lanes["scalar_lane_events"],
            blocked_rows=lanes["blocked_rows"],
            non_node_events=self.sim.non_node_events,
            setup_s=self.setup_s,
            plan_s=self.transport.plan_s,
            materialised_nodes=materialised,
        )


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Wire an experiment without running it (for step-wise tests)."""
    return Experiment(cfg)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run an experiment under its configured runtime (the main entry point).

    ``cfg.runtime`` selects the execution engine: ``"sim"`` (default)
    builds the discrete-event :class:`Experiment`; other registered
    runtimes (e.g. ``"live"``) receive the config whole.  See
    :class:`~repro.harness.registry.RuntimeRef`.
    """
    runtime = cfg.runtime
    if isinstance(runtime, str):
        # Engine selection goes through the registry uniformly -- "sim" is
        # just the built-in entry of RUNTIME_BUILDERS, so drop-in execution
        # engines only need register_runtime(), no runner changes.
        if runtime not in RUNTIME_BUILDERS:
            raise ValueError(
                f"unknown runtime {runtime!r}; registered: "
                f"{sorted(RUNTIME_BUILDERS)}"
            )
        runtime = RuntimeRef(runtime, {})
    return runtime.run(cfg)
