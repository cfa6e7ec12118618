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
from ..core.batch import TABLE_CORES, Decline, NodeArrayTable, Sampler
from ..core.node import ClockSyncNode, Population
from ..core.protocol import (
    DCSACore,
    FreeRunningCore,
    MaxSyncCore,
    ProtocolCore,
    StaticGradientCore,
)
from ..network.churn import ScriptedChurn
from ..network.graph import DynamicGraph
from ..network.transport import Transport
from ..oracle.oracle import OracleReport, resolve_oracle
from ..params import SystemParams
from ..sim.clocks import ConstantRateClock
from ..sim.par import ParNodeArrayTable
from ..sim.rng import RngFactory
from ..sim.simulator import Simulator
from ..telemetry.registry import active_registry
from ..tracing.context import Tracer, active_tracer
from ..tracing.spans import SpanTable
from .registry import (
    AdversaryRef,
    ChurnRef,
    ClockRef,
    DelayRef,
    DiscoveryRef,
    OracleRef,
    RuntimeRef,
    SerializationError,
    _Ref,
    entry,
    jsonify,
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
]

Edge = tuple[int, int]

#: Algorithm registry: name -> the core class a ClockSyncNode drives.
ALGORITHMS: dict[str, type[ProtocolCore]] = {
    "dcsa": DCSACore,
    "max": MaxSyncCore,
    "static": StaticGradientCore,
    "free": FreeRunningCore,
}

#: The ref fields of :class:`ExperimentConfig` (``churn`` aside): each
#: holds a ref of its class or a ``bare`` value, an entry name or ``None``.
_REF_FIELDS: dict[str, tuple[type[_Ref], type]] = {
    "clock_spec": (ClockRef, str),
    "delay_spec": (DelayRef, str),
    "discovery_spec": (DiscoveryRef, str),
    "adversary": (AdversaryRef, type(None)),
    "oracle": (OracleRef, type(None)),
    "runtime": (RuntimeRef, str),
}


def _ref_entry(
    value: Any, ref_cls: type[_Ref], bare: type | tuple[type, ...], field_name: str
) -> Any:
    """``to_dict`` form of a ref field's value.

    Anything but a ``ref_cls`` or a ``bare`` value has no plain-data form
    and raises, naming the table a new entry goes in.
    """
    if isinstance(value, bare):
        return value
    if isinstance(value, ref_cls):
        return value.to_dict()
    table = ref_cls.__name__.removesuffix("Ref").upper()
    raise SerializationError(
        f"cannot serialize {field_name} {value!r}; add an entry to "
        f"repro.harness.registry.{table} and reference it as "
        f"{ref_cls.__name__}(name, kwargs)"
    )


def _ref_from_entry(data: Any, ref_cls: type[_Ref], field_name: str) -> Any:
    """Inverse of :func:`_ref_entry`."""
    if data is None or isinstance(data, str):
        return data
    if not isinstance(data, Mapping) or data.get("kind") != "ref":
        raise ValueError(f"unknown {field_name} entry {data!r}")
    return ref_cls.from_dict(data)


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
    clock_spec / delay_spec / discovery_spec:
        Hardware clocks, message delays and discovery latencies: a name in
        :data:`~repro.harness.registry.CLOCK` / ``DELAY`` / ``DISCOVERY``
        (e.g. ``"random_walk"``, ``"uniform"``) or a ``ClockRef`` /
        ``DelayRef`` / ``DiscoveryRef`` into it.
    churn:
        :class:`~repro.harness.registry.ChurnRef` and
        :class:`~repro.network.churn.ScriptedChurn` entries.
    adversary:
        Optional adaptive adversary (see :mod:`repro.adversary`), an
        :class:`~repro.harness.registry.AdversaryRef`.  Installed at
        ``t = 0`` after churn, before nodes start.
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
        Optional streaming conformance oracle (see :mod:`repro.oracle`),
        an :class:`~repro.harness.registry.OracleRef`.  Installed at
        ``t = 0`` alongside the recorder; its sampling interval defaults
        to ``sample_interval``; the final report lands in
        ``RunResult.oracle_report``.
    runtime:
        How to execute the run: ``"sim"`` (default; the discrete-event
        kernel, deterministic and bit-stable) or a
        :class:`~repro.harness.registry.RuntimeRef` -- e.g.
        ``RuntimeRef("live", {"channel": "loopback"})`` to drive the same
        protocol cores on a real asyncio loop (:mod:`repro.live`), where
        ``horizon`` is interpreted as wall-clock seconds.  A bare string
        names an entry of :data:`~repro.harness.registry.RUNTIME`.
    name:
        Label carried into reports.

    Every ingredient is a table name or a ref, so a config is plain data:
    :meth:`to_dict` is its identity and :meth:`from_dict` rebuilds it.
    """

    params: SystemParams
    initial_edges: Sequence[Edge]
    algorithm: str = "dcsa"
    clock_spec: str | ClockRef = "random_walk"
    delay_spec: str | DelayRef = "uniform"
    discovery_spec: str | DiscoveryRef = "uniform"
    churn: Sequence[ScriptedChurn | ChurnRef] = field(default_factory=list)
    adversary: AdversaryRef | None = None
    horizon: float = 200.0
    sample_interval: float = 1.0
    seed: int = 0
    track_edges: bool = True
    track_max_estimates: bool = False
    stagger_ticks: bool = True
    record: bool = True
    oracle: OracleRef | None = None
    runtime: str | RuntimeRef = "sim"
    name: str = ""

    # ------------------------------------------------------------------ #
    # Serialization (see repro.harness.registry)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-safe dict that round-trips via :meth:`from_dict`.

        The dict is the config's *identity* for content-addressed caching
        (:mod:`repro.sweep.store`): entry names stay strings, refs become
        ``{"kind": "ref", ...}`` and scripted churn its events.  Any other
        ingredient raises :class:`~repro.harness.registry.SerializationError`
        naming the table a new entry goes in.
        """
        return {
            "params": self.params.to_dict(),
            "initial_edges": [[int(u), int(v)] for u, v in self.initial_edges],
            "algorithm": self.algorithm,
            "churn": [
                {"kind": "scripted", "events": jsonify(proc.events)}
                if isinstance(proc, ScriptedChurn)
                else _ref_entry(proc, ChurnRef, (), "churn")
                for proc in self.churn
            ],
            "horizon": float(self.horizon),
            "sample_interval": float(self.sample_interval),
            "seed": int(self.seed),
            "track_edges": bool(self.track_edges),
            "track_max_estimates": bool(self.track_max_estimates),
            "stagger_ticks": bool(self.stagger_ticks),
            "record": bool(self.record),
            "name": self.name,
            **{
                name: _ref_entry(getattr(self, name), ref_cls, bare, name)
                for name, (ref_cls, bare) in _REF_FIELDS.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        params = SystemParams.from_dict(data.pop("params"))
        initial_edges = [(int(u), int(v)) for u, v in data.pop("initial_edges")]
        churn: list[ScriptedChurn | ChurnRef] = [
            ScriptedChurn([(float(t), str(op), int(u), int(v)) for t, op, u, v in item["events"]])
            if item.get("kind") == "scripted"
            else _ref_from_entry(item, ChurnRef, "churn")
            for item in data.pop("churn", [])
        ]
        refs = {
            name: _ref_from_entry(data.pop(name), ref_cls, name)
            for name, (ref_cls, _) in _REF_FIELDS.items()
            if name in data
        }
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields: {unknown}")
        return cls(
            params=params, initial_edges=initial_edges, churn=churn, **refs, **data
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
    #: touched nodes of a column population, every node of any other,
    #: summed over a sharded run's workers (``None`` for a live run).
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


def _construct(spec: str | _Ref, ref_cls: type[_Ref], *args: Any) -> Any:
    """What the run builds from a spec field: a name calls its table
    entry's constructor, a ref calls it with the ref's kwargs."""
    if isinstance(spec, str):
        return entry(ref_cls._table, spec, ref_cls._noun).build(*args)
    return spec(*args)


def _draw_staggers(
    core_cls: type[ProtocolCore], cfg: ExperimentConfig, rng: np.random.Generator
) -> npt.NDArray[np.float64] | None:
    """Every ticking node's first-tick offset, in id order: one draw per
    node when ``cfg.stagger_ticks``, else zeros (``None``: the algorithm
    never ticks)."""
    n = cfg.params.n
    if core_cls is FreeRunningCore:
        return None
    if not cfg.stagger_ticks:
        return np.zeros(n)
    return rng.uniform(0.0, cfg.params.tick_interval, n)


def _max_events(cfg: ExperimentConfig) -> int:
    """The runaway guard of ``cfg``'s run (``Simulator.max_events``): 8x
    the events its ticks cause -- per node and tick, the tick and one
    delivery per incident edge (``E_0``'s mean degree, at least 1), at the
    fastest drift's ``(1 + rho) / tick_interval`` ticks per unit of time
    over the horizon and one interval more -- and two sample events per
    sample instant, one per consumer (a ``sample_interval`` nothing samples
    on may be 0), plus a flat 10^6 for churn and discoveries."""
    p = cfg.params
    degree = max(2 * len(cfg.initial_edges) / p.n, 1.0)
    ticks = (cfg.horizon + p.tick_interval) * (1.0 + p.rho) / p.tick_interval
    samples = 2.0 * cfg.horizon / cfg.sample_interval if cfg.sample_interval > 0.0 else 0.0
    return int(8 * (p.n * ticks * (1.0 + degree) + samples)) + 10**6


# ---------------------------------------------------------------------- #
# Building and running
# ---------------------------------------------------------------------- #


class Experiment:
    """A fully wired, not-yet-run execution (exposed for tests).

    ``shard`` is the seam of the parallel backend (:mod:`repro.sim.par`),
    not reachable from config, CLI or environment: a transport factory
    called like :class:`Transport` and the id range whose nodes this
    replica constructs (its store a
    :class:`~repro.sim.par.ParNodeArrayTable` over that range).
    Everything else -- graph, every node's clock draw, churn -- is wired
    for the full population, so shared randomness is bitwise identical
    across shard counts.

    **Set-up is one pass** (docs/performance.md, "Set-up"): the cyclic
    collector is paused, the graph keeps E_0 as columns (no node's
    adjacency set until something reads it), clocks and first-tick
    offsets are drawn as columns (one vector call per stream), a constant
    discovery latency announces E_0 as one wave record, the table seeds
    from the graph's columns (the recorder and the oracle read the graph
    only at their first sample or at the end), and a population the table will
    run is its store's columns from here on
    (:class:`~repro.core.node.Population`: no driver, core, clock or timer
    dict until something touches a node; its first ticks are records by
    node id).  Where an order is observable it is the per-record one --
    a random discovery latency is drawn per endpoint in
    ``Transport._announce_each``'s set order, a tick per node id -- so
    every digest holds; every other reader takes canonical edge order.
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
        self.sim = Simulator(_max_events(cfg))
        # 1. Graph with E_0 (no listeners yet, so no discovery is emitted).
        self.graph = DynamicGraph(range(params.n), cfg.initial_edges)
        # 2. Transport subscribes to graph events.
        self.transport = make_transport(
            self.sim,
            self.graph,
            delay_policy=_construct(cfg.delay_spec, DelayRef, params, rngf.spawn("delay")),
            discovery_policy=_construct(
                cfg.discovery_spec, DiscoveryRef, params, rngf.spawn("discovery")
            ),
            max_delay=params.max_delay,
            discovery_bound=params.discovery_bound,
        )
        # 3. Nodes (registered before any churn can mutate the graph).  The
        #    clock and stagger draws cover every id, local or not, so the
        #    streams stay aligned across shard counts.
        core_cls = ALGORITHMS[cfg.algorithm]
        rates, clocks = _construct(
            cfg.clock_spec, ClockRef, params, rngf.spawn("clocks"), cfg.horizon
        )
        stagger = _draw_staggers(core_cls, cfg, rngf.spawn("stagger"))
        self._store: NodeArrayTable | None = None
        self.nodes: Mapping[int, ClockSyncNode]
        if self.sim.batch and core_cls in TABLE_CORES:
            # A column population: the table's store from here on, and a
            # driver only for a node something touches.
            assert stagger is not None
            core = core_cls(0, params)
            store_cls = NodeArrayTable if shard is None else ParNodeArrayTable
            self._store = store_cls(self.sim, self.transport, local, core, clocks, rates)
            self.nodes = Population(self.sim, self.transport, self._store, core, stagger)
            self.transport.register_population(self.nodes)
        else:
            nodes: dict[int, ClockSyncNode] = {}
            for i in local:
                clock = clocks[i] or ConstantRateClock(rates[i])
                kwargs = {} if stagger is None else {"tick_stagger": float(stagger[i])}
                node = nodes[i] = ClockSyncNode(
                    i, self.sim, clock, self.transport, params, core_cls(i, params, **kwargs)
                )
                self.transport.register_node(i, node)
            self.nodes = nodes
        # 4. One sampler, one read per instant: the recorder (skipped for
        #    unbounded-horizon runs), then the oracle (takes the graph before
        #    churn seeds t=0 edges; its rng is out of band: resolve_oracle).
        sampler = Sampler(self.sim, self.nodes, self.transport)
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
            )
            self.recorder.join(sampler)
        self.oracle, interval = resolve_oracle(
            cfg.oracle, params, cfg.seed, cfg.sample_interval
        )
        if self.oracle is not None:
            self.oracle.join(
                sampler, self.graph, self.nodes, interval=interval, end=cfg.horizon
            )
        sampler.install()
        # 5. Announce E_0 *before* churn seeds extra t=0 edges (those get
        #    their discover events from the graph-event path instead).
        self.transport.announce_initial_edges()
        churn_rng = rngf.spawn("churn")
        for proc in cfg.churn:
            built = proc if isinstance(proc, ScriptedChurn) else proc(params, churn_rng)
            built.install(self.sim, self.graph)
        # 6. Adversary (still t = 0: clocks may be swapped, no timers armed
        #    yet, and churn-seeded edges are already visible to observe).
        self.adversary: Adversary | None = None
        if cfg.adversary is not None:
            adv = cfg.adversary(params, rngf.spawn("adversary"))
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
            lo, hi = local.start, local.stop
            col = self._store.np  # every row's segment starts at H(0) = 0
            offsets = stagger[lo:hi]
            fires = offsets / col.rate[lo:hi]
            for j in np.flatnonzero(offsets >= col.h1[lo:hi]).tolist():
                fires[j] = clocks[lo + j].time_at(offsets[j])  # type: ignore[union-attr]
            for node in cast(Population, self.nodes).touched():
                i = node.node_id
                fires[i - lo] = max(node.clock.time_at(node.clock.value(0.0) + stagger[i]), 0.0)
            self._store.arm_ticks(fires)
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

    def run(self) -> RunResult:
        """Run to the horizon and package the results.

        The cyclic garbage collector is paused from the event loop until
        the result is built: the kernel's hot path allocates no reference
        cycles (typed records are pooled, effects are acyclic value
        objects), and packaging only builds the result, so generational
        collections only add pauses proportional to the live heap.  The
        collector is restored as found on return, even on error, and no
        collection is forced: one would re-walk the interpreter's whole
        heap to reclaim a few thousand objects, which the generational
        collector reclaims in due course as for any object.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.sim.run_until(self.cfg.horizon)
            if self.tracer is not None:
                # Patch the optimistically-closed spans of messages the
                # horizon caught mid-flight (O(pending queue), not O(spans)).
                self.transport.finalize_tracing()
            lanes = self.transport.lane_counts()
            nodes = self.nodes
            materialised = getattr(nodes, "materialised", len(nodes))
            if isinstance(nodes, Population):
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
        finally:
            if gc_was_enabled:
                gc.enable()


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run an experiment under its configured runtime (the main entry point).

    ``cfg.runtime`` selects the execution engine: ``"sim"`` (default)
    builds the discrete-event :class:`Experiment`; the other entries of
    :data:`~repro.harness.registry.RUNTIME` (e.g. ``"live"``) receive the
    config whole.  See :class:`~repro.harness.registry.RuntimeRef`.
    """
    # "sim" is just an entry of the RUNTIME table: a new execution engine
    # is one more entry, with no runner change.
    return cast(RunResult, _construct(cfg.runtime, RuntimeRef, cfg))
