"""Space-partitioned parallel simulation backend with delay-bound lookahead.

The serial kernel dispatches every event of the execution in one process.
For large populations under *constant* message delay there is exploitable
structure: a message sent at time ``s`` cannot be delivered before
``s + c`` (``c`` = the constant delay), so two regions of the graph cannot
influence each other within any window shorter than ``c``.  This module
runs ``K`` contiguous node shards of a **static** graph as full-replica
simulations in forked worker processes, synchronised by conservative
lookahead windows (the measured verdict on it, the gate and what is left
of ROADMAP item 4: ``docs/performance.md``, "The parallel shard backend"):

* **Partitioning** (:mod:`repro.sim.partition`): node ids are split into
  ``K`` contiguous ranges chosen to minimise the number of edges
  crossing a shard boundary.
* **Lookahead windows**: barriers are placed on the multiples of ``c/2``
  plus every oracle sample time plus ``{0, horizon}``, so every window is
  at most ``c/2`` wide.  A message sent inside window ``(b_{j-1}, b_j]``
  delivers at ``s + c > b_j + c/2``, strictly past the barrier at which it
  is flushed -- cross-shard sends therefore travel as timestamped
  *envelopes*, exchanged at the barrier, and always arrive in the
  destination shard's future.
* **Replication**: each worker builds the *full* graph and draws all
  ``n`` hardware clocks (consuming the shared RNG streams exactly as the
  serial harness does), but its population covers only its own range.
* **Sampling**: at each barrier that is also a sample time, workers write
  their nodes' ``L``/``Lmax`` columns into a shared-memory block; the
  coordinator process runs the unmodified
  :class:`~repro.oracle.oracle.StreamingOracle` against lightweight
  :class:`ShmNodeView` proxies over that block.

**Parity contract (bit-identical to serial).**  The merged execution must
be indistinguishable from the serial one, which requires cross-shard
deliveries to merge into each shard's event stream at exactly their serial
tie-break position.  Local sequence numbers cannot provide that (each
shard numbers only its own pushes), so every ``PRIORITY_DELIVERY`` record
is pushed via :meth:`~repro.sim.queue.EventQueue.push_keyed` with a
*global provenance key*: the flattened heap key of the dispatch that
emitted it, extended by a per-dispatch emission counter.  Dispatch-context
prefixes (``ParTransport._gp``) are:

* setup phase (initial-edge announcement; no core sends at ``Start``):
  ``(0.0, -1)``;
* discovery dispatch: ``(t, 1) + record_key`` -- the parent's own
  flattened heap position (a delivery emits nothing keyed);
* timer dispatch: ``(t, 2, arm_time, phase, node_id)`` -- arm time and a
  setup/run phase bit ride in the timer record's free ``d``/``e`` slots
  (see :meth:`repro.core.node.ClockSyncNode._arm_timer`; the batch
  table's re-arms stamp the same slots); under constant
  rates and unstaggered ticks this tuple ranks timer dispatches exactly as
  their serial sequence numbers would.

The middle elements are the event priority constants, so prefixes from
different dispatch classes at one timestamp sort in dispatch order.
``KIND_TIMER``/``KIND_SAMPLE`` records keep ordinary
integer sequence numbers: those classes are never merged across shards,
and heap comparisons resolve on ``(time, priority)`` before ever touching
a key, so integer and tuple keys never meet.

**Batch kernel under shards.**  Each shard runs the serial
:class:`~repro.core.batch.NodeArrayTable`; :class:`ParNodeArrayTable`
changes only *who may bulk-send*.  A sender with a remote or frontier
neighbour (the frontier: local nodes with a remote neighbour) first
flushes the burst built so far, then sends per message through the keyed
push seam (:meth:`ParTransport._push_routed`): a local keyed record or an
envelope.  The flush keeps key order exact: senders tick in key order, so
a burst holds a contiguous key range at its first constituent's position
and no local record sorts inside it.  An envelope may -- but envelopes
reach only frontier destinations, bursts only interior ones, and
deliveries to distinct destinations commute.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import traceback
from dataclasses import replace
from functools import partial
from multiprocessing.connection import Connection
from multiprocessing.sharedctypes import RawArray
from typing import TYPE_CHECKING, Any, Callable, cast

import numpy as np
import numpy.typing as npt

from ..core.batch import LANE_FIELDS, Decline, NodeArrayTable, PopulationReader
from ..network.graph import DynamicGraph
from ..network.transport import Transport, TransportStats
from ..tracing.context import active_tracer
from .events import (
    KIND_DELIVER,
    KIND_TICK_BURST,
    PRIORITY_DELIVERY,
    ScheduledEvent,
)
from .partition import partition_ranges
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..core.node import ClockSyncNode
    from ..harness.runner import Experiment, ExperimentConfig, RunResult

__all__ = [
    "run_par",
    "shard_decline",
    "ParTransport",
    "ParNodeArrayTable",
    "ShmNodeView",
]

#: Global provenance key: a tuple comparable against every other key of its
#: ``(time, priority)`` class (see module docstring).
GKey = tuple[Any, ...]

#: Cross-shard message envelope:
#: ``(t_deliver, key, u, v, payload, send_time)``.
Envelope = tuple[float, GKey, int, int, Any, float]

_TICK = "tick"

#: Barrier-count cap: a genuine sharded run pays one IPC round trip per
#: window, so a pathological horizon/delay ratio falls back to serial.
_MAX_WINDOWS = 2_000_000

#: What a pipe end raises once the process at the other end is gone.
_PIPE_DEAD = (EOFError, BrokenPipeError, ConnectionResetError)

_STAT_FIELDS = TransportStats.__slots__

#: A node's tallies at the horizon, as a worker reports them.
_TALLIES = ("jumps", "total_jump", "messages_sent")


def shard_decline(cfg: "ExperimentConfig") -> Decline | None:
    """Why ``cfg`` cannot run genuinely sharded (``None`` = it can).

    The parallel backend requires the execution ingredients that make the
    ``c/2`` lookahead and the provenance-key scheme sound: constant
    positive message delay, constant discovery latency, constant-rate
    clocks with deterministic assignment, no per-event observers and a
    static topology.  Anything else falls
    back to the serial backend with the returned ``shards`` entry among
    ``RunResult.declines``.
    """
    params = cfg.params
    c = params.max_delay if cfg.delay_spec == "max" else 0.5 * params.max_delay
    checks = (  # (declined_by, fails, reason); the first failing row wins
        ("delay_spec", cfg.delay_spec not in ("max", "half"),
         "delay_spec must be the constant 'max' or 'half' policy"),
        ("max_delay", params.max_delay <= 0.0,
         "max_delay must be positive (it sets the lookahead window)"),
        ("horizon", float(cfg.horizon) > _MAX_WINDOWS * c,
         "horizon/delay ratio needs too many lookahead windows"),
        ("discovery_spec", cfg.discovery_spec not in ("max", "zero"),
         "discovery_spec must be the constant 'max' or 'zero' policy"),
        ("clock_spec",
         cfg.clock_spec not in ("split", "alternating", "uniform", "perfect"),
         "clock_spec must be a constant-rate spec "
         "(split/alternating/uniform/perfect)"),
        ("stagger_ticks", cfg.stagger_ticks,
         "staggered first ticks are not supported by the parallel backend"),
        ("adversary", cfg.adversary is not None,
         "adversaries require the serial backend"),
        ("record", cfg.record,
         "the SkewRecorder requires the serial backend (disable record)"),
        ("tracer", active_tracer() is not None, "causal tracing is active"),
        ("churn", bool(cfg.churn),
         "topology is static under shards (K = 2 loses to serial on every "
         "input measured, tenfold under churn)"),
        ("platform", "fork" not in multiprocessing.get_all_start_methods(),
         "the platform does not support the fork start method"),
    )
    return next(
        (Decline("shards", by, why) for by, fails, why in checks if fails), None
    )


class ParTransport(Transport):
    """Shard-local transport with global provenance keys and envelopes.

    One instance runs inside each worker over a *full* graph replica but
    with only the shard's nodes registered.  Every ``PRIORITY_DELIVERY``
    push is keyed at its global serial position (see module docstring);
    sends to non-local destinations are buffered as :data:`Envelope` rows
    and flushed by the worker at each barrier.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        *,
        delay_policy: Any,
        discovery_policy: Any,
        max_delay: float,
        discovery_bound: float,
        lo: int,
        hi: int,
        frontier: frozenset[int],
    ) -> None:
        #: Dispatch-context prefix and per-dispatch emission counter (the
        #: global key of the next keyed push is ``_gp + (_gc,)``).
        self._gp: GKey = (0.0, -1)
        self._gc = 0
        self._lo = lo
        self._hi = hi
        #: Local nodes with at least one remote neighbour; only
        #: these can receive envelopes, so they and their neighbours send
        #: per message instead of into bursts.
        self._frontier = frontier
        self._envelopes: list[Envelope] = []
        super().__init__(
            sim,
            graph,
            delay_policy=delay_policy,
            discovery_policy=discovery_policy,
            max_delay=max_delay,
            discovery_bound=discovery_bound,
        )
        self._push_keyed = sim.queue.push_keyed
        self._push = self._push_routed

    # ------------------------------------------------------------------ #
    # The delivery-push seam
    # ------------------------------------------------------------------ #

    def _push_routed(
        self,
        time: float,
        priority: int,
        kind: int,
        a: Any = None,
        b: Any = None,
        c: Any = None,
        d: Any = None,
        fn: Callable[..., Any] | None = None,
        label: str = "",
        e: Any = None,
    ) -> None:
        """``push_typed``-shaped sink for every ``PRIORITY_DELIVERY`` push.

        Consumes the next provenance key of the current dispatch context
        and pushes the record under it -- except a message to a remote
        destination, which becomes an envelope.  Serial consumes a
        sequence number exactly where the base transport calls this, so
        the keys rank as serial seqs would.
        """
        key = self._gp + (self._gc,)
        self._gc += 1
        if kind != KIND_DELIVER or self._lo <= b < self._hi:
            self._push_keyed(time, priority, key, kind, a, b, c, d, fn, label, e)
        else:
            self._envelopes.append((time, key, a, b, c, d))

    def announce_initial_edges(self) -> None:
        # No wave: each discovery is its own keyed record (its greeting
        # extends the key) and a non-local endpoint burns one.
        self._announce_each()

    def _schedule_discovery(
        self, node_id: int, other: int, *, added: bool, change_time: float
    ) -> None:
        if node_id not in self._nodes:
            # Burn the key the owning shard consumes: every shard then
            # draws the same counter values for both endpoints of an
            # edge, so a given discovery carries the same key in the one
            # shard that actually pushes it.
            self._gc += 1
            return
        super()._schedule_discovery(
            node_id, other, added=added, change_time=change_time
        )

    def _handle_timer(self, ev: ScheduledEvent) -> None:
        if ev.a is not None:  # a node's timer (a ``lost`` wake sends nothing)
            nid = ev.a if type(ev.a) is int else ev.a.node_id
            self._gp = (self.sim.now, 2, ev.d, ev.e, nid)
            self._gc = 0
        super()._handle_timer(ev)

    def _handle_discover(self, ev: ScheduledEvent) -> None:
        # The greeting a discovery emits extends the record's own global
        # position.  (A delivery emits nothing keyed, and nothing is
        # dropped in flight on a static graph: the base handlers serve.)
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        super()._handle_discover(ev)

    def _handle_discover_batch(self, records: list[ScheduledEvent]) -> None:
        # Each keyed record is its own dispatch context, so a run replays
        # as runs of one -- which greet through ``send``, never in a burst.
        for ev in records:
            self._handle_discover(ev)


class ParNodeArrayTable(NodeArrayTable):
    """Shard-local dense batch table: the serial tick phase, boundary-aware.

    A :class:`~repro.core.batch.NodeArrayTable` over the shard's id range
    (the id-indexed columns have holes outside it) that differs from the
    serial table in one input and one hook: only *plain* senders may
    bulk-send (the rest are its ``boundary``), and every group of sends
    first sets the transport's provenance context to the ticking node's
    timer position (see module docstring).
    """

    __slots__ = ("firing",)

    transport: ParTransport

    def __init__(
        self, sim: Simulator, transport: ParTransport, ids: range, *args: Any
    ) -> None:
        super().__init__(sim, transport, ids, *args)
        #: Per ticking node the record whose tick runs (its provenance).
        self.firing: dict[int, ScheduledEvent] = {}
        frontier = transport._frontier
        graph = transport.graph
        self.boundary = frozenset(
            i
            for i in ids
            if any(v not in ids or v in frontier for v in graph.neighbors(i))
        )

    def arm_ticks(self, fires: npt.NDArray[np.float64]) -> None:
        # One set-up record per node, never a group: the first ticks keep
        # their set-up phase in ``e`` (see :meth:`_enter_tick`).
        self._arm_each(fires)

    def tick_one(self, ev: ScheduledEvent) -> None:
        self.firing[ev.a] = ev
        super().tick_one(ev)

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        self.firing.update((ev.a, ev) for ev in records if ev.b == _TICK)
        super().handle_timer_batch(records)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        self.firing.update(dict.fromkeys(ev.a, ev))
        super().handle_tick_group(ev)

    def _enter_tick(self, nid: int) -> None:
        """Provenance context of ``nid``'s tick: ``(t, 2, arm, phase, nid)``.

        The firing record is not re-armed yet (that happens after the tick
        phase); a group record stores its arm time in ``d`` like an
        individual one, and groups only form in-run.
        """
        rec = self.firing[nid]
        phase = 1 if rec.kind == KIND_TICK_BURST else rec.e
        transport = self.transport
        transport._gp = (self.sim.now, 2, rec.d, phase, nid)
        transport._gc = 0

    def _send_each(self, nid: int, payload: Any, dests: list[int]) -> None:
        self._enter_tick(nid)
        super()._send_each(nid, payload, dests)

    def _push_burst(
        self,
        us: list[int],
        vs: list[int],
        payloads: list[Any],
        sids: list[int] | None,
    ) -> None:
        # A burst sits at its first constituent's global position.
        self._enter_tick(us[0])
        super()._push_burst(us, vs, payloads, sids)


# ---------------------------------------------------------------------- #
# Barrier planning
# ---------------------------------------------------------------------- #


def _barrier_plan(
    cfg: "ExperimentConfig", interval: float, have_oracle: bool
) -> tuple[list[float], list[float]]:
    """Barrier times and sample times for the run (see module docstring).

    The grid is built by *multiplication* (``step * m``) so every shard and
    the coordinator agree bitwise on the barrier set, and sample times by
    the same ``t += interval`` accumulation the serial kernel's sample
    re-arm performs, so each sample lands at the bitwise-identical float.
    """
    params = cfg.params
    c = params.max_delay if cfg.delay_spec == "max" else 0.5 * params.max_delay
    step = 0.5 * c
    horizon = float(cfg.horizon)
    bset = {0.0, horizon}
    m = 1
    t = step
    while t < horizon:
        bset.add(t)
        m += 1
        t = step * m
    samples: list[float] = []
    if have_oracle:
        t = 0.0
        while t <= horizon:
            samples.append(t)
            bset.add(t)
            t += interval
    return sorted(bset), samples


# ---------------------------------------------------------------------- #
# Worker
# ---------------------------------------------------------------------- #


def _shard_experiment(
    cfg: "ExperimentConfig", lo: int, hi: int, frontier: frozenset[int]
) -> "Experiment":
    """Wire one shard: full graph/clock replica, local nodes only.

    The same constructor as a serial run, with the shard's transport in
    the transport's place and its table over the shard's range; the
    coordinator owns the oracle.
    """
    from ..harness.runner import Experiment

    make_transport = partial(ParTransport, lo=lo, hi=hi, frontier=frontier)
    return Experiment(
        replace(cfg, oracle=None, runtime="sim"),
        shard=(make_transport, range(lo, hi)),
    )


def _worker_main(
    cfg: "ExperimentConfig",
    lo: int,
    hi: int,
    frontier: frozenset[int],
    barriers: list[float],
    samples: list[float],
    shm: Any,
    conn: Connection,
) -> None:
    """Worker process body: run window-by-window against the coordinator."""
    gc.disable()
    try:
        exp = _shard_experiment(cfg, lo, hi, frontier)
        sim, nodes = exp.sim, exp.nodes
        transport = cast(ParTransport, exp.transport)
        n = cfg.params.n
        block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
        sample_set = set(samples)
        local_ids = sorted(nodes)
        read = PopulationReader(nodes, transport)
        horizon = float(cfg.horizon)
        busy = 0.0
        wait = 0.0
        env_out = 0
        env_in = 0
        push_keyed = sim.queue.push_keyed
        for j, b in enumerate(barriers):
            t0 = time.perf_counter()
            sim.run_until(b)
            if b in sample_set:
                block[0, lo:hi], block[1, lo:hi] = read(b, True)
            out = transport._envelopes
            transport._envelopes = []
            env_out += len(out)
            t1 = time.perf_counter()
            busy += t1 - t0
            conn.send(
                (
                    "win",
                    j,
                    out,
                    {
                        "busy_seconds": busy,
                        "barrier_wait_seconds": wait,
                        "envelopes_out": env_out,
                        "envelopes_in": env_in,
                        "events": sim.events_dispatched,
                    },
                )
            )
            incoming: list[Envelope] = conn.recv()
            wait += time.perf_counter() - t1
            env_in += len(incoming)
            for t_d, key, u, v, payload, st in incoming:
                # The lookahead invariant: a flushed send always delivers
                # past the barrier it was flushed at.
                assert t_d >= sim.now
                push_keyed(
                    t_d, PRIORITY_DELIVERY, key, KIND_DELIVER, u, v, payload,
                    st, None, "deliver", e=-1,
                )
        clock, maxe = read(horizon, True)
        store = getattr(nodes, "store", None)
        if store is None:  # drivers: a population the table cannot run
            state = {f: [getattr(nodes[i], f) for i in local_ids] for f in _TALLIES}
            state["rate"] = [nodes[i].clock.segment_at(horizon)[0] for i in local_ids]
        else:  # a column population: off its columns, building no node
            state = {f: getattr(store.np, f)[lo:hi].tolist() for f in ("rate", *_TALLIES)}
        done = {
            "lo": lo,
            "hi": hi,
            "clock": clock.tolist(),
            "maxe": maxe.tolist(),  # type: ignore[union-attr]
            **state,
            "materialised": getattr(nodes, "materialised", len(nodes)),
            "stats": transport.stats.as_dict(),
            "events": sim.events_dispatched,
            "declines": transport.plan.declines,
            "lanes": transport.lane_counts(),
        }
        conn.send(("done", done))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Coordinator
# ---------------------------------------------------------------------- #


class ShmNodeView:
    """Node-shaped read proxy over the shared-memory sample block.

    Quacks like :class:`~repro.core.node.ClockSyncNode` for the oracle's
    reader loop and for result accounting: while the run is live,
    ``logical_clock``/``max_estimate`` return the worker-written value for
    the *current* barrier (the coordinator only samples at barriers the
    workers have already written); after :meth:`finalize`, reads
    extrapolate from the horizon state at the node's constant rate.
    """

    __slots__ = (
        "node_id",
        "_clock_row",
        "_max_row",
        "_final",
        "jumps",
        "total_jump",
        "messages_sent",
    )

    def __init__(
        self,
        node_id: int,
        clock_row: "np.ndarray[Any, np.dtype[np.float64]]",
        max_row: "np.ndarray[Any, np.dtype[np.float64]]",
    ) -> None:
        self.node_id = node_id
        self._clock_row = clock_row
        self._max_row = max_row
        self._final: tuple[float, float, float, float] | None = None
        self.jumps = 0
        self.total_jump = 0.0
        self.messages_sent = 0

    def logical_clock(self, t: float | None = None) -> float:
        fin = self._final
        if fin is None:
            return float(self._clock_row[self.node_id])
        value, _maxe, rate, horizon = fin
        if t is None:
            return value
        return value + rate * (t - horizon)

    def max_estimate(self, t: float | None = None) -> float:
        fin = self._final
        if fin is None:
            return float(self._max_row[self.node_id])
        _value, maxe, rate, horizon = fin
        if t is None:
            return maxe
        return maxe + rate * (t - horizon)

    def finalize(
        self,
        clock: float,
        maxe: float,
        rate: float,
        horizon: float,
        jumps: int,
        total_jump: float,
        messages_sent: int,
    ) -> None:
        """Pin the horizon state reported by the owning worker."""
        self._final = (clock, maxe, rate, horizon)
        self.jumps = jumps
        self.total_jump = total_jump
        self.messages_sent = messages_sent


def run_par(cfg: "ExperimentConfig", shards: int = 2) -> "RunResult":
    """Run ``cfg`` on the space-partitioned parallel backend.

    Genuinely shards when :func:`shard_decline` returns ``None``;
    otherwise runs the serial backend and adds the ``shards`` entry to
    ``RunResult.declines`` (``par_fallback_reason``).  A genuine
    run is bit-identical to serial for every ``shards >= 1`` (the parity
    tests pin this).
    """
    from ..analysis.recorder import RunRecord
    from ..harness.runner import ALGORITHMS, Experiment, RunResult
    from ..oracle.oracle import resolve_oracle
    from ..telemetry.registry import active_registry

    cfg.params.validate()
    if shards < 1:
        raise ValueError(f"shards must be >= 1; got {shards!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {cfg.algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    decline = shard_decline(cfg)
    if decline is not None:
        serial = Experiment(replace(cfg, runtime="sim")).run()
        # Restore the original config so sweep identity and reports show
        # what was actually requested.
        serial.config = cfg
        serial.declines = (decline, *serial.declines)
        return serial

    params = cfg.params
    n = params.n
    edges = [(int(u), int(v)) for u, v in cfg.initial_edges]
    ranges = partition_ranges(n, shards, edges)
    k = len(ranges)
    shard_of = [0] * n
    for w, (a, b) in enumerate(ranges):
        for i in range(a, b):
            shard_of[i] = w
    frontiers: list[set[int]] = [set() for _ in range(k)]
    for u, v in edges:
        if shard_of[u] != shard_of[v]:
            frontiers[shard_of[u]].add(u)
            frontiers[shard_of[v]].add(v)

    orc, interval = resolve_oracle(
        cfg.oracle, params, cfg.seed, cfg.sample_interval
    )
    barriers, samples = _barrier_plan(cfg, float(interval), orc is not None)

    shm = RawArray("d", 2 * n)
    block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
    views = {i: ShmNodeView(i, block[0], block[1]) for i in range(n)}
    coord_sim = Simulator()
    coord_graph = DynamicGraph(range(n), cfg.initial_edges)
    if orc is not None:
        orc.install(
            coord_sim, coord_graph, views,
            interval=float(interval), end=float(cfg.horizon),
        )

    # Telemetry: per-shard health read from the latest barrier snapshots.
    # Readers raise (KeyError/ZeroDivisionError) until first data arrives;
    # the registry snapshot skips raising readers, so the dashboard shows
    # blanks instead of zeros that mean nothing.
    telem: dict[int, dict[str, float]] = {}
    cur_window = [0]
    registry = active_registry()
    if registry is not None:
        if orc is not None:
            orc.instrument(registry)
        registry.gauge_fn("par.shards", lambda: k)
        registry.gauge_fn("par.window", lambda: cur_window[0])

        def _utilization() -> float:
            busy = sum(s["busy_seconds"] for s in telem.values())
            wait = sum(s["barrier_wait_seconds"] for s in telem.values())
            return busy / (busy + wait)

        registry.gauge_fn("par.utilization", _utilization)

        def _reader(field: str, w: int) -> Callable[[], float]:
            return lambda: telem[w][field]

        for w in range(k):
            registry.counter_fn(
                f"par.shard{w}.envelopes_out", _reader("envelopes_out", w)
            )
            registry.counter_fn(
                f"par.shard{w}.envelopes_in", _reader("envelopes_in", w)
            )
            registry.counter_fn(f"par.shard{w}.events", _reader("events", w))
            registry.gauge_fn(
                f"par.shard{w}.busy_seconds", _reader("busy_seconds", w)
            )
            registry.gauge_fn(
                f"par.shard{w}.barrier_wait_seconds",
                _reader("barrier_wait_seconds", w),
            )

    ctx = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs: list[Any] = []
    dones: list[dict[str, Any]] = [{} for _ in range(k)]

    def _lost(w: int, j: int) -> RuntimeError:
        """A worker's pipe broke: name the shard instead of a bare EOF."""
        procs[w].join(timeout=5.0)  # reap it so the exit code is known
        a, b = ranges[w]
        return RuntimeError(
            f"parallel shard worker {w} (nodes [{a}, {b})) died in window "
            f"{j} of {len(barriers)}: exitcode {procs[w].exitcode} "
            "(negative = killed by that signal)"
        )

    def _recv(w: int, j: int) -> Any:
        try:
            msg = conns[w].recv()
        except _PIPE_DEAD as exc:
            raise _lost(w, j) from exc
        if msg[0] == "err":
            raise RuntimeError(f"parallel shard worker {w} failed:\n{msg[1]}")
        return msg

    try:
        for w, (a, b) in enumerate(ranges):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            # Under fork, arguments are inherited by the child directly --
            # no pickling of the config or the shared block.
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    cfg, a, b, frozenset(frontiers[w]), barriers, samples,
                    shm, child_conn,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        for j, b in enumerate(barriers):
            cur_window[0] = j
            outs: list[list[Envelope]] = []
            for w in range(k):
                msg = _recv(w, j)
                telem[w] = msg[3]
                outs.append(msg[2])
            coord_sim.run_until(b)
            inboxes: list[list[Envelope]] = [[] for _ in range(k)]
            for out in outs:
                for env in out:
                    inboxes[shard_of[env[3]]].append(env)
            for w, inbox in enumerate(inboxes):
                try:
                    conns[w].send(inbox)
                except _PIPE_DEAD as exc:
                    raise _lost(w, j) from exc
        for w in range(k):
            dones[w] = _recv(w, len(barriers))[1]
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    horizon = float(cfg.horizon)
    stats = {f: 0 for f in _STAT_FIELDS}
    events = coord_sim.events_dispatched
    lanes = dict.fromkeys(LANE_FIELDS, 0)
    materialised = 0
    for done in dones:
        lo = done["lo"]
        hi = done["hi"]
        clocks = done["clock"]
        maxes = done["maxe"]
        rates = done["rate"]
        jumps = done["jumps"]
        tjs = done["total_jump"]
        msgs = done["messages_sent"]
        for off, i in enumerate(range(lo, hi)):
            views[i].finalize(
                clocks[off], maxes[off], rates[off], horizon,
                jumps[off], tjs[off], msgs[off],
            )
        wstats = done["stats"]
        for f in _STAT_FIELDS:
            stats[f] += wstats[f]
        events += done["events"]
        materialised += done["materialised"]
        for f in LANE_FIELDS:
            lanes[f] += done["lanes"][f]
    return RunResult(
        config=cfg,
        record=RunRecord.empty(range(n)),
        graph=coord_graph,
        nodes=cast("dict[int, ClockSyncNode]", views),
        transport_stats=stats,
        events_dispatched=events,
        oracle_report=orc.report() if orc is not None else None,
        # Shards plan alike; entries differing by shard (a node id in the
        # reason) are all kept, in shard order.
        declines=tuple(dict.fromkeys(d for done in dones for d in done["declines"])),
        array_lane_events=lanes["array_lane_events"],
        scalar_lane_events=lanes["scalar_lane_events"],
        blocked_rows=lanes["blocked_rows"],
        non_node_events=coord_sim.non_node_events,
        par_shards=k,
        materialised_nodes=materialised,
    )
