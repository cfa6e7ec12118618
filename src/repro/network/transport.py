"""Message transport and discovery wiring.

:class:`Transport` implements the delivery contract of Section 3.2 on top of
a :class:`~repro.network.graph.DynamicGraph`, a
:class:`~repro.network.channels.DelayPolicy` and a
:class:`~repro.network.discovery.DiscoveryPolicy`:

* **Reliable FIFO delivery within** :math:`\\mathcal{T}`: if the edge exists
  throughout ``[t, t + delay]`` the message is delivered at ``t + delay``
  (clamped so it cannot overtake an earlier message on the same directed
  link -- the clamp can never exceed the :math:`\\mathcal{T}` bound because
  the predecessor met its own bound).
* **Drop on removal / on a non-existent edge**: the message is dropped and
  the sender discovers the failure no later than ``send_time +
  discovery_bound`` (the model's MAC-layer-ack abstraction).
* **Discovery of persistent changes**: every add/remove that persists is
  discovered by both endpoints within ``discovery_bound``; transient changes
  are verified at fire time and silently skipped if already reversed, which
  realises the model's "may or may not be detected".

The transport registers the delivery and discovery dispatch handlers on
its simulator and holds the run's kernel plan -- on whose table
(:mod:`repro.core.batch`) a node event is executed rather than handed to
the node.  Why the aggregated records below execute bit-identically to
one record per event is argued once, in ``docs/performance.md``
("Bit-identity").

Nodes registered with the transport provide ``on_message(sender, payload)``,
``on_discover_add(other)`` and ``on_discover_remove(other)``
(:class:`repro.core.node.ClockSyncNode` does).
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    cast,
)

import numpy as np

from ..core.batch import (
    LANE_FIELDS,
    DiscoveryRows,
    KernelPlan,
    NodeArrayTable,
    WaveRows,
    kernel_plan,
)
from ..sim.events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_DISCOVER,
    KIND_TICK_BURST,
    KIND_TIMER,
    PRIORITY_DELIVERY,
    ScheduledEvent,
)
from ..sim.simulator import Simulator
from ..tracing.spans import (
    SPAN_FLIGHT,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
)
from .channels import DelayPolicy
from .discovery import ConstantDiscovery, DiscoveryPolicy
from .graph import DynamicGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..core.node import Population
    from ..telemetry.registry import MetricsRegistry
    from ..tracing.context import Tracer

__all__ = ["Transport", "NodeInterface", "TransportStats"]

_TICK = "tick"
_LOST = "lost"  # the table's wake records (see NodeArrayTable.lost_wake)


class NodeInterface(Protocol):
    """Callbacks a node must implement to ride the transport."""

    def on_message(self, sender: int, payload: Any) -> None: ...

    def on_discover_add(self, other: int) -> None: ...

    def on_discover_remove(self, other: int) -> None: ...


class TransportStats:
    """Mutable delivery counters (exposed for tests and reports)."""

    __slots__ = (
        "sent",
        "delivered",
        "dropped_no_edge",
        "dropped_removed",
        "discoveries_delivered",
        "discoveries_skipped",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_no_edge = 0
        self.dropped_removed = 0
        self.discoveries_delivered = 0
        self.discoveries_skipped = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict."""
        return {k: getattr(self, k) for k in self.__slots__}


class Transport:
    """Wires nodes, graph, channel delays and discovery into one fabric.

    Parameters
    ----------
    sim:
        The simulation kernel.
    graph:
        The dynamic graph; the transport subscribes to its mutations.
    delay_policy / discovery_policy:
        Behavioural policies (see module docstring).
    max_delay:
        :math:`\\mathcal{T}`; every policy delay is validated against it.
    discovery_bound:
        :math:`\\mathcal{D}`; discovery latencies are validated against it.
    """

    #: What :func:`~repro.core.batch.kernel_plan` gets beside the transport
    #: itself: a shard-local subclass's id range and table class.
    _plan_scope: tuple[Any, ...] = ()

    def __init__(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        *,
        delay_policy: DelayPolicy,
        discovery_policy: DiscoveryPolicy,
        max_delay: float,
        discovery_bound: float,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.delay_policy = delay_policy
        self.discovery_policy = discovery_policy
        self.max_delay = float(max_delay)
        self.discovery_bound = float(discovery_bound)
        #: Span tracer (``None`` when causal tracing is off); the transport
        #: is FIFO per directed link, so the tracer correlates send/deliver
        #: by order without touching payloads.
        self._tracer: "Tracer | None" = None
        self.stats = TransportStats()
        #: Graph mutations observed (both directions of churn); kept off
        #: :class:`TransportStats` so sim/live stats dicts stay congruent.
        self.edge_flips = 0
        #: The registered nodes by id, or a column population
        #: (:meth:`register_population`), whose drivers are built on touch.
        self._nodes: Mapping[int, NodeInterface] = {}
        #: Dense mirror of ``_nodes`` keyed by node id (``None`` = empty slot).
        self._node_seq: Any = []
        #: The table that owns the population's slots, once there is one:
        #: a column population's from set-up on, else the plan's.
        self._store: NodeArrayTable | None = None
        self._fifo_last: dict[tuple[int, int], float] = {}
        self._pending_absence: set[tuple[int, int]] = set()
        # Pre-bound hot-path callables (saves attribute chains per message).
        self._has_edge = graph.has_edge
        self._removed_during = graph.removed_during
        #: Live view: while empty, no message sent over a present edge can
        #: have lost it, so singleton deliveries skip the drop predicate.
        self._ever_removed = graph.ever_removed
        #: The one seam every ``PRIORITY_DELIVERY`` push goes through
        #: (messages, discoveries, the batch table's bursts): a
        #: ``push_typed``-shaped callable.  The sharded backend rebinds it
        #: to key and route each record (see :mod:`repro.sim.par`).
        self._push: Callable[..., ScheduledEvent | None] = sim.queue.push_typed
        #: How this simulator executes its run -- the array-step table or
        #: ``None`` for the ``handle()`` reference, and every fast path
        #: that declined.  The one slot every reader consults; written
        #: once, by :meth:`_start_run`.
        self.plan = KernelPlan()
        #: Host seconds :meth:`_start_run` spent deciding the plan (building
        #: its table): the run's start cost (``RunResult.plan_s``).
        self.plan_s = 0.0
        sim.set_handler(KIND_DELIVER, self._handle_deliver)
        sim.set_handler(KIND_DISCOVER, self._handle_discover)
        # Tick groups originate from the table's timer runs, and from a
        # column population's first ticks (whose plan may yet decline).
        sim.set_handler(KIND_TICK_BURST, self._handle_tick_burst)
        sim.on_run_start(self._start_run)
        graph.subscribe(self._on_graph_event)

    def attach_tracer(self, tracer: "Tracer") -> None:
        """Record message flights / topology spans into ``tracer``.

        Must be attached before nodes start sending: the tracer's FIFO
        flight correlation assumes it sees every send on a link.
        """
        self._tracer = tracer

    def instrument(self, registry: "MetricsRegistry") -> None:
        """Register transport metrics as polled readbacks on ``registry``.

        The transport keeps counting into :class:`TransportStats` exactly
        as before; telemetry only reads those counters out-of-band, so the
        send/deliver hot paths gain no per-message work at all.
        """
        stats = self.stats

        def _stat_reader(field: str) -> Any:
            return lambda: getattr(stats, field)

        for field in TransportStats.__slots__:
            registry.counter_fn(f"transport.{field}", _stat_reader(field))
        registry.counter_fn("transport.edge_flips", lambda: self.edge_flips)
        registry.counter_fn("kernel.array_events", lambda: self.array_events)
        for field in LANE_FIELDS:
            registry.counter_fn(
                f"kernel.{field}", lambda field=field: self.lane_counts()[field]
            )
        registry.gauge_fn(
            "transport.in_flight",
            lambda: stats.sent
            - stats.delivered
            - stats.dropped_no_edge
            - stats.dropped_removed,
        )

    def lane_counts(self) -> dict[str, int]:
        """The plan's table tallies (:data:`~repro.core.batch.LANE_FIELDS`:
        events per lane, deliveries that scanned Gamma), zeros without
        a table."""
        table = self.plan.table
        return {f: 0 if table is None else getattr(table, f) for f in LANE_FIELDS}

    @property
    def array_events(self) -> int:
        """Events the plan's table executed so far, on either lane (``0``
        without one): the share of the run that bypassed ``handle()``."""
        table = self.plan.table
        return 0 if table is None else table.array_events

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #

    def register_node(self, node_id: int, node: NodeInterface) -> None:
        """Attach a node implementation to a graph node id."""
        if not self.graph.has_node(node_id):
            raise ValueError(f"unknown node id {node_id!r}")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        cast("dict[int, NodeInterface]", self._nodes)[node_id] = node
        seq = self._node_seq
        while len(seq) <= node_id:
            seq.append(None)
        seq[node_id] = node

    def register_population(self, population: "Population") -> None:
        """Attach a column population whole: the ids of ``population``,
        each driver built on first touch (no node may be registered
        besides).  Its store's ``tick`` records carry node ids, and the
        transport dispatches them."""
        self._nodes = self._node_seq = population
        self._store = population.store
        self.sim.set_handler(KIND_TIMER, self._handle_timer)

    def node(self, node_id: int) -> NodeInterface:
        """The node implementation registered for ``node_id``."""
        return self._nodes[node_id]

    def announce_initial_edges(self) -> None:
        """Deliver ``discover(add)`` for every edge of ``E_0`` at ``t = 0``,
        scheduled (not called) so nodes see it through the event pipeline
        before their first tick.

        Under a :class:`~repro.network.discovery.ConstantDiscovery` (by
        exact type) all of E_0 shares one fire time and travels as one
        *wave* record: the node and peer ids of its rows as two columns
        (:class:`~repro.core.batch.WaveRows`), in :meth:`_announce_each`'s
        push order.
        """
        policy = self.discovery_policy
        if type(policy) is not ConstantDiscovery:
            self._announce_each()
            return
        owner, peer = self.graph.adjacency()
        edge = owner < peer  # each edge once, as edges() yields it
        nids = np.column_stack((owner[edge], peer[edge])).ravel()
        others = np.column_stack((peer[edge], owner[edge])).ravel()
        if len(self._nodes) < self.graph.n:  # nodes may be registered lazily
            known = np.isin(nids, list(self._nodes))
            nids, others = nids[known], others[known]
        if len(nids):
            self._push(
                self._discovery_time(policy.value, self.sim.now),
                PRIORITY_DELIVERY, KIND_DISCOVER, nids, others, None, None,
                None, "discover+", e=len(nids),
            )

    def _announce_each(self) -> None:
        """E_0 announced one record per endpoint: the reference the wave
        is tested against, and the path of every non-constant policy."""
        now = self.sim.now
        for u, v in self.graph.edges():
            self._schedule_discovery(u, v, added=True, change_time=now)
            self._schedule_discovery(v, u, added=True, change_time=now)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, u: int, v: int, payload: Any) -> None:
        """Send ``payload`` from ``u`` to ``v`` under the Section 3.2 contract."""
        self.send_many(u, (v,), payload)

    def send_many(self, u: int, vs: Iterable[int], payload: Any) -> None:
        """Send ``payload`` from ``u`` to each of ``vs``, in order, each
        message under the Section 3.2 contract (a tick's sends: one call)."""
        now = self.sim.now
        stats = self.stats
        nbrs = self.graph.neighbors(u)  # nothing below mutates the graph
        delay_of = self.delay_policy.delay
        fifo = self._fifo_last
        tracer = self._tracer
        if tracer is not None:
            table = tracer.table
            tdata, tbase = table.data, table.base
        push = self._push
        for v in vs:
            stats.sent += 1
            if v not in nbrs:
                stats.dropped_no_edge += 1
                if tracer is not None:
                    tracer.flight_fail(u, v, now)
                self._schedule_absence_discovery(u, v, send_time=now)
                continue
            delay = delay_of(u, v, now)
            if delay < 0.0 or delay > self.max_delay + 1e-9:
                raise ValueError(
                    f"delay policy produced {delay!r} outside [0, {self.max_delay}]"
                )
            t_deliver = now + delay
            link = (u, v)
            prev = fifo.get(link, 0.0)
            if t_deliver < prev:
                t_deliver = prev  # FIFO clamp; see module docstring
            fifo[link] = t_deliver
            # The flight span, opened inline (the hottest tracer site) and
            # *optimistically closed* -- the FIFO clamp fixed ``t_deliver``
            # -- rides the record's observer slot ``e``; a drop patches it
            # in :meth:`_deliver`, a still-in-flight one
            # :meth:`finalize_tracing`.
            sid = -1
            if tracer is not None:
                sid = tbase + (len(tdata) >> 3)
                if sid < table.capacity:
                    tdata.extend(
                        (SPAN_FLIGHT, u, v, now, t_deliver, tracer.current,
                         STATUS_DONE, 0.0)
                    )
                else:
                    table.dropped += 1
                    sid = -1
            push(
                t_deliver, PRIORITY_DELIVERY, KIND_DELIVER, u, v, payload, now,
                None, "deliver", e=sid,
            )

    def _handle_deliver(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DELIVER`` records (one per message):
        the table executes a message that clears the Section 3.2
        predicate (vacuous while no edge was ever removed); a drop, and
        every message of a reference population, is :meth:`_deliver`'s.
        """
        u = ev.a
        v = ev.b
        table = self.plan.table
        if table is None or (
            self._ever_removed
            and (
                not self._has_edge(u, v)
                or self._removed_during(u, v, ev.d, self.sim.now)
            )
        ):
            self._deliver(u, v, ev.c, ev.d, ev.e)
            return
        self.stats.delivered += 1
        table.deliver_one(u, v, ev.c, ev.e)

    def _handle_deliver_batch(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for same-timestamp ``KIND_DELIVER`` runs:
        the drop rule per record, the survivors to the table."""
        dead = self._drop_failed(
            [ev.a for ev in records],
            [ev.b for ev in records],
            [ev.d for ev in records],
            None if self._tracer is None else [ev.e for ev in records],
        )
        if dead:
            records = [ev for i, ev in enumerate(records) if i not in dead]
        self._table.deliver_batch(records)
        self.stats.delivered += len(records)

    def _drop_failed(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        send_times: Iterable[float],
        sids: "Sequence[int | None] | None" = None,
    ) -> Collection[int]:
        """Apply the Section 3.2 drop rule to same-timestamp deliveries.

        Evaluates :meth:`_deliver`'s predicate for each ``us[i] -> vs[i]``
        sent at ``send_times[i]`` and accounts for every drop in record
        order (``dropped_removed``, absence discovery and -- with ``sids``
        the flights' span ids -- the span closed ``STATUS_DROPPED``);
        returns the dropped positions.
        """
        if self.graph.never_removed(us, vs):
            return ()
        now = self.sim.now
        has_edge = self._has_edge
        removed_during = self._removed_during
        tracer = self._tracer
        dead: set[int] = set()
        for i, (u, v, st) in enumerate(zip(us, vs, send_times)):
            if not has_edge(u, v) or removed_during(u, v, st, now):
                self.stats.dropped_removed += 1
                if sids is not None:
                    sid = sids[i]
                    if sid is not None and tracer is not None:
                        tracer.flight_drop(sid, now)
                self._schedule_absence_discovery(u, v, send_time=st)
                dead.add(i)
        return dead

    def _start_run(self) -> None:
        """Run-start hook: decide the kernel plan (once, where the first
        ``run_until`` / ``step`` begins) and register the run, burst and
        tick-group handlers, which exist only on a table."""
        t0 = perf_counter()
        plan = self.plan = kernel_plan(self, *self._plan_scope)
        self.plan_s = perf_counter() - t0
        if plan.table is None:
            return
        self._store = plan.table
        sim = self.sim
        sim.set_handler(KIND_DELIVER_BURST, self._handle_deliver_burst)
        sim.set_batch_handler(KIND_DELIVER, self._handle_deliver_batch)
        sim.set_batch_handler(KIND_DISCOVER, self._handle_discover_batch)
        if plan.engaged("timer_runs"):
            sim.set_batch_handler(KIND_TIMER, self._handle_timer_batch)

    @property
    def _table(self) -> NodeArrayTable:
        """The plan's table, for the handlers registered only on one."""
        table = self.plan.table
        assert table is not None
        return table

    def _handle_timer(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_TIMER`` records (``a=driver, b=key``;
        a table's ``tick`` records carry the node id instead).

        Registered by the drivers themselves (see
        :class:`~repro.core.node.ClockSyncNode`) or by a column population.
        On the plan's table a ``tick`` is one per-node body and a ``lost``
        wake record fires the timers due now; anything else goes through
        :meth:`~repro.core.node.ClockSyncNode._fire_timer`.
        """
        table = self.plan.table
        if table is not None:
            key = ev.b
            if key == _TICK:
                table.tick_one(ev)
                return
            if key == _LOST:
                table.lost_wake(ev)
                return
        node = ev.a
        if type(node) is int:
            node = self._node_seq[node]
        node._fire_timer(ev.b)

    def _handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for same-timestamp ``KIND_TIMER`` runs
        (registered only when the plan engaged ``timer_runs``)."""
        self._table.handle_timer_batch(records)

    def _handle_tick_burst(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_TICK_BURST`` records: re-expand the
        group's cardinality ``ev.e`` into the dispatch tallies (the kernel
        counted one dispatch), then execute -- without a table (a column
        population whose plan declined), as its members' ticks in order:
        a group exists only under positive constant delays, so nothing a
        tick pushes sorts between two of them."""
        sim = self.sim
        card = ev.e
        sim.events_dispatched += card - 1
        kind_counts = sim.kind_counts
        if kind_counts is not None:
            kind_counts[KIND_TICK_BURST] -= 1
            kind_counts[KIND_TIMER] += card
        table = self.plan.table
        if table is not None:
            table.handle_tick_group(ev)
            return
        for i in ev.a:
            self._node_seq[i]._fire_timer(_TICK)

    def _handle_deliver_burst(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DELIVER_BURST`` records: re-expand the
        cardinality into the tallies, apply the drop rule per constituent,
        hand the survivors to the table."""
        sim = self.sim
        us = ev.a
        vs = ev.b
        payloads = ev.c
        sids = ev.e
        card = len(us)
        sim.events_dispatched += card - 1
        kind_counts = sim.kind_counts
        if kind_counts is not None:
            kind_counts[KIND_DELIVER_BURST] -= 1
            kind_counts[KIND_DELIVER] += card
        dead = self._drop_failed(us, vs, repeat(ev.d), sids)
        if dead:
            live = [i for i in range(card) if i not in dead]
            us = [us[i] for i in live]
            vs = [vs[i] for i in live]
            payloads = [payloads[i] for i in live]
            if sids is not None:
                sids = [sids[i] for i in live]
        self._table.deliver_burst(us, vs, payloads, sids)
        self.stats.delivered += len(us)

    def _deliver(
        self, u: int, v: int, payload: Any, send_time: float,
        sid: int | None = -1,
    ) -> None:
        now = self.sim.now
        if sid is None:
            sid = -1  # record pushed before a tracer was attached
        if not self._has_edge(u, v) or self._removed_during(u, v, send_time, now):
            # The edge failed while the message was in flight: drop, and make
            # sure the sender learns within discovery_bound of the send.
            self.stats.dropped_removed += 1
            if self._tracer is not None and sid >= 0:
                self._tracer.table.close(sid, now, STATUS_DROPPED)
            self._schedule_absence_discovery(u, v, send_time=send_time)
            return
        self.stats.delivered += 1
        node = self._node_seq[v]
        assert node is not None
        tracer = self._tracer
        if tracer is not None:
            # The span was closed optimistically at send time (its t1 is
            # exact); delivery only enters/leaves the causal scope.
            tracer.current = sid
            node.on_message(u, payload)
            tracer.current = -1
        else:
            node.on_message(u, payload)

    def finalize_tracing(self) -> None:
        """Re-mark the spans of still-queued deliveries, once after the run.

        Flight spans are written ``STATUS_DONE`` at send time; a message
        the horizon caught mid-flight becomes ``STATUS_PENDING``, or --
        its edge already failed, as :meth:`_deliver` would find --
        ``STATUS_DROPPED`` at the horizon.  O(pending queue), burst
        constituents included.
        """
        tracer = self._tracer
        if tracer is None:
            return
        now = self.sim.now
        pending: list[int] = []
        doomed: list[int] = []
        for ev in self.sim.queue.live_events():
            if ev.kind == KIND_DELIVER:
                us, vs, sids = (ev.a,), (ev.b,), (ev.e,)
            elif ev.kind == KIND_DELIVER_BURST and ev.e is not None:
                us, vs, sids = ev.a, ev.b, ev.e
            else:
                continue
            never_removed = self.graph.never_removed(us, vs)
            for u, v, sid in zip(us, vs, sids):
                if sid is None or sid < 0:
                    continue
                if never_removed or (
                    self._has_edge(u, v)
                    and not self._removed_during(u, v, ev.d, now)
                ):
                    pending.append(sid)
                else:
                    doomed.append(sid)
        tracer.table.close_many(pending, STATUS_PENDING)
        tracer.table.close_many(doomed, STATUS_DROPPED, now)

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #

    def _on_graph_event(self, time: float, u: int, v: int, added: bool) -> None:
        self.edge_flips += 1
        if self._store is not None:
            self._store.flip(u, v, added)
        if self._tracer is not None:
            self._tracer.edge_flip(time, u, v, added)
        self._schedule_discovery(u, v, added=added, change_time=time)
        self._schedule_discovery(v, u, added=added, change_time=time)

    def _schedule_discovery(
        self, node_id: int, other: int, *, added: bool, change_time: float
    ) -> None:
        if node_id not in self._nodes:
            return  # Nodes may be registered lazily in tests.
        lat = self.discovery_policy.latency(node_id, other, added, change_time)
        self._push(
            self._discovery_time(lat, change_time), PRIORITY_DELIVERY,
            KIND_DISCOVER, node_id, other, added, False, None, "discover",
        )

    def _discovery_time(self, lat: float, change_time: float) -> float:
        """Fire time of a discovery ``lat`` after ``change_time`` (checked
        against the :math:`\\mathcal{D}` bound)."""
        if lat < 0.0 or lat > self.discovery_bound + 1e-9:
            raise ValueError(
                f"discovery latency {lat!r} outside [0, {self.discovery_bound}]"
            )
        return max(change_time + lat, self.sim.now)

    def _schedule_absence_discovery(self, u: int, v: int, *, send_time: float) -> None:
        """Ensure ``u`` learns edge ``{u, v}`` is gone by ``send_time + D``."""
        if u not in self._nodes:
            return
        key = (u, v)
        if key in self._pending_absence:
            return
        self._pending_absence.add(key)
        lat = self.discovery_policy.latency(u, v, False, send_time)
        fire_at = min(send_time + lat, send_time + self.discovery_bound)
        fire_at = max(fire_at, self.sim.now)
        self._push(
            fire_at, PRIORITY_DELIVERY, KIND_DISCOVER, u, v, False, True,
            None, "discover",
        )

    def _discover_rows(self, records: Sequence[ScheduledEvent]) -> DiscoveryRows:
        """``(node, other, added, absence)`` per discovery, in dispatch
        order (a lone wave: its columns).  The kernel counted a wave (``e``
        = its cardinality) as one dispatch; the rest is re-expanded into
        the tallies here, as :meth:`_handle_deliver_burst` does for a
        burst."""
        sim = self.sim
        rows: list[tuple[int, int, bool, bool]] = []
        for ev in records:
            card = ev.e
            if card is None:
                rows.append((ev.a, ev.b, ev.c, ev.d))
                continue
            sim.events_dispatched += card - 1
            if sim.kind_counts is not None:
                sim.kind_counts[KIND_DISCOVER] += card - 1
            wave = WaveRows(ev.a, ev.b)
            if len(records) == 1:
                return wave
            rows.extend(wave)
        return rows

    def _handle_discover(self, ev: ScheduledEvent) -> None:
        """Kernel handler for ``KIND_DISCOVER`` records.

        Verifies the change still holds at fire time (a reversed one may
        go unnoticed); ``d=True`` marks the failed-send absence path,
        which also clears its dedup key.  On the plan's table the record
        -- a wave: its rows -- runs through
        :meth:`~repro.core.batch.NodeArrayTable.discover_run` instead.
        """
        rows: DiscoveryRows
        if ev.e is None:  # the in-run case: one row, no expander
            rows = ((ev.a, ev.b, ev.c, ev.d),)
        else:
            rows = self._discover_rows((ev,))
        table = self.plan.table
        if table is not None:
            table.discover_run(rows)
            return
        tracer = self._tracer
        for node_id, other, added, absence in rows:
            if absence:
                self._pending_absence.discard((node_id, other))
            if self.graph.has_edge(node_id, other) != added:
                self.stats.discoveries_skipped += 1
                continue
            self.stats.discoveries_delivered += 1
            node = self._node_seq[node_id]
            assert node is not None
            if tracer is not None:
                tracer.discover(node_id, other, self.sim.now, added)
            if added:
                node.on_discover_add(other)
            else:
                node.on_discover_remove(other)
            if tracer is not None:
                tracer.reset_current()

    def _handle_discover_batch(self, records: list[ScheduledEvent]) -> None:
        """Kernel batch handler for same-timestamp ``KIND_DISCOVER`` runs:
        one array pass."""
        self._table.discover_run(self._discover_rows(records))
