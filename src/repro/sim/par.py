"""Space-partitioned parallel simulation backend with delay-bound lookahead.

The serial kernel dispatches every event of the execution in one process.
For large populations under *constant* message delay there is exploitable
structure: a message sent at time ``s`` cannot be delivered before
``s + c`` (``c`` = the constant delay), so two regions of the graph cannot
influence each other within any window shorter than ``c``.  This module
runs ``K`` contiguous node shards as full-replica simulations in forked
worker processes, synchronised by conservative lookahead windows:

* **Partitioning** (:mod:`repro.sim.partition`): node ids are split into
  ``K`` contiguous ranges chosen to minimise the number of *union* edges
  (initial edges plus every edge any scripted churn event ever touches)
  crossing a shard boundary.
* **Lookahead windows**: barriers are placed on the multiples of ``c/2``
  plus every oracle sample time plus ``{0, horizon}``, so every window is
  at most ``c/2`` wide.  A message sent inside window ``(b_{j-1}, b_j]``
  delivers at ``s + c > b_j + c/2``, strictly past the barrier at which it
  is flushed -- cross-shard sends therefore travel as timestamped
  *envelopes*, exchanged at the barrier, and always arrive in the
  destination shard's future.
* **Replication**: each worker builds the *full* graph, all ``n`` hardware
  clocks (consuming the shared RNG streams exactly as the serial harness
  does) and the complete churn script, but constructs node automatons only
  for its own range.  Topology and discovery therefore replay identically
  everywhere; only node events (deliveries, timers) are partitioned.
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

* setup phase (initial-edge announcement): ``(0.0, -1)``;
* per-node start marker: ``(0.0, -1, inf, node_id)`` (sorts after every
  announcement key; defensive -- no core sends at ``Start``);
* topology dispatch: ``(t, 0, topology_index)`` -- the per-transport
  topology counter is identical in every shard because churn replays
  everywhere;
* delivery/discovery dispatch: ``(t, 1) + record_key`` -- the parent's own
  flattened heap position;
* timer dispatch: ``(t, 2, arm_time, phase, node_id)`` -- arm time and a
  setup/run phase bit ride in the timer record's free ``d``/``e`` slots
  (see :meth:`repro.core.node.ClockSyncNode._arm_timer`); under constant
  rates and unstaggered ticks this tuple ranks timer dispatches exactly as
  their serial sequence numbers would.

The middle elements are the event priority constants, so prefixes from
different dispatch classes at one timestamp sort in dispatch order.
``KIND_TIMER``/``KIND_TOPOLOGY``/``KIND_SAMPLE`` records keep ordinary
integer sequence numbers: those classes are never merged across shards,
and heap comparisons resolve on ``(time, priority)`` before ever touching
a key, so integer and tuple keys never meet.

**Cross-shard drop semantics.**  Under churn, a delivery's drop predicate
(edge removed while in flight) must be evaluated on the *sending* shard
too, because the sender schedules the absence discovery.  Each envelope
therefore leaves a sender-local :data:`~repro.sim.events.KIND_PAR_SHADOW`
record at the same ``(time, priority, key)``; graph replicas are
identical, so both sides agree on the predicate: the receiver delivers or
silently drops, the sender counts ``dropped_removed`` and schedules the
discovery.

**Batch kernel under shards.**  The dense-array fast path runs per shard
through :class:`ParNodeArrayTable` with one extra routing rule: burst
records may only carry *interior* destinations (local nodes with no
remote union-edge neighbour).  Frontier destinations get individual keyed
records -- an incoming envelope could sort between two of a burst's
constituents, and per-destination interleaving must stay exact; interior
destinations can never receive envelopes, and deliveries to distinct
destinations commute.  Scripted churn forces the scalar path (the gate
records a reason), which is exact by construction.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import Connection
from multiprocessing.sharedctypes import RawArray
from typing import TYPE_CHECKING, Any, Callable, cast

import numpy as np

from ..core.batch import REASON_KEY, NodeArrayTable
from ..core.dcsa import adjust_clocks_batch
from ..core.protocol import DCSACore
from ..network.channels import ConstantDelay
from ..network.churn import ScriptedChurn
from ..network.graph import DynamicGraph
from ..network.transport import Transport
from .clocks import ConstantRateClock, validate_drift
from .events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_DISCOVER,
    KIND_PAR_SHADOW,
    KIND_TICK_BURST,
    KIND_TIMER,
    KIND_TOPOLOGY,
    N_KINDS,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    ScheduledEvent,
)
from .partition import partition_ranges
from .rng import RngFactory
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..core.node import ClockSyncNode
    from ..harness.runner import ExperimentConfig, RunResult

__all__ = [
    "run_par",
    "genuine_shard_reason",
    "ParTransport",
    "ParNodeArrayTable",
    "ShmNodeView",
    "build_par_table",
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

_STAT_FIELDS = (
    "sent",
    "delivered",
    "dropped_no_edge",
    "dropped_removed",
    "discoveries_delivered",
    "discoveries_skipped",
)


def genuine_shard_reason(cfg: "ExperimentConfig") -> str | None:
    """Why ``cfg`` cannot run genuinely sharded (``None`` = it can).

    The parallel backend requires the execution ingredients that make the
    ``c/2`` lookahead and the provenance-key scheme sound: constant
    positive message delay, constant discovery latency, constant-rate
    clocks with deterministic assignment, no per-event observers, and
    churn that replays identically in every shard.  Anything else falls
    back to the serial backend with the returned reason recorded on
    ``RunResult.par_fallback_reason``.
    """
    if not isinstance(cfg.delay_spec, str) or cfg.delay_spec not in ("max", "half"):
        return "delay_spec must be the constant 'max' or 'half' policy"
    params = cfg.params
    if params.max_delay <= 0.0:
        return "max_delay must be positive (it sets the lookahead window)"
    c = params.max_delay if cfg.delay_spec == "max" else 0.5 * params.max_delay
    if float(cfg.horizon) / c > _MAX_WINDOWS:
        return "horizon/delay ratio needs too many lookahead windows"
    if not isinstance(cfg.discovery_spec, str) or cfg.discovery_spec not in (
        "max",
        "zero",
    ):
        return "discovery_spec must be the constant 'max' or 'zero' policy"
    if not isinstance(cfg.clock_spec, str) or cfg.clock_spec not in (
        "split",
        "alternating",
        "uniform",
        "perfect",
    ):
        return (
            "clock_spec must be a constant-rate spec "
            "(split/alternating/uniform/perfect)"
        )
    if cfg.stagger_ticks:
        return "staggered first ticks are not supported by the parallel backend"
    if cfg.adversary is not None:
        return "adversaries require the serial backend"
    if cfg.trace:
        return "structured tracing requires the serial backend"
    if cfg.record:
        return "the SkewRecorder requires the serial backend (disable record)"
    from ..tracing.context import active_tracer

    if active_tracer() is not None:
        return "causal tracing is active"
    for proc in cfg.churn:
        if not isinstance(proc, ScriptedChurn):
            return "only ScriptedChurn replays identically across shards"
    return None


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
        shadows: bool,
    ) -> None:
        #: Dispatch-context prefix and per-dispatch emission counter (the
        #: global key of the next keyed push is ``_gp + (_gc,)``).
        self._gp: GKey = (0.0, -1)
        self._gc = 0
        #: Topology dispatch counter; identical in every shard because the
        #: full churn script replays everywhere in the same order.
        self._topo_idx = 0
        self._lo = lo
        self._hi = hi
        #: Local nodes with at least one remote union-edge neighbour; only
        #: these can receive envelopes, so only these are excluded from
        #: burst aggregation.
        self._frontier = frontier
        #: Whether cross-shard sends leave sender-side shadow records
        #: (needed only when churn can drop in-flight messages).
        self._shadows = shadows
        self._envelopes: list[Envelope] = []
        super().__init__(
            sim,
            graph,
            delay_policy=delay_policy,
            discovery_policy=discovery_policy,
            max_delay=max_delay,
            discovery_bound=discovery_bound,
        )
        sim.set_handler(KIND_PAR_SHADOW, self._handle_par_shadow)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, u: int, v: int, payload: Any) -> None:
        """Keyed mirror of :meth:`Transport.send` (tracing is gated off)."""
        now = self.sim.now
        self.stats.sent += 1
        if not self._has_edge(u, v):
            self.stats.dropped_no_edge += 1
            self._schedule_absence_discovery(u, v, send_time=now)
            return
        delay = self.delay_policy.delay(u, v, now)
        if delay < 0.0 or delay > self.max_delay + 1e-9:
            raise ValueError(
                f"delay policy produced {delay!r} outside [0, {self.max_delay}]"
            )
        t_deliver = now + delay
        link = (u, v)
        fifo = self._fifo_last
        prev = fifo.get(link, 0.0)
        if t_deliver < prev:
            t_deliver = prev  # FIFO clamp; see Transport.send
        fifo[link] = t_deliver
        key = self._gp + (self._gc,)
        self._gc += 1
        if self._lo <= v < self._hi:
            self.sim.queue.push_keyed(
                t_deliver, PRIORITY_DELIVERY, key, KIND_DELIVER, u, v, payload,
                now, None, "deliver", e=-1,
            )
        else:
            self._envelopes.append((t_deliver, key, u, v, payload, now))
            if self._shadows:
                # Sender-side drop-predicate mirror at the same global
                # position as the remote delivery (see module docstring).
                self.sim.queue.push_keyed(
                    t_deliver, PRIORITY_DELIVERY, key, KIND_PAR_SHADOW, u, v,
                    payload, now, None, "shadow",
                )

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #

    def _schedule_discovery(
        self, node_id: int, other: int, *, added: bool, change_time: float
    ) -> None:
        # The key is consumed BEFORE the locality skip: every shard then
        # burns the same counter values for both endpoints of a topology
        # event, so a given discovery carries the same key in the one
        # shard that actually pushes it.
        key = self._gp + (self._gc,)
        self._gc += 1
        if node_id not in self._nodes:
            return
        lat = self.discovery_policy.latency(node_id, other, added, change_time)
        if lat < 0.0 or lat > self.discovery_bound + 1e-9:
            raise ValueError(
                f"discovery latency {lat!r} outside [0, {self.discovery_bound}]"
            )
        fire_at = max(change_time + lat, self.sim.now)
        self.sim.queue.push_keyed(
            fire_at, PRIORITY_DELIVERY, key, KIND_DISCOVER, node_id, other,
            added, False, None, "discover",
        )

    def _schedule_absence_discovery(
        self, u: int, v: int, *, send_time: float
    ) -> None:
        # Absence discoveries only ever originate where the sender is
        # local, and serial consumes a sequence number only when it
        # actually pushes -- so the dedup check precedes key consumption.
        if u not in self._nodes:
            return
        pair = (u, v)
        if pair in self._pending_absence:
            return
        self._pending_absence.add(pair)
        key = self._gp + (self._gc,)
        self._gc += 1
        lat = self.discovery_policy.latency(u, v, False, send_time)
        fire_at = min(send_time + lat, send_time + self.discovery_bound)
        if fire_at < self.sim.now:
            fire_at = self.sim.now
        self.sim.queue.push_keyed(
            fire_at, PRIORITY_DELIVERY, key, KIND_DISCOVER, u, v, False, True,
            None, "discover",
        )

    def _handle_discover(self, ev: ScheduledEvent) -> None:
        # Sends emitted while handling the discovery (greeting a new
        # neighbour) extend the discovery's own global position.
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        super()._handle_discover(ev)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def _dispatch_deliver_record(self, ev: ScheduledEvent) -> None:
        """Scalar delivery of one keyed record (local or envelope)."""
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        if ev.e == -2:
            # Merged envelope: the sender-side shadow (or nothing, when no
            # churn exists) owns the drop accounting; the receiver only
            # delivers or silently drops.
            u, v = ev.a, ev.b
            if not self._has_edge(u, v) or self._removed_during(
                u, v, ev.d, self.sim.now
            ):
                return
            self.stats.delivered += 1
            node = self._node_seq[v]
            assert node is not None
            node.on_message(u, ev.c)
        else:
            self._deliver(ev.a, ev.b, ev.c, ev.d, -1)

    def _handle_deliver(self, ev: ScheduledEvent) -> None:
        self._dispatch_deliver_record(ev)

    def _handle_deliver_batch(self, records: list[ScheduledEvent]) -> None:
        table = self._ensure_batch_table()
        if (
            table is not False
            and self.edge_flips == 0
            and self._trace is None
            and self._tracer is None
        ):
            assert not isinstance(table, bool)
            # Envelope records (e=-2) ride the fast path too: with no edge
            # flip ever, the drop predicate is False for every record.
            table.deliver_batch(records)
            self.stats.delivered += len(records)
            return
        for ev in records:
            self._dispatch_deliver_record(ev)

    def _handle_deliver_burst(self, ev: ScheduledEvent) -> None:
        # The base handler applies the drop rule to each constituent, and
        # a drop pushes a keyed absence discovery, so the context must be
        # set.  Scripted churn keeps the table (and with it bursts) away,
        # but an edge flipped by any other route can land under a burst
        # already in flight.
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        super()._handle_deliver_burst(ev)

    def _handle_par_shadow(self, ev: ScheduledEvent) -> None:
        """Sender-side drop check of a cross-shard delivery (see module doc)."""
        self._gp = (self.sim.now, 1) + cast(GKey, ev.seq)
        self._gc = 0
        u, v = ev.a, ev.b
        if not self._has_edge(u, v) or self._removed_during(
            u, v, ev.d, self.sim.now
        ):
            self.stats.dropped_removed += 1
            self._schedule_absence_discovery(u, v, send_time=ev.d)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #

    def _handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        table = self._ensure_batch_table()
        if table is not False:
            assert not isinstance(table, bool)
            table.handle_timer_batch(records)
            return
        for rec in records:
            self._gp = (self.sim.now, 2, rec.d, rec.e, rec.a.node_id)
            self._gc = 0
            rec.a._fire_timer(rec.b)

    # ------------------------------------------------------------------ #
    # Batch table
    # ------------------------------------------------------------------ #

    def _ensure_batch_table(self) -> "NodeArrayTable | bool":
        table = self._batch_table
        if table is None:
            if self._shadows:
                self.sim.subsystems.setdefault(
                    REASON_KEY,
                    "scripted churn runs on the scalar path under the "
                    "parallel backend",
                )
                table = False
            else:
                built = build_par_table(
                    self.sim, self, self._lo, self._hi, self._frontier
                )
                table = built if built is not None else False
            self._batch_table = table
        return table


class ParNodeArrayTable(NodeArrayTable):
    """Shard-local dense batch table with frontier/envelope routing.

    Mirrors :class:`~repro.core.batch.NodeArrayTable` over the shard's
    node range -- the inherited column lists are full-length with ``None``
    holes outside ``[lo, hi)`` so global node ids index directly -- and
    replaces the send fan-out of the timer handlers: interior local
    destinations aggregate into one keyed burst, frontier locals get
    individual keyed records, remote destinations become envelopes.
    """

    __slots__ = ("lo", "hi", "frontier", "par_transport", "_ups_sorted")

    def __init__(
        self,
        sim: Simulator,
        transport: ParTransport,
        drivers: "list[ClockSyncNode | None]",
        rates: list[float],
        lo: int,
        hi: int,
        frontier: frozenset[int],
    ) -> None:
        # Deliberately no super().__init__: the base snapshots cores for
        # every driver slot, and remote slots are holes here.
        self.sim = sim
        self.transport = transport
        self.par_transport = transport
        self.drivers = cast("list[ClockSyncNode]", drivers)
        self.cores = cast(
            "list[DCSACore]",
            [d.core if d is not None else None for d in drivers],
        )
        self.rates = rates
        self.rates_arr = np.asarray(rates[lo:hi], dtype=np.float64)
        c0 = self.cores[lo]
        params = c0.params
        self.tick_interval = params.tick_interval
        self.delta_t_prime = params.delta_t_prime
        self.b0 = c0._b0
        self.b_intercept = c0._b_intercept
        self.b_slope = c0._b_slope
        self.send_delay = None
        #: Per-node cached ``(sorted(upsilon), (node_id,) * k)`` send
        #: template; only consulted while ``edge_flips == 0``, where the
        #: believed-neighbour set grows monotonically, so a length match
        #: proves the cache current.
        self._ups_sorted: list[tuple[list[int], tuple[int, ...]] | None] = (
            [None] * len(drivers)
        )
        self.lo = lo
        self.hi = hi
        self.frontier = frontier

    # ------------------------------------------------------------------ #
    # Timer batch (keyed fan-out)
    # ------------------------------------------------------------------ #

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Keyed mirror of :meth:`NodeArrayTable.handle_timer_batch`."""
        transport = self.par_transport
        sim = self.sim
        now = sim.now
        delayv = self.send_delay
        if (
            delayv is None
            or transport.edge_flips != 0
            or any(ev.b != _TICK for ev in records)
        ):
            # Mixed or non-bulk run: scalar replay in record order, each
            # dispatch under its own timer provenance context.
            for rec in records:
                transport._gp = (now, 2, rec.d, rec.e, rec.a.node_id)
                transport._gc = 0
                rec.a._fire_timer(rec.b)
            return
        cores = self.cores
        rates = self.rates
        queue = sim.queue
        push_keyed = queue.push_keyed
        lo = self.lo
        hi = self.hi
        frontier = self.frontier
        ups_sorted = self._ups_sorted
        ti = self.tick_interval
        envelopes = transport._envelopes
        t_del = now + delayv
        u_list: list[int] = []
        v_list: list[int] = []
        p_list: list[Any] = []
        burst_key: GKey | None = None
        tick_cores: list[DCSACore] = []
        fts: list[float] = []
        sent = 0
        for ev in records:
            d = ev.a
            nid = d.node_id
            core = cores[nid]
            h = rates[nid] * now
            dh = h - core.h_last
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                for row in core.gamma._rows.values():
                    row.l_est += dh
                core.h_last = h
            d._t_last = now
            ups = core.upsilon
            if ups:
                payload = (core._L, core._Lmax)
                k = len(ups)
                entry = ups_sorted[nid]
                if entry is None or len(entry[0]) != k:
                    entry = (sorted(ups), (nid,) * k)
                    ups_sorted[nid] = entry
                core.messages_sent += k
                sent += k
                gp: GKey = (now, 2, ev.d, ev.e, nid)
                ctr = 0
                for v in entry[0]:
                    key = gp + (ctr,)
                    ctr += 1
                    if v < lo or v >= hi:
                        envelopes.append((t_del, key, nid, v, payload, now))
                    elif v in frontier:
                        # Frontier destination: an envelope could sort
                        # between burst constituents aimed at it, so it
                        # must stay an individual record.
                        push_keyed(
                            t_del, PRIORITY_DELIVERY, key, KIND_DELIVER, nid,
                            v, payload, now, None, "deliver", e=-1,
                        )
                    else:
                        if burst_key is None:
                            burst_key = key
                        u_list.append(nid)
                        v_list.append(v)
                        p_list.append(payload)
            fire_t = (h + ti) / rates[nid]
            if fire_t < now:
                fire_t = now
            fts.append(fire_t)
            tick_cores.append(core)
        transport.stats.sent += sent
        if u_list:
            assert burst_key is not None
            push_keyed(
                t_del, PRIORITY_DELIVERY, burst_key, KIND_DELIVER_BURST,
                u_list, v_list, p_list, now, None, "deliver+", e=len(u_list),
            )
        # Tick re-arm (timer class, integer seqs -- never merged across
        # shards).  Group records store the arm time in d and the
        # cardinality in e; individual re-pushes refresh (d, e) so the
        # next dispatch's provenance prefix is exact.
        if len(records) > 1 and fts.count(fts[0]) == len(fts):
            grp = queue.push_typed(
                fts[0], PRIORITY_TIMER, KIND_TICK_BURST,
                [ev.a for ev in records], None, None, now, None, "tick+",
                e=len(records),
            )
            for ev in records:
                ev.a._timers[_TICK] = grp
        else:
            for ev, ft in zip(records, fts):
                ev.d = now
                ev.e = 1
                queue.repush(ev, ft)
                ev.a._timers[_TICK] = ev
        adjust_clocks_batch(tick_cores)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        """Keyed mirror of :meth:`NodeArrayTable.handle_tick_group`."""
        transport = self.par_transport
        sim = self.sim
        now = sim.now
        delayv = self.send_delay
        cores = self.cores
        rates = self.rates
        queue = sim.queue
        push_keyed = queue.push_keyed
        lo = self.lo
        hi = self.hi
        frontier = self.frontier
        ups_sorted = self._ups_sorted
        ti = self.tick_interval
        envelopes = transport._envelopes
        bulk = delayv is not None and transport.edge_flips == 0
        drivers_list = ev.a
        arm = ev.d
        u_list: list[int] = []
        v_list: list[int] = []
        p_list: list[Any] = []
        burst_key: GKey | None = None
        tick_cores: list[DCSACore] = []
        sent = 0
        ft0 = -1.0
        same = True
        for d in drivers_list:
            nid = d.node_id
            core = cores[nid]
            h = rates[nid] * now
            dh = h - core.h_last
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                for row in core.gamma._rows.values():
                    row.l_est += dh
                core.h_last = h
            d._t_last = now
            ups = core.upsilon
            if ups:
                payload = (core._L, core._Lmax)
                gp: GKey = (now, 2, arm, 1, nid)
                if bulk:
                    k = len(ups)
                    entry = ups_sorted[nid]
                    if entry is None or len(entry[0]) != k:
                        entry = (sorted(ups), (nid,) * k)
                        ups_sorted[nid] = entry
                    core.messages_sent += k
                    sent += k
                    t_del = now + cast(float, delayv)
                    ctr = 0
                    for v in entry[0]:
                        key = gp + (ctr,)
                        ctr += 1
                        if v < lo or v >= hi:
                            envelopes.append((t_del, key, nid, v, payload, now))
                        elif v in frontier:
                            push_keyed(
                                t_del, PRIORITY_DELIVERY, key, KIND_DELIVER,
                                nid, v, payload, now, None, "deliver", e=-1,
                            )
                        else:
                            if burst_key is None:
                                burst_key = key
                            u_list.append(nid)
                            v_list.append(v)
                            p_list.append(payload)
                else:
                    # Defensive (groups only form while bulk held and no
                    # churn exists in table mode): full keyed send path.
                    transport._gp = gp
                    transport._gc = 0
                    for v in sorted(ups):
                        core.messages_sent += 1
                        transport.send(nid, v, payload)
            fire_t = (h + ti) / rates[nid]
            if fire_t < now:
                fire_t = now
            if ft0 < 0.0:
                ft0 = fire_t
            elif fire_t != ft0:
                same = False
            tick_cores.append(core)
        transport.stats.sent += sent
        if u_list:
            assert burst_key is not None and delayv is not None
            push_keyed(
                now + delayv, PRIORITY_DELIVERY, burst_key,
                KIND_DELIVER_BURST, u_list, v_list, p_list, now, None,
                "deliver+", e=len(u_list),
            )
        if same:
            # Steady state: the group re-pushes itself with a fresh arm
            # time; every driver's timer entry already aliases it.
            ev.d = now
            queue.repush(ev, ft0)
        else:
            for d in drivers_list:
                nid = d.node_id
                core = cores[nid]
                fire_t = (core.h_last + ti) / rates[nid]
                if fire_t < now:
                    fire_t = now
                rec = queue.push_typed(
                    fire_t, PRIORITY_TIMER, KIND_TIMER, d, _TICK, None, now,
                    None, "timer", e=1,
                )
                d._timers[_TICK] = rec
        adjust_clocks_batch(tick_cores)

    # ------------------------------------------------------------------ #
    # Dense sample writes
    # ------------------------------------------------------------------ #

    def write_sample_columns(
        self,
        t: float,
        out_clock: "np.ndarray[Any, np.dtype[np.float64]]",
        out_max: "np.ndarray[Any, np.dtype[np.float64]]",
    ) -> None:
        """Write ``L_u(t)``/``Lmax_u(t)`` for the shard's range into shm.

        Bitwise equal to the per-node reader loop: the fused expression
        evaluates ``L + (h - h_last)`` elementwise in the same association
        order as ``core.logical_clock_at(rate * t)`` (the
        :meth:`~repro.core.batch.NodeArrayTable.clock_column` contract).
        """
        lo = self.lo
        hi = self.hi
        m = hi - lo
        cores = self.cores[lo:hi]
        L = np.fromiter((c._L for c in cores), np.float64, count=m)
        lm = np.fromiter((c._Lmax for c in cores), np.float64, count=m)
        hl = np.fromiter((c.h_last for c in cores), np.float64, count=m)
        h = self.rates_arr * t
        out_clock[lo:hi] = L + (h - hl)
        out_max[lo:hi] = lm + (h - hl)


def build_par_table(
    sim: Simulator,
    transport: ParTransport,
    lo: int,
    hi: int,
    frontier: frozenset[int],
) -> ParNodeArrayTable | None:
    """Shard-local analogue of :func:`~repro.core.batch.build_node_array_table`.

    Validates only the shard's own drivers (remote slots stay holes) and
    never publishes under the base table's subsystem key -- partial
    coverage must not be mistaken for a full table by other readers.
    Decline reasons land under the shared ``REASON_KEY``.
    """

    def _decline(reason: str) -> None:
        sim.subsystems.setdefault(REASON_KEY, reason)

    node_table = sim.subsystems.get("node_table")
    if node_table is None:
        _decline("no dense node table attached to the simulator")
        return None
    drivers: "list[ClockSyncNode | None]" = node_table.drivers
    if len(drivers) < hi:
        _decline("node table does not cover the shard's id range")
        return None
    if transport._trace is not None or transport._tracer is not None:
        _decline("tracing is active on the transport")
        return None
    node_seq = transport._node_seq
    rates = [0.0] * len(drivers)
    params: Any = None
    for i in range(lo, hi):
        d = drivers[i]
        if d is None or i >= len(node_seq) or node_seq[i] is not d:
            _decline(f"node id {i} has no registered driver")
            return None
        if type(d.core) is not DCSACore:
            _decline(
                f"node {i} runs {type(d.core).__name__}, not a plain DCSACore"
            )
            return None
        clock = d.clock
        if type(clock) is not ConstantRateClock or clock.rate <= 0.0:
            _decline(
                f"node {i} clock is {type(clock).__name__}, not a "
                "positive-rate ConstantRateClock"
            )
            return None
        if d.effect_log is not None or d._tracer is not None or d.trace.enabled:
            _decline(f"node {i} has a per-event observer attached")
            return None
        if params is None:
            params = d.core.params
        elif d.core.params is not params:
            _decline(f"node {i} does not share the population's SystemParams")
            return None
        rates[i] = clock.rate
    table = ParNodeArrayTable(sim, transport, drivers, rates, lo, hi, frontier)
    delay = transport.delay_policy
    if (
        type(delay) is ConstantDelay
        and 0.0 < delay.value <= transport.max_delay + 1e-9
    ):
        table.send_delay = delay.value
    return table


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


def _build_worker_experiment(
    cfg: "ExperimentConfig", lo: int, hi: int, frontier: frozenset[int]
) -> tuple[Simulator, ParTransport, DynamicGraph, "dict[int, ClockSyncNode]"]:
    """Wire one shard: full graph/clock/churn replica, local nodes only.

    Mirrors :class:`~repro.harness.runner.Experiment` construction exactly
    -- same RNG spawn order, same per-node clock draws for *all* ids --
    so shared randomness is bitwise identical across shard counts.
    """
    from ..baselines import FreeRunningNode
    from ..harness.runner import (
        ALGORITHMS,
        _make_clock,
        _make_delay,
        _make_discovery,
    )

    params = cfg.params
    rngf = RngFactory(cfg.seed)
    sim = Simulator()
    graph = DynamicGraph(range(params.n), cfg.initial_edges)
    transport = ParTransport(
        sim,
        graph,
        delay_policy=_make_delay(cfg.delay_spec, params, rngf.spawn("delay")),
        discovery_policy=_make_discovery(
            cfg.discovery_spec, params, rngf.spawn("discovery")
        ),
        max_delay=params.max_delay,
        discovery_bound=params.discovery_bound,
        lo=lo,
        hi=hi,
        frontier=frontier,
        shadows=bool(cfg.churn),
    )
    clock_rng = rngf.spawn("clocks")
    rngf.spawn("stagger")  # parity: serial spawns the stream even when unused
    node_cls = ALGORITHMS[cfg.algorithm]
    nodes: "dict[int, ClockSyncNode]" = {}
    for i in range(params.n):
        # Clocks are drawn for every id (the "uniform" spec consumes one
        # draw per node) so the stream stays aligned with serial.
        clock = _make_clock(cfg.clock_spec, i, params, clock_rng, cfg.horizon)
        validate_drift(clock, params.rho)
        if lo <= i < hi:
            kwargs: dict[str, Any] = {}
            if node_cls is not FreeRunningNode:
                kwargs["tick_stagger"] = 0.0
            node = node_cls(i, sim, clock, transport, params, **kwargs)
            transport.register_node(i, node)
            nodes[i] = node

    # Keyed dispatch wrappers: every timer/topology dispatch stamps its
    # provenance prefix before running, so keyed pushes it emits land at
    # their global serial position.  Direct list assignment -- the node
    # table registered the plain dispatcher and set_handler refuses
    # replacements.
    def _timer_dispatch(ev: ScheduledEvent) -> None:
        transport._gp = (sim.now, 2, ev.d, ev.e, ev.a.node_id)
        transport._gc = 0
        ev.a._fire_timer(ev.b)

    def _topology_dispatch(ev: ScheduledEvent) -> None:
        idx = transport._topo_idx
        transport._topo_idx = idx + 1
        transport._gp = (sim.now, 0, idx)
        transport._gc = 0
        if ev.b:
            ev.a.add_edge(ev.c, ev.d, sim.now)
        else:
            ev.a.remove_edge(ev.c, ev.d, sim.now)

    sim._handlers[KIND_TIMER] = _timer_dispatch
    sim._handlers[KIND_TOPOLOGY] = _topology_dispatch

    transport._gp = (0.0, -1)
    transport._gc = 0
    transport.announce_initial_edges()
    rngf.spawn("churn")  # parity: serial spawns before installing churn
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        proc.install(sim, graph)
    for i in sorted(nodes):
        # Per-start marker: sorts after every announcement key; defensive
        # (no shipped core sends at Start), but keeps even hypothetical
        # start-time sends deterministically placed.
        transport._gp = (0.0, -1, math.inf, i)
        transport._gc = 0
        nodes[i].start()
    return sim, transport, graph, nodes


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
        sim, transport, graph, nodes = _build_worker_experiment(
            cfg, lo, hi, frontier
        )
        sim.kind_counts = [0] * N_KINDS
        n = cfg.params.n
        block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
        sample_set = set(samples)
        local_ids = sorted(nodes)
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
                table = transport._batch_table
                if isinstance(table, ParNodeArrayTable):
                    table.write_sample_columns(b, block[0], block[1])
                else:
                    row_c = block[0]
                    row_m = block[1]
                    for i in local_ids:
                        node = nodes[i]
                        row_c[i] = node.logical_clock(b)
                        row_m[i] = node.max_estimate(b)
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
                    st, None, "deliver", e=-2,
                )
        kc = sim.kind_counts
        assert kc is not None
        done = {
            "lo": lo,
            "hi": hi,
            "clock": [nodes[i].logical_clock(horizon) for i in local_ids],
            "maxe": [nodes[i].max_estimate(horizon) for i in local_ids],
            "rate": [nodes[i].clock.rate_at(horizon) for i in local_ids],
            "jumps": [nodes[i].jumps for i in local_ids],
            "total_jump": [nodes[i].total_jump for i in local_ids],
            "messages_sent": [nodes[i].messages_sent for i in local_ids],
            "stats": transport.stats.as_dict(),
            "events": sim.events_dispatched,
            "kind_counts": list(kc),
            "batch_gate_reason": sim.subsystems.get(REASON_KEY),
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

    Genuinely shards when :func:`genuine_shard_reason` returns ``None``
    (and ``fork`` is available); otherwise runs the serial backend and
    records the reason on ``RunResult.par_fallback_reason``.  A genuine
    run is bit-identical to serial for every ``shards >= 1`` (the parity
    tests pin this).
    """
    from ..analysis.recorder import RunRecord
    from ..harness.runner import ALGORITHMS, Experiment, RunResult
    from ..oracle.oracle import StreamingOracle
    from ..telemetry.registry import active_registry

    cfg.params.validate()
    if shards < 1:
        raise ValueError(f"shards must be >= 1; got {shards!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {cfg.algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    reason = genuine_shard_reason(cfg)
    if reason is None and "fork" not in multiprocessing.get_all_start_methods():
        reason = "the platform does not support the fork start method"
    if reason is not None:
        serial = Experiment(replace(cfg, runtime="sim")).run()
        # Restore the original config so sweep identity and reports show
        # what was actually requested.
        serial.config = cfg
        serial.par_fallback_reason = reason
        return serial

    params = cfg.params
    n = params.n
    union_edges: list[tuple[int, int]] = [
        (int(u), int(v)) for u, v in cfg.initial_edges
    ]
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        union_edges.extend((u, v) for _t, _op, u, v in proc.events)
    ranges = partition_ranges(n, shards, union_edges)
    k = len(ranges)
    shard_of = [0] * n
    for w, (a, b) in enumerate(ranges):
        for i in range(a, b):
            shard_of[i] = w
    frontiers: list[set[int]] = [set() for _ in range(k)]
    for u, v in union_edges:
        if shard_of[u] != shard_of[v]:
            frontiers[shard_of[u]].add(u)
            frontiers[shard_of[v]].add(v)

    orc = cfg.oracle
    if orc is not None and not isinstance(orc, StreamingOracle):
        # Same out-of-band derivation as the serial harness: the oracle's
        # rng never touches the spawn sequence.
        orc = orc(params, np.random.default_rng(cfg.seed))
    interval = (
        orc.interval
        if orc is not None and orc.interval is not None
        else cfg.sample_interval
    )
    barriers, samples = _barrier_plan(cfg, float(interval), orc is not None)

    shm = RawArray("d", 2 * n)
    block = np.frombuffer(cast(Any, shm), dtype=np.float64).reshape(2, n)
    views = {i: ShmNodeView(i, block[0], block[1]) for i in range(n)}
    coord_sim = Simulator()
    coord_graph = DynamicGraph(range(n), cfg.initial_edges)
    if orc is not None:
        # Installed before churn (the serial recorder/oracle vantage
        # point): churn-seeded t=0 edges arrive via the graph-event path.
        orc.install(
            coord_sim, coord_graph, views,
            interval=float(interval), end=float(cfg.horizon),
        )
    for proc in cfg.churn:
        assert isinstance(proc, ScriptedChurn)
        proc.install(coord_sim, coord_graph)

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
            for w, conn in enumerate(conns):
                msg = conn.recv()
                if msg[0] == "err":
                    raise RuntimeError(
                        f"parallel shard worker {w} failed:\n{msg[1]}"
                    )
                telem[w] = msg[3]
                outs.append(msg[2])
            coord_sim.run_until(b)
            inboxes: list[list[Envelope]] = [[] for _ in range(k)]
            for out in outs:
                for env in out:
                    inboxes[shard_of[env[3]]].append(env)
            for conn, inbox in zip(conns, inboxes):
                conn.send(inbox)
        for w, conn in enumerate(conns):
            msg = conn.recv()
            if msg[0] == "err":
                raise RuntimeError(
                    f"parallel shard worker {w} failed:\n{msg[1]}"
                )
            dones[w] = msg[1]
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
    batch_reason: str | None = None
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
        kc = done["kind_counts"]
        # Topology replays in every shard (the coordinator's copy is the
        # one that counts); shadow records are a parallel-only artefact.
        events += done["events"] - kc[KIND_TOPOLOGY] - kc[KIND_PAR_SHADOW]
        if lo == 0:
            batch_reason = done["batch_gate_reason"]
    record = RunRecord(
        node_ids=list(range(n)),
        times=np.empty(0),
        clocks=np.empty((0, n)),
    )
    return RunResult(
        config=cfg,
        record=record,
        graph=coord_graph,
        nodes=cast("dict[int, ClockSyncNode]", views),
        transport_stats=stats,
        events_dispatched=events,
        oracle_report=orc.report() if orc is not None else None,
        batch_gate_reason=batch_reason,
        par_shards=k,
    )
