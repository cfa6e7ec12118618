"""Dense struct-of-arrays execution of the DCSA step over DCSA nodes.

The reference path turns every event into an ``Event``, a
``DCSACore.handle()`` call and an effect list the driver re-interprets.
This module executes the same step -- sync, Gamma refresh, ``Lmax``
raise, AdjustClock, ``lost``-timer re-arm, tick re-push -- directly
against the cores' state, for every in-run event of an eligible
population: message deliveries, ticks, discoveries and ``lost`` fires.
**Scalar dispatch is a batch of one**: a singleton ``KIND_DELIVER``
record (:meth:`NodeArrayTable.deliver_one`), a singleton ``tick``
(:meth:`NodeArrayTable.tick_one`) and a singleton ``KIND_DISCOVER``
record enter the same per-destination, per-driver and per-record loops
the run handlers do (:meth:`NodeArrayTable._process_dest_msgs`,
:meth:`NodeArrayTable._tick_phase`, :meth:`NodeArrayTable.discover_run`)
with one element.  At large ``n`` with identical hardware rates (the
``huge_sync_*`` workloads), deliveries and ticks collide on the same
timestamps in runs of O(n) records -- as do the discoveries of ``E_0``
under a constant latency -- and a run executes in a handful of phased
loops instead of n kernel turns.  Nothing stays on ``handle()``.

:class:`NodeArrayTable` is a validated snapshot of every driver the
transport dispatches for, its :class:`~repro.core.protocol.DCSACore` and
the *current linear segment* of its hardware clock, with the dynamic
columns (``L``, ``Lmax``, per-neighbour estimates) gathered from the cores
on demand.  The cores remain the single source of truth, which is what
keeps the reference path and all read-only views (recorder, oracle, tests)
valid at any instant -- a batch step leaves *exactly* the state the
equivalent scalar dispatch sequence would have left.

**Arbitrary drift.**  Every clock of :mod:`repro.sim.clocks` is piecewise
linear, so a row holds its clock's current segment and evaluates the
clock's own ``value`` / ``time_at`` expressions on it inline: one
expression for constant, piecewise and steered rates (the argument is
"Arbitrary drift" in ``docs/performance.md``).

**Parity contract.**  The handlers below are bit-identical to scalar
dispatch -- a batch step leaves what the scalar sequence would have
left, queue order, RNG draws, tallies and span rows included.  The
argument is made once, in ``docs/performance.md`` ("The batch kernel":
parity contract, kernel plan, aggregate records; tracing in
``docs/observability.md``); what a reader of this file needs from it:

* per-record phases run in scalar record order wherever an operation can
  observe another record's effects; what is hoisted across records
  touches disjoint per-core state and commutes;
* AdjustClock is the scalar scan in the scalar association order,
  entered only when ``Lmax > L`` (its ceiling is ``min(Lmax, ...)``);
* queue pushes keep their per-class relative order, and an aggregate
  record (:data:`~repro.sim.events.KIND_DELIVER_BURST`, a tick group)
  sits where its first constituent would have: the constituents would
  have held contiguous sequence numbers;
* a bulk send bypasses :meth:`~repro.network.transport.Transport.send`
  only under a positive constant delay (the FIFO clamp never binds) and
  for a node whose believed neighbours are all adjacent *now*; any
  other node sends through ``Transport.send`` at its scalar position,
  after the burst built so far is pushed;
* the lazy ``lost`` re-arm advances the live record's deadline in place
  (see :mod:`repro.sim.queue`) only when the deadline does not move
  before the queued entry; otherwise it cancels and pushes afresh, as
  the reference always does.

**The kernel plan.**  Which of these paths a run takes is decided once,
by :func:`kernel_plan`, where the simulator's first ``run_until`` / ``step``
begins -- after all ``t = 0`` wiring, so adversary clock swaps and effect
logs are visible -- and holds for the whole run (an effect log attached
to a table-covered node afterwards raises).  Anything the table does not
provably fit runs ``handle()`` with no behavioural difference; timer
*runs* additionally require positive constant delay and discovery
policies (a same-timestamp delivery would have to dispatch inside the
pre-popped run).  Every path that declined is a :class:`Decline` entry of
the plan; :attr:`NodeArrayTable.array_events` counts what the step
executed.  The span :class:`~repro.tracing.context.Tracer` is a
passenger, not a gate: the handlers write the per-message rows the
scalar kernel would have written, and a burst carries its constituents'
flight span ids in slot ``e``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import length_hint
from typing import TYPE_CHECKING, AbstractSet, Any, Sequence, cast

import numpy as np
import numpy.typing as npt

from ..sim.clocks import ConstantRateClock, PiecewiseRateClock, SteerableClock
from ..sim.events import (
    KIND_DELIVER_BURST,
    KIND_TICK_BURST,
    KIND_TIMER,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    ScheduledEvent,
)
from ..sim.simulator import Simulator
from ..tracing.spans import SPAN_FLIGHT, SPAN_TIMER, STATUS_DONE
from .dcsa import adjust_clocks_batch
from .estimates import NeighborEstimate
from .node import ClockSyncNode
from .protocol import DCSACore, StaticGradientCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..network.transport import Transport
    from ..tracing.context import Tracer

__all__ = ["Decline", "KernelPlan", "NodeArrayTable", "kernel_plan"]

_TICK = "tick"

#: The clocks whose ``value`` / ``time_at`` the table's segment columns
#: reproduce; matched by exact type, a subclass may override either.
_SEGMENT_CLOCKS = (ConstantRateClock, PiecewiseRateClock, SteerableClock)


#: The traced side of a delivery run: the destinations and flight span ids
#: of its messages, parallel lists in record order.  A record pushed before
#: the tracer was attached carries ``None`` for its id.
_Flights = tuple[Sequence[int], Sequence[int | None]]


def _sids_by_dest(
    vs: Sequence[int], sids: Sequence[int | None]
) -> dict[int, list[int]]:
    """Flight span ids grouped per destination, in record order.

    Parallel to the message pairs of ``_process_dest_msgs``' ``dest_msgs``.
    """
    out: dict[int, list[int]] = {}
    for v, sid in zip(vs, sids):
        out.setdefault(v, []).append(-1 if sid is None else sid)
    return out


class NodeArrayTable:
    """Dense, validated driver/core/rate columns for batch execution.

    Construct via :func:`kernel_plan`, which performs the validity
    checks; the constructor itself only snapshots.  The table
    covers the id range ``ids`` -- the whole population in a serial run, a
    shard's range under :mod:`repro.sim.par`, whose subclass changes only
    which senders may bulk-send (``adj``) and the context in which
    :meth:`_send_each` / :meth:`_push_burst` push.
    """

    __slots__ = (
        "sim",
        "transport",
        "drivers",
        "cores",
        "rate",
        "t0",
        "h0",
        "t1",
        "h1",
        "_seg_arrays",
        "tick_interval",
        "delta_t_prime",
        "b0",
        "b_intercept",
        "b_slope",
        "send_delay",
        "adj",
        "ids",
        "array_events",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: "Transport",
        drivers: "Sequence[ClockSyncNode | None]",
        ids: range,
    ) -> None:
        self.sim = sim
        self.transport = transport
        #: The validated node-id range.  ``drivers``/``cores``/``adj`` and
        #: the segment columns are indexed by node id, so a table over part
        #: of the population (a shard) has holes outside ``ids``.
        self.ids = ids
        self.drivers = cast("list[ClockSyncNode]", list(drivers))
        self.cores = cast(
            "list[DCSACore]", [d.core if d is not None else None for d in drivers]
        )
        #: Each row's current :data:`~repro.sim.clocks.Segment`, one column
        #: per field: ``H(t) = h0 + rate * (t - t0)`` while ``t < t1``, and
        #: ``H`` reaches ``target < h1`` at ``t0 + (target - h0) / rate``.  A
        #: reader at ``t >= t1`` re-seats the row first (:meth:`_reseat`).
        self.rate = [0.0] * len(drivers)
        self.t0 = self.rate[:]
        self.h0 = self.rate[:]
        self.t1 = self.rate[:]
        self.h1 = self.rate[:]
        #: ``(rate, t0, h0)`` as arrays over ``ids`` plus ``min(t1)``, for
        #: the fused oracle reads; dropped whenever a row is re-seated.
        self._seg_arrays: tuple[Any, ...] | None = None
        for i in ids:
            self._reseat(i, sim.now)
            clock = self.drivers[i].clock
            if type(clock) is SteerableClock:
                clock.on_rate_change = lambda i=i: self._reseat(i, sim.now)
        #: ``B`` function coefficients, shared by every core (the plan
        #: verified a single ``params`` object).
        c0 = self.cores[ids.start]
        self.tick_interval = c0.params.tick_interval
        self.delta_t_prime = c0.params.delta_t_prime
        self.b0 = c0._b0
        self.b_intercept = c0._b_intercept
        self.b_slope = c0._b_slope
        #: The constant per-message delay when the transport's policy is a
        #: valid positive constant (set by :func:`kernel_plan`), else
        #: ``None``; gates the bulk-send path.
        self.send_delay: float | None = None
        #: Live adjacency sets indexed by node id (the graph mutates them
        #: in place); a ticking node bulk-sends iff its believed neighbours
        #: are a subset of its entry.
        graph = transport.graph
        self.adj: list[AbstractSet[int]] = [
            graph.neighbors(i) if i in ids else frozenset()
            for i in range(len(drivers))
        ]
        #: Events executed by the array step so far (singletons and burst
        #: / group constituents alike), bumped once per entry point.
        self.array_events = 0

    def _reseat(self, i: int, t: float) -> None:
        """Seat row ``i`` on the segment of its clock that holds real time ``t``."""
        (
            self.rate[i], self.t0[i], self.h0[i], self.t1[i], self.h1[i]
        ) = self.drivers[i].clock.segment_at(t)  # type: ignore[attr-defined]
        self._seg_arrays = None

    # ------------------------------------------------------------------ #
    # Batch handlers
    # ------------------------------------------------------------------ #

    def deliver_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of individual ``KIND_DELIVER`` records.

        Called by :meth:`Transport._handle_deliver_batch` with the records
        whose link failed in flight already dropped, so every record is a
        plain delivery ``u -> v`` of an ``(L, Lmax)`` update (its flight
        span id, when traced, in the observer slot ``e``).
        """
        dest_msgs: dict[int, list[Any]] = {}
        get = dest_msgs.get
        for ev in records:
            v = ev.b
            lst = get(v)
            if lst is None:
                dest_msgs[v] = [ev.a, ev.c]
            else:
                lst.append(ev.a)
                lst.append(ev.c)
        flights = None
        if self.transport._tracer is not None:
            flights = [ev.b for ev in records], [ev.e for ev in records]
        self.array_events += len(records)
        self._process_dest_msgs(dest_msgs, flights)

    def deliver_burst(
        self,
        us: list[int],
        vs: list[int],
        payloads: list[Any],
        sids: list[int] | None,
    ) -> None:
        """Execute one burst record's constituent deliveries (see module doc).

        ``sids`` are the constituents' flight span ids (``None`` untraced).
        """
        dest_msgs: dict[int, list[Any]] = {}
        get = dest_msgs.get
        for u, v, payload in zip(us, vs, payloads):
            lst = get(v)
            if lst is None:
                dest_msgs[v] = [u, payload]
            else:
                lst.append(u)
                lst.append(payload)
        self.array_events += len(us)
        self._process_dest_msgs(dest_msgs, None if sids is None else (vs, sids))

    def deliver_one(self, u: int, v: int, payload: Any, sid: int | None) -> None:
        """Execute a singleton ``KIND_DELIVER`` record: a batch of one.

        Called by :meth:`Transport._handle_deliver` once the Section 3.2
        predicate cleared the message; ``sid`` is the record's observer
        slot (its flight span id when traced).  Nothing was pre-popped, so
        this is scalar dispatch with the effect list cut out.
        """
        self.array_events += 1
        flights = None
        if self.transport._tracer is not None:
            flights = (v,), (sid,)
        self._process_dest_msgs({v: (u, payload)}, flights)

    def _process_dest_msgs(
        self, dest_msgs: dict[int, Sequence[Any]], flights: _Flights | None
    ) -> None:
        """Apply same-timestamp deliveries grouped per destination.

        ``dest_msgs[v]`` is the flat list ``[u0, payload0, u1, payload1,
        ...]`` in per-destination record order.  Scalar dispatch per message
        is: sync ``v``; cancel ``lost(u)``; Gamma track/refresh; raise
        ``Lmax``; AdjustClock; re-arm ``lost(u)``.  The batch form runs each
        destination *to completion* before the next: distinct destinations
        touch disjoint cores and timers, so interleaving order across
        destinations is unobservable -- the only cross-destination effects
        are fresh lost-timer pushes, whose permuted sequence numbers can
        only reorder same-``(time, priority)`` lost timers of *different*
        destinations, and those handlers commute.  Within a destination the
        per-message phases run in exact scalar order.

        The destination syncs once (later messages of the run find
        ``dh == 0`` in scalar execution too), so ``H_v`` -- and with it
        every edge age and the lost-timer deadline -- is *fixed* for the
        whole timestamp.  AdjustClock's ceiling is ``min(Lmax, ...)``, so a
        message scans the Gamma rows only when it leaves ``Lmax > L``
        (exactly as :meth:`DCSACore._adjust_clock` returns early): the
        cost of every other delivery is independent of the degree.

        When traced, ``flights`` names the run's messages; an applied jump
        writes its ``SPAN_JUMP`` row parented on the delivering flight,
        looked up per destination (:func:`_sids_by_dest`, built on the
        run's first jump -- a run that applies none pays nothing).
        """
        tracer = None if flights is None else self.transport._tracer
        dest_sids: dict[int, list[int]] | None = None
        sim = self.sim
        now = sim.now
        cores = self.cores
        drivers = self.drivers
        rate = self.rate
        t0 = self.t0
        h0 = self.h0
        t1 = self.t1
        h1 = self.h1
        queue = sim.queue
        free = queue._free
        heap = queue._heap
        heappush = heapq.heappush
        dtp = self.delta_t_prime
        b0 = self.b0
        intercept = self.b_intercept
        slope = self.b_slope
        seq = queue._seq
        pushed = 0
        for v, msgs in dest_msgs.items():
            core = cores[v]
            rows = core.gamma._rows
            if now >= t1[v]:
                self._reseat(v, now)
            seg_r = rate[v]
            seg_t = t0[v]
            seg_h = h0[v]
            h = seg_h + seg_r * (now - seg_t)
            dh = h - core.h_last
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                core.h_last = h
                for row in rows.values():
                    row.l_est += dh
            d = drivers[v]
            d._t_last = now
            # The re-armed lost deadline is message-independent.
            target = h + dtp
            if target < h1[v]:
                fire_t = seg_t + (target - seg_h) / seg_r
            else:
                fire_t = d.clock.time_at(target)
            if fire_t < now:
                fire_t = now
            timers = d._timers
            L = core._L
            lmax = core._Lmax
            it = iter(msgs)
            for u, payload in zip(it, it):
                l_v = payload[0]
                row = rows.get(u)
                if row is None:
                    # Gamma (re-)entry: C^v_u := H_u now (pseudocode 17-19).
                    rows[u] = NeighborEstimate(h, l_v)
                elif l_v > row.l_est:
                    row.l_est = l_v
                lmax_v = payload[1]
                if lmax_v > lmax:
                    lmax = lmax_v
                if lmax > L:
                    # AdjustClock, the reference scan: its ceiling is
                    # ``min(Lmax, ...)``, so nothing else can release ``L``.
                    ceiling = lmax
                    for est in rows.values():
                        b = intercept - slope * (h - est.added_h)
                        if b < b0:
                            b = b0
                        cand = est.l_est + b
                        if cand < ceiling:
                            ceiling = cand
                    if ceiling > L:
                        if tracer is not None:
                            # The delivering message's position, read off
                            # the pair iterator (exact for list iterators)
                            # so the untraced loop carries no index.
                            if dest_sids is None:
                                assert flights is not None
                                dest_sids = _sids_by_dest(*flights)
                            done = (len(msgs) - length_hint(it)) >> 1
                            tracer.current = dest_sids[v][done - 1]
                            tracer.jump(v, now, ceiling - L)
                        core.total_jump += ceiling - L
                        core.jumps += 1
                        L = ceiling
                key = ("lost", u)
                prev = timers.get(key)
                if (
                    prev is not None
                    and not prev.cancelled
                    and prev.queued
                    and fire_t >= prev.time
                ):
                    # Lazy re-arm: advance the live record's deadline in
                    # place; the queue re-inserts it if the stale heap
                    # entry surfaces first.
                    prev.c = fire_t
                else:
                    if prev is not None:
                        # A live record whose deadline moved *before* its
                        # heap entry (the clock's rate rose since the last
                        # arm), where no pop path would notice: cancel +
                        # fresh push.  On a dead handle this is a no-op.
                        queue.cancel(prev)
                    if free:
                        rec = free.pop()
                        rec.time = fire_t
                        rec.priority = PRIORITY_TIMER
                        rec.seq = seq
                        rec.kind = KIND_TIMER
                        rec.fn = None
                        rec.a = d
                        rec.b = key
                        rec.c = fire_t
                        rec.d = None
                        rec.e = None
                        rec.cancelled = False
                        rec.gen += 1
                        rec.label = "timer"
                    else:
                        queue.allocations += 1
                        rec = ScheduledEvent(
                            fire_t, PRIORITY_TIMER, seq, None, "timer",
                            kind=KIND_TIMER, a=d, b=key, c=fire_t,
                        )
                    rec.queued = True
                    heappush(heap, (fire_t, PRIORITY_TIMER, seq, rec))
                    seq += 1
                    pushed += 1
                    timers[key] = rec
            core._L = L
            core._Lmax = lmax
        queue._seq = seq
        queue._live += pushed
        if tracer is not None:
            tracer.current = -1

    def discover_run(self, rows: Sequence[tuple[int, int, bool, bool]]) -> None:
        """Execute a same-timestamp run of discoveries.

        The one discovery body, entered by the transport with the ``(node,
        other, added, absence)`` rows of a pre-popped run of
        ``KIND_DISCOVER`` records, of a singleton as a run of one, or of
        the wave record that stands for E_0
        (:meth:`Transport._discover_rows`).  Per record, in record
        order, it is :meth:`Transport._handle_discover` plus ``DCSACore``'s
        discover handlers with the effect list cut out: clear the
        absence-dedup key, skip a change that no longer holds, sync, greet
        with the pre-jump ``(L, Lmax)`` (or drop the Gamma row and cancel
        its ``lost`` timer), update Upsilon, AdjustClock in place.  Each
        record runs to completion, so a later record of the same node (or
        an adaptive delay policy reading clocks mid-send) sees the state
        scalar dispatch would have left.

        Under a positive constant delay the greetings of a run of two or
        more travel as the run's one burst record: a greeting's edge was
        just tested present, which is the tick phase's bulk-send rule (see
        module docstring), and nothing else a discovery does pushes a
        record, so the constituents would have held contiguous sequence
        numbers.  Under any other policy, and in a run of one, each goes
        through :meth:`Transport.send` at its scalar position: a burst of
        one costs more at both ends than the record it replaces.  Only the
        serial transport passes longer runs; the sharded one replays a run
        record by record, so its boundary senders (whose ``adj`` entry
        bars them from bulk-sending) never reach the burst branch.  When
        traced, each delivered discovery writes its ``SPAN_DISCOVER`` row,
        with the greeting's flight and any jump parented on it, in the
        scalar row order.
        """
        transport = self.transport
        stats = transport.stats
        has_edge = transport._has_edge
        tracer = transport._tracer
        now = self.sim.now
        cores = self.cores
        drivers = self.drivers
        rate = self.rate
        t0 = self.t0
        h0 = self.h0
        t1 = self.t1
        delay = self.send_delay if len(rows) > 1 else None
        t_deliver = now if delay is None else now + delay
        u_list: list[int] = []
        v_list: list[int] = []
        p_list: list[Any] = []
        s_list: list[int] = []
        skipped = 0
        for nid, other, added, absence in rows:
            if absence:
                transport._pending_absence.discard((nid, other))
            if has_edge(nid, other) != added:
                skipped += 1
                continue
            core = cores[nid]
            if now >= t1[nid]:
                self._reseat(nid, now)
            h = h0[nid] + rate[nid] * (now - t0[nid])
            if h != core.h_last:
                core.sync_to(h)
            d = drivers[nid]
            d._t_last = now
            if tracer is not None:
                tracer.discover(nid, other, now, added)
            if added:
                core.messages_sent += 1
                payload = (core._L, core._Lmax)
                if delay is None:
                    transport.send(nid, other, payload)
                else:
                    u_list.append(nid)
                    v_list.append(other)
                    p_list.append(payload)
                    if tracer is not None:
                        s_list.append(
                            tracer.table.append(
                                SPAN_FLIGHT, nid, other, now, t_deliver,
                                tracer.current, STATUS_DONE,
                            )
                        )
                core.upsilon.add(other)
            else:
                if core.gamma.remove(other):
                    d.cancel_timer(("lost", other))
                core.upsilon.discard(other)
            self._adjust_clock(core, tracer)
        if u_list:
            self._push_burst(
                u_list, v_list, p_list, s_list if tracer is not None else None
            )
        delivered = len(rows) - skipped
        stats.discoveries_skipped += skipped
        stats.discoveries_delivered += delivered
        self.array_events += delivered
        if tracer is not None:
            tracer.current = -1

    def lost_one(self, ev: ScheduledEvent) -> None:
        """Execute a ``("lost", v)`` fire: forget ``v``'s estimate, adjust.

        Called by the transport's ``KIND_TIMER`` handler like
        :meth:`tick_one`; the record fired at its final deadline (the
        queue already resolved any lazy extension).
        """
        d = ev.a
        d._timers.pop(ev.b, None)
        self.array_events += 1
        tracer = self.transport._tracer
        if tracer is not None:
            tracer.timer_fired(d.node_id, self.sim.now)
        d._sync()
        core = self.cores[d.node_id]
        core.gamma.remove(ev.b[1])
        self._adjust_clock(core, tracer)
        if tracer is not None:
            tracer.current = -1

    def _adjust_clock(self, core: DCSACore, tracer: "Tracer | None") -> None:
        """AdjustClock on one synced core, the jump applied in place.

        When traced the jump row is parented on ``tracer.current`` (the
        discovery or timer row the caller just wrote); the delta is the
        scalar ``new_value - L`` on the same two operands.
        """
        l_old = core._L
        if core._Lmax <= l_old:
            return  # the ceiling never exceeds Lmax: nothing to release
        adjust_clocks_batch((core,))
        if tracer is not None and core._L != l_old:
            tracer.jump(core.node_id, self.sim.now, core._L - l_old)

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of ``KIND_TIMER`` records.

        Only reached when the delay and discovery policies are positive
        constants (see module docstring), so nothing a tick handler
        schedules can land at the current timestamp.  Mixed-key runs (any
        ``lost`` timer present) replay the kernel's scalar timer handler in
        record order -- already a win over per-event kernel turns; all-tick
        runs go through :meth:`_tick_phase` and then re-arm.  The re-arm
        records land in a different priority class from the bursts, so the
        permuted sequence numbers are unobservable.

        When every deadline of the run coincides (a rate class in lockstep
        -- the steady state here), the class's pending ticks collapse into
        a single group record: one heap entry instead of one per node, and
        on every later cycle the group re-pushes itself with the same
        driver list (see :meth:`handle_tick_group`).  The constituents
        would have held contiguous sequence numbers in this tie class, so
        the group -- ordered by its first constituent's position --
        preserves scalar tie order.  Otherwise each tick record is
        re-pushed *in place* (it just fired, its payload is already
        correct, and the kernel skips requeued records when recycling).
        """
        for ev in records:
            if ev.b != _TICK:
                fire = self.sim._handlers[KIND_TIMER]
                assert fire is not None
                for rec in records:
                    fire(rec)
                return
        drivers = [ev.a for ev in records]
        self.array_events += len(records)
        ft0, same = self._tick_phase(drivers)
        sim = self.sim
        if same and len(records) > 1:
            # A group carries its arm time in ``d`` like an individual
            # record (see :meth:`_repush_tick`).
            grp = sim.queue.push_typed(
                ft0, PRIORITY_TIMER, KIND_TICK_BURST, drivers, None, None,
                sim.now, None, "tick+", e=len(records),
            )
            for d in drivers:
                d._timers[_TICK] = grp
        else:
            for ev in records:
                self._repush_tick(ev, self._tick_deadline(ev.a))

    def _repush_tick(self, ev: ScheduledEvent, fire_t: float) -> None:
        """Re-arm the just-fired tick record ``ev`` in place at ``fire_t``.

        Its payload is already correct and the kernel skips requeued
        records when recycling; the arm time and in-run phase bit go into
        ``d`` / ``e`` exactly as :meth:`ClockSyncNode._arm_timer` stamps
        them (the parallel backend keys timer provenance on those slots).
        """
        sim = self.sim
        ev.d = sim.now
        ev.e = 1
        sim.queue.repush(ev, fire_t)
        ev.a._timers[_TICK] = ev

    def tick_one(self, ev: ScheduledEvent) -> None:
        """Execute a singleton ``tick`` record: a timer run of one.

        Called by the transport's ``KIND_TIMER`` handler
        (:meth:`Transport._handle_timer`).  Nothing was pre-popped, so
        sends that land at the current timestamp (zero or randomized
        delays) still dispatch before the next timer exactly as under
        scalar dispatch.
        """
        self.array_events += 1
        deadline, _ = self._tick_phase((ev.a,))
        self._repush_tick(ev, deadline)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        """Execute one tick-group record (see :data:`KIND_TICK_BURST`).

        Semantically identical to :meth:`handle_timer_batch` over the
        constituent drivers' tick records, in list order (which is the
        original record order).  In the steady state every constituent's
        next deadline coincides again and the group re-pushes *itself* --
        same record, same driver list, fresh sequence number -- so a tick
        cycle of n nodes costs one heappush/heappop pair and zero
        ``_timers`` writes (each driver's entry already aliases the
        group).  If the deadlines ever diverge, the group dissolves back
        into individual records.
        """
        drivers = ev.a
        self.array_events += len(drivers)
        ft0, same = self._tick_phase(drivers)
        sim = self.sim
        queue = sim.queue
        if same:
            ev.d = sim.now
            queue.repush(ev, ft0)
        else:
            for d in drivers:
                d._timers[_TICK] = queue.push_typed(
                    self._tick_deadline(d), PRIORITY_TIMER, KIND_TIMER, d,
                    _TICK, None, sim.now, None, "timer", e=1,
                )

    def _tick_deadline(self, d: "ClockSyncNode") -> float:
        """Real time of ``d``'s next tick, from its post-sync ``H``."""
        nid = d.node_id
        target = self.cores[nid].h_last + self.tick_interval
        if target < self.h1[nid]:
            fire_t = self.t0[nid] + (target - self.h0[nid]) / self.rate[nid]
        else:
            fire_t = d.clock.time_at(target)
        now = self.sim.now
        return fire_t if fire_t > now else now

    def _tick_phase(
        self, drivers: "Sequence[ClockSyncNode]"
    ) -> tuple[float, bool]:
        """Sync, send and AdjustClock for one run of ticking ``drivers``.

        One fused loop: per driver sync + payload capture + sends, in
        scalar order (sends consume sequence numbers in record order),
        then the burst push, then AdjustClock over the cores it can act
        on (``Lmax > L``: its ceiling is ``min(Lmax, ...)``).  Payloads are
        captured *before* AdjustClock exactly as the scalar handler reads
        them; hoisting AdjustClock across drivers is sound because it
        touches only core state that neither another driver's sends nor
        the callers' re-arms read.

        A driver whose believed neighbours are all adjacent appends its
        sends to the run's burst; any other driver sends through
        :meth:`Transport.send`, which applies the no-edge drop rule per
        message, after the burst built so far is pushed (see module
        docstring).  Returns the first driver's next tick deadline and
        whether every driver's deadline equals it.

        When traced, each driver's ``SPAN_TIMER`` row and the flight rows
        of its bulk sends are written here (:meth:`_trace_tick`); the
        timer's span id stays ``tracer.current`` across
        :meth:`_send_each`, so per-message sends parent on it as under
        scalar dispatch, and the jumps AdjustClock applied are read back
        off the cores afterwards.
        """
        now = self.sim.now
        cores = self.cores
        rate = self.rate
        t0 = self.t0
        h0 = self.h0
        t1 = self.t1
        h1 = self.h1
        adj = self.adj
        tracer = self.transport._tracer
        delay = self.send_delay
        t_deliver = now if delay is None else now + delay
        ti = self.tick_interval
        u_list: list[int] = []
        v_list: list[int] = []
        p_list: list[Any] = []
        #: Flight span ids of the burst under construction, timer span id
        #: per core of ``tick_cores`` (both traced runs only).
        s_list: list[int] = []
        timer_sids: list[int] = []
        uext = u_list.extend
        vext = v_list.extend
        pext = p_list.extend
        tick_cores: list[DCSACore] = []
        capp = tick_cores.append
        ft0 = -1.0
        same = True
        for d in drivers:
            nid = d.node_id
            core = cores[nid]
            if now >= t1[nid]:
                self._reseat(nid, now)
            seg_r = rate[nid]
            seg_t = t0[nid]
            seg_h = h0[nid]
            h = seg_h + seg_r * (now - seg_t)
            dh = h - core.h_last
            if dh != 0.0:
                core._L += dh
                core._Lmax += dh
                for row in core.gamma._rows.values():
                    row.l_est += dh
                core.h_last = h
            d._t_last = now
            ups = core.upsilon
            # The bulk-send destinations, or ``None`` when this driver
            # must send per message.
            dests = (
                sorted(ups) if delay is not None and ups <= adj[nid] else None
            )
            if tracer is not None:
                tracer.current = self._trace_tick(
                    tracer, nid, dests or (), t_deliver, s_list
                )
            if ups:
                payload = (core._L, core._Lmax)
                if dests is not None:
                    k = len(dests)
                    # Scalar _send bumps the counter at emission time; the
                    # batch bypasses the effect list, so count here.
                    core.messages_sent += k
                    uext((nid,) * k)
                    vext(dests)
                    pext((payload,) * k)
                else:
                    if u_list:
                        self._push_burst(
                            u_list[:], v_list[:], p_list[:],
                            s_list[:] if tracer is not None else None,
                        )
                        u_list.clear()
                        v_list.clear()
                        p_list.clear()
                        s_list.clear()
                    self._send_each(nid, payload)
            target = h + ti
            if target < h1[nid]:
                fire_t = seg_t + (target - seg_h) / seg_r
            else:
                fire_t = d.clock.time_at(target)
            if fire_t < now:
                fire_t = now
            if ft0 < 0.0:
                ft0 = fire_t
            elif fire_t != ft0:
                same = False
            if core._Lmax > core._L:
                capp(core)
                if tracer is not None:
                    timer_sids.append(tracer.current)
        if u_list:
            self._push_burst(
                u_list, v_list, p_list, s_list if tracer is not None else None
            )
        if tracer is None:
            adjust_clocks_batch(tick_cores)
            return ft0, same
        # AdjustClock applies at most one jump per core: the row's delta is
        # the scalar ``new_value - L`` on the same two operands.
        before = [core._L for core in tick_cores]
        adjust_clocks_batch(tick_cores)
        for core, l_old, sid in zip(tick_cores, before, timer_sids):
            if core._L != l_old:
                tracer.current = sid
                tracer.jump(core.node_id, now, core._L - l_old)
        tracer.current = -1
        return ft0, same

    def _trace_tick(
        self,
        tracer: "Tracer",
        nid: int,
        dests: Sequence[int],
        t1: float,
        sids: list[int],
    ) -> int:
        """Write ``nid``'s ``SPAN_TIMER`` row and its bulk sends' flight rows.

        One ``list.extend`` per driver: the timer row, then one
        optimistically-closed flight row per destination parented on it
        (``Transport.send``'s row; ``t1`` is the delivery time).  Appends
        the flights' span ids to ``sids`` and returns the timer's.
        """
        now = self.sim.now
        data = tracer.data
        sid = len(data) >> 3
        if sid + len(dests) >= tracer.capacity:
            # The table fills up within this driver's rows: go row by row
            # so every refused row is counted, as under scalar dispatch.
            tracer.timer_fired(nid, now)
            sid = tracer.current
            sids.extend(
                tracer.table.append(
                    SPAN_FLIGHT, nid, v, now, t1, sid, STATUS_DONE
                )
                for v in dests
            )
            return sid
        rows: list[Any] = [SPAN_TIMER, nid, -1, now, now, -1, STATUS_DONE, 0.0]
        for v in dests:
            rows += (SPAN_FLIGHT, nid, v, now, t1, sid, STATUS_DONE, 0.0)
        data.extend(rows)
        sids.extend(range(sid + 1, sid + 1 + len(dests)))
        return sid

    def _send_each(self, nid: int, payload: Any) -> None:
        """Send ``payload`` from ``nid`` to each believed neighbour, per message."""
        core = self.cores[nid]
        send = self.transport.send
        for v in sorted(core.upsilon):
            core.messages_sent += 1
            send(nid, v, payload)

    def _push_burst(
        self,
        us: list[int],
        vs: list[int],
        payloads: list[Any],
        sids: list[int] | None,
    ) -> None:
        """Schedule one burst record for sends emitted at the current time.

        ``sids`` (the constituents' flight span ids, ``None`` untraced)
        ride in the record's observer slot.
        """
        now = self.sim.now
        self.transport._push(
            now + self.send_delay,  # type: ignore[operator]
            PRIORITY_DELIVERY, KIND_DELIVER_BURST, us, vs, payloads, now,
            None, "deliver+", e=sids,
        )
        self.transport.stats.sent += len(us)

    # ------------------------------------------------------------------ #
    # Dense reads (oracle sampling)
    # ------------------------------------------------------------------ #

    def _hardware_column(self, t: float) -> npt.NDArray[np.float64]:
        """``H_u(t)`` for every node of ``ids``, elementwise off the columns.

        Their array form is kept until a row is re-seated: here, when
        ``t`` has left its segment, or by an event or a rate change in
        between (a constant-rate population builds it once).
        """
        arrays = self._seg_arrays
        if arrays is None or t >= arrays[3]:
            lo, hi = self.ids.start, self.ids.stop
            t1 = self.t1
            for i in self.ids:
                if t >= t1[i]:
                    self._reseat(i, t)
            arrays = self._seg_arrays = (
                np.asarray(self.rate[lo:hi]), np.asarray(self.t0[lo:hi]),
                np.asarray(self.h0[lo:hi]), min(t1[lo:hi]),
            )
        rate, t0, h0, _ = arrays
        result: npt.NDArray[np.float64] = h0 + rate * (t - t0)
        return result

    def clock_column(self, t: float) -> npt.NDArray[np.float64]:
        """``L_u(t)`` for every node of ``ids`` as a dense array.

        Matches ``core.logical_clock_at(clock.value(t))`` bitwise: the
        fused expression evaluates ``L + (h - h_last)`` elementwise in the
        same order.
        """
        cores = self.cores[self.ids.start : self.ids.stop]
        n = len(cores)
        L = np.fromiter((c._L for c in cores), np.float64, count=n)
        hl = np.fromiter((c.h_last for c in cores), np.float64, count=n)
        result: npt.NDArray[np.float64] = L + (self._hardware_column(t) - hl)
        return result

    def max_estimate_column(self, t: float) -> npt.NDArray[np.float64]:
        """``Lmax_u(t)`` for every node of ``ids`` as a dense array."""
        cores = self.cores[self.ids.start : self.ids.stop]
        n = len(cores)
        lm = np.fromiter((c._Lmax for c in cores), np.float64, count=n)
        hl = np.fromiter((c.h_last for c in cores), np.float64, count=n)
        result: npt.NDArray[np.float64] = lm + (self._hardware_column(t) - hl)
        return result


#: ``Decline.path`` -> the phrase ``summary()`` / ``--profile`` print for it.
_DECLINED = {
    "array_step": "batch kernel declined",  # every event runs handle()
    "timer_runs": "timer runs declined",  # timers dispatch one record at a time
    "bulk_send": "bulk sends declined",  # ticks send per message, no bursts
    "shards": "parallel fallback",  # a "par" run fell back to one process
}


@dataclass(frozen=True)
class Decline:
    """One fast path a run did not take: which (a ``_DECLINED`` key), the
    ingredient that ruled it out (``"reference"``, ``"core"``, ``"clock"``,
    ``"delay_policy"``, a config field, ...), and why."""

    path: str
    declined_by: str
    reason: str

    def describe(self) -> str:
        """The one-line form ``summary()`` and ``--profile`` print."""
        return f"{_DECLINED[self.path]} ({self.declined_by}): {self.reason}"


@dataclass(frozen=True)
class KernelPlan:
    """How one simulator executes its run: :func:`kernel_plan`'s verdict.

    ``table`` is the struct-of-arrays table every in-run node event rides,
    or ``None`` when the population runs the ``handle()`` reference.
    ``timer_runs`` and ``bulk_send`` are paths *of* the table, so they are
    only listed in ``declines`` when it exists.  The default value is the
    plan of a simulator that has not started running: nothing engaged,
    nothing declined.
    """

    table: NodeArrayTable | None = None
    declines: tuple[Decline, ...] = ()

    def engaged(self, path: str) -> bool:
        """Whether the run takes ``path``."""
        return self.table is not None and path not in {d.path for d in self.declines}


def _policy_name(policy: Any) -> str:
    value = getattr(policy, "value", None)
    return type(policy).__name__ + ("" if value is None else f"({value!r})")


def kernel_plan(
    transport: "Transport",
    ids: range | None = None,
    table_cls: type[NodeArrayTable] = NodeArrayTable,
    veto: Decline | None = None,
) -> KernelPlan:
    """Decide, once per simulator, which paths the run takes.

    Called by the transport where the first ``run_until`` / ``step``
    begins -- after ``t = 0`` wiring, so adversary clock swaps and effect
    logs are visible.  The array step engages -- a ``table_cls`` over the
    node ids ``ids`` (default: every registered node) is built -- when the
    simulator is not on the reference switch, the caller has no ``veto``
    and every driver in the range runs one exact core type (``DCSACore``,
    or ``StaticGradientCore``: the same step over a constant-``B``
    coefficient row) on one of :mod:`repro.sim.clocks`' three
    piecewise-linear classes (exactly: the table evaluates their segments
    inline) with no effect log attached (the span tracer is no gate; see
    module docstring); the first failing test is the ``array_step``
    decline.  On a table, timer runs need positive constant delay *and*
    discovery policies, and bulk sends (:attr:`NodeArrayTable.send_delay`)
    a positive constant delay within the transport's bound.
    """
    from ..network.channels import ConstantDelay
    from ..network.discovery import ConstantDiscovery

    def declined(by: str, reason: str) -> KernelPlan:
        return KernelPlan(None, (Decline("array_step", by, reason),))

    sim = transport.sim
    if not sim.batch:
        return declined(
            "reference",
            "the handle() reference kernel was selected "
            "(REPRO_BATCH=0 / Simulator(batch=False))",
        )
    if veto is not None:
        return KernelPlan(None, (veto,))
    drivers = cast("list[ClockSyncNode | None]", transport._node_seq)
    if ids is None:
        ids = range(len(drivers))
    if not ids or ids.stop > len(drivers):
        return declined("population", "no registered nodes cover the id range")
    params: Any = None
    core_cls: type | None = None
    for i in ids:
        d = drivers[i]
        if not isinstance(d, ClockSyncNode):
            return declined("population", f"node id {i} has no registered driver")
        core = d.core
        if core_cls is None and type(core) in (DCSACore, StaticGradientCore):
            core_cls = type(core)
        if type(core) is not core_cls:
            name = type(core).__name__
            wanted = (core_cls or DCSACore).__name__
            return declined("core", f"node {i} runs {name}, not a plain {wanted}")
        if type(d.clock) not in _SEGMENT_CLOCKS:
            name = type(d.clock).__name__
            return declined(
                "clock",
                f"node {i} clock is {name}, not a piecewise-linear class of "
                "repro.sim.clocks",
            )
        if d._effect_log is not None:
            return declined("effect_log", f"node {i} has an effect log attached")
        if params is None:
            params = core.params
        elif core.params is not params:
            return declined(
                "params", f"node {i} does not share the population's SystemParams"
            )
    table = table_cls(sim, transport, drivers, ids)
    declines: list[Decline] = []
    delay: Any = transport.delay_policy
    for by, policy, cls in (
        ("delay_policy", delay, ConstantDelay),
        ("discovery_policy", transport.discovery_policy, ConstantDiscovery),
    ):
        if not (type(policy) is cls and policy.value > 0.0):
            declines.append(
                Decline(
                    "timer_runs", by,
                    f"{_policy_name(policy)} is not a positive constant: what a "
                    "tick pushes could sort inside a pre-popped timer run",
                )
            )
            break
    if (
        type(delay) is ConstantDelay
        and 0.0 < delay.value <= transport.max_delay + 1e-9
    ):
        table.send_delay = delay.value
    else:
        declines.append(
            Decline(
                "bulk_send", "delay_policy",
                f"{_policy_name(delay)} is not a positive constant within "
                "max_delay: ticks send through Transport.send, per message",
            )
        )
    return KernelPlan(table, tuple(declines))
