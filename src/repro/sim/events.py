"""Event primitives for the discrete-event simulation kernel.

The kernel dispatches :class:`ScheduledEvent` records in non-decreasing time
order.  Ties are broken first by an integer ``priority`` (lower fires first)
and then by insertion order (``seq``), which makes executions fully
deterministic for a given seed -- a property the test suite relies on.

Priorities group event classes so that, at equal timestamps, the environment
observes a consistent order:

* ``PRIORITY_TOPOLOGY`` -- graph add/remove events (the world changes first);
* ``PRIORITY_DELIVERY`` -- message deliveries;
* ``PRIORITY_TIMER`` -- node timers (ticks, lost-timers);
* ``PRIORITY_SAMPLE`` -- measurement/recorder callbacks (observe last).

**Typed event records.**  Orthogonally to the priority, every record carries
a ``kind`` tag that selects a kernel-level dispatch handler (see
:meth:`repro.sim.simulator.Simulator.set_handler`).  The hot subsystems --
message delivery, discovery, node timers, topology mutations and periodic
sampling -- schedule *payload-carrying records* instead of per-event
closures: the payload rides in the generic slots ``a``/``b``/``c``/``d``
and the handler interprets them.  ``KIND_CALLBACK`` remains the fully
general escape hatch (``fn`` is a zero-argument callable), used by churn
processes, adversaries and tests.

Records of every kind except ``KIND_CALLBACK`` are *reusable*: once popped
and dispatched they return to the queue's free list and back a later push,
so steady-state simulation allocates no event objects at all.  This is safe
because handles to non-callback records never escape their owning subsystem
(the sim driver holds timer handles only while the timer is pending and
drops them before dispatch/cancellation completes).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "PRIORITY_TOPOLOGY",
    "PRIORITY_DELIVERY",
    "PRIORITY_TIMER",
    "PRIORITY_SAMPLE",
    "KIND_CALLBACK",
    "KIND_DELIVER",
    "KIND_TIMER",
    "KIND_TOPOLOGY",
    "KIND_SAMPLE",
    "KIND_DISCOVER",
    "KIND_DELIVER_BURST",
    "KIND_TICK_BURST",
    "N_KINDS",
    "KIND_NAMES",
    "POOLABLE",
    "ScheduledEvent",
]

PRIORITY_TOPOLOGY = 0
PRIORITY_DELIVERY = 1
PRIORITY_TIMER = 2
PRIORITY_SAMPLE = 3

#: Generic closure event (``fn`` is a zero-argument callable).  Never pooled:
#: its handle escapes to arbitrary caller code.
KIND_CALLBACK = 0
#: Message delivery.  Payload: ``a=u, b=v, c=payload, d=send_time``.
KIND_DELIVER = 1
#: Subjective node timer.  Payload: ``a=driver, b=timer key, d=arm time,
#: e=arm phase`` (a wake record of the batch table: see ``c`` below).
KIND_TIMER = 2
#: Graph mutation.  Payload: ``a=graph, b=added(bool), c=u, d=v``.
KIND_TOPOLOGY = 3
#: Periodic measurement.  Payload: ``fn=callback(now), a=count, b=interval,
#: c=end`` (``count``: the samples one firing stands for).
KIND_SAMPLE = 4
#: Edge discovery notification.  Payload: ``a=node_id, b=other, c=added,
#: d=absence(bool)`` (absence = the dedicated failed-send discovery path).
#: A *wave* -- ``e=cardinality``, ``None`` on every other record -- stands
#: for all of ``E_0``'s notifications under a constant latency: ``a`` /
#: ``b`` are the node and peer ids of its ``(node_id, other, True, False)``
#: rows as int columns, in the individual records' push order; the
#: transport re-expands the cardinality into the tallies
#: (:meth:`repro.network.transport.Transport.announce_initial_edges`).
KIND_DISCOVER = 5
#: Aggregated same-timestamp message deliveries (batch kernel only; see
#: :mod:`repro.core.batch`).  One record stands for ``len(a)`` constituent
#: deliveries sharing one delivery time: ``a=[u...], b=[v...], c=[payload...]``
#: (parallel lists in send order), ``d=send_time``, ``e=[flight span id...]``
#: (``None`` when causal tracing is off).  The dispatch handler accounts the
#: constituents so ``events_dispatched`` and per-kind tallies match the
#: equivalent individual-record execution.
KIND_DELIVER_BURST = 6
#: Aggregated same-deadline tick timers (batch kernel only; see
#: :mod:`repro.core.batch`).  One record stands for the pending ``tick``
#: timers of ``e`` drivers whose deadlines coincide (a rate class in
#: lockstep): ``a=[driver...]`` in re-arm order, ``e=cardinality``.  Each
#: constituent driver's ``_timers["tick"]`` aliases the group record.
#: Creation relies on the invariant that nothing cancels a *pending* tick
#: (the protocol core only ever cancels ``lost`` timers and nodes are
#: never removed mid-run); the dispatch handler re-expands the cardinality
#: into the dispatch tallies exactly like a delivery burst.
KIND_TICK_BURST = 7

N_KINDS = 8

#: Human-readable kind labels, indexed by kind tag (telemetry, debugging).
KIND_NAMES = (
    "callback", "deliver", "timer", "topology", "sample", "discover",
    "deliver_burst", "tick_burst",
)

#: Per-kind recycling eligibility, indexed by kind tag.
POOLABLE = (False, True, True, True, True, True, True, True)


class ScheduledEvent:
    """A pending typed event record in the event queue.

    Instances double as *handles*: holding a reference allows cancellation
    via :meth:`repro.sim.queue.EventQueue.cancel` (lazy deletion -- the heap
    entry stays put and is skipped when popped).

    Attributes
    ----------
    time:
        Absolute simulation time at which the event fires.
    priority:
        Tie-break class (see module docstring).
    seq:
        Monotonic insertion index; the final tie-break.  Reassigned on every
        (re-)push, so a reused record sorts by its latest insertion.
    kind:
        Dispatch tag (one of the ``KIND_*`` constants).
    fn:
        Zero-argument callable for ``KIND_CALLBACK`` records; the periodic
        callback ``fn(now)`` for ``KIND_SAMPLE``; ``None`` otherwise.
    a, b, c, d:
        Kind-specific payload slots (see the ``KIND_*`` docs above).  A
        ``KIND_TIMER`` record with ``a=None, b="lost"`` is a *wake* of the
        batch table: ``c`` lists the slots whose ``lost`` deadline is its
        time (:meth:`repro.core.batch.NodeArrayTable.lost_wake`); a tick
        group carries its send plan in ``c``.
    e:
        Side-channel slot (``None`` when unused).  Delivery records carry
        their flights' trace span ids here when causal tracing is active
        -- one id on a ``KIND_DELIVER`` record, a list parallel to the
        constituents on a ``KIND_DELIVER_BURST`` -- and physics never reads
        them, which is what keeps the tracer's presence invisible to
        execution order and RNG draws.  Timer records use the slot for the
        arm phase / group cardinality instead (see ``KIND_TICK_BURST``).
    cancelled:
        Set by :meth:`EventQueue.cancel`; cancelled events are skipped.
    queued:
        Whether the record is currently in the heap; maintained by the
        queue.  A record that is not queued cannot be cancelled (it already
        fired or was never pushed).
    gen:
        Pool generation counter, bumped by the queue every time a recycled
        record is re-issued from the free list.  A caller that may hold a
        handle across the record's dispatch captures ``(handle, handle.gen)``
        and cancels with :meth:`EventQueue.cancel`'s ``gen=`` argument: if
        the record was recycled and re-issued in the meantime, the stale
        cancel returns ``False`` instead of killing the new event.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "kind",
        "fn",
        "a",
        "b",
        "c",
        "d",
        "e",
        "cancelled",
        "queued",
        "gen",
        "label",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any] | None = None,
        label: str = "",
        *,
        kind: int = KIND_CALLBACK,
        a: Any = None,
        b: Any = None,
        c: Any = None,
        d: Any = None,
        e: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.kind = kind
        self.fn = callback
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.e = e
        self.cancelled = False
        self.queued = False
        self.gen = 0
        self.label = label

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        lbl = f" {self.label!r}" if self.label else ""
        return (
            f"<ScheduledEvent t={self.time:.6g} prio={self.priority} "
            f"seq={self.seq} kind={self.kind}{lbl} {state}>"
        )
