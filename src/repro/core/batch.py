"""The population as columns: one store, and the DCSA step over it.

The reference path turns every event into an ``Event``, a
``DCSACore.handle()`` call and an effect list the driver re-interprets.
:class:`NodeArrayTable` *owns* the state that step mutates -- ``L``,
``Lmax``, ``h_last``, the send and jump tallies and the clock segments as
id-indexed columns; Upsilon, the live adjacency, every Gamma row
(``L^v_u``, ``C^v_u``) and ``lost`` deadline as columns over *slots*, one
per directed pair ``(owner, neighbour)`` -- and executes the step against
it for every in-run event of the population it was built for.  That
population (:class:`repro.core.node.Population`, wired by
:class:`repro.harness.runner.Experiment`) is this store from set-up on, a
driver and its core built only for a node something touches; a core is a
view of its row (:func:`repro.core.protocol.row_type`): nothing is
mirrored and nothing is copied back.

**Two lanes, one store.**  The *scalar lane* executes one record at a
time -- :meth:`NodeArrayTable.deliver_one` per message,
:meth:`NodeArrayTable._tick` per node, in record order, the reference's
-- and a run of records is a loop over those bodies.  From
:data:`ARRAY_LANE_MIN` events up a run takes the *array lane*: the same
IEEE operations in the same association order, as a dozen numpy passes,
which hands what it cannot prove order-free to the scalar lane.  The columns
are ``array.array`` buffers (the scalar lane gets Python floats) with
numpy views over the same memory (:class:`_Views`).

**Parity contract.**  Both lanes are bit-identical to scalar dispatch,
queue order, RNG draws, tallies and span rows included.  The argument --
and every hand-over rule -- is made once, in ``docs/performance.md`` ("The
batch kernel"; tracing in ``docs/observability.md``).

**The kernel plan.**  Which paths a run takes is decided once, by
:func:`kernel_plan`, where the simulator's first ``run_until``
begins -- after all ``t = 0`` wiring -- and holds for the whole run (an
effect log attached to a covered node afterwards raises).  A touched node
the table cannot run is refused; every path that declined is a
:class:`Decline` of the plan.  The span tracer is a passenger, not a
gate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import inf
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Iterator,
    Mapping,
    Sequence,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt

from ..sim.clocks import (
    ConstantRateClock,
    HardwareClock,
    PiecewiseRateClock,
    SteerableClock,
)
from ..sim.events import (
    KIND_DELIVER_BURST,
    KIND_TICK_BURST,
    KIND_TIMER,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    ScheduledEvent,
)
from ..sim.simulator import SimulationError, Simulator
from ..tracing.spans import SPAN_DISCOVER, SPAN_FLIGHT, SPAN_TIMER, STATUS_DONE
from .node import ClockSyncNode
from .protocol import DCSACore, StaticGradientCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..network.transport import Transport
    from ..tracing.context import Tracer

__all__ = [
    "ARRAY_LANE_MIN",
    "LANE_FIELDS",
    "Decline",
    "KernelPlan",
    "NodeArrayTable",
    "PopulationReader",
    "SEGMENT_CLOCKS",
    "SampleGrid",
    "Sampler",
    "TABLE_CORES",
    "WaveRows",
    "kernel_plan",
]

_TICK = "tick"
_LOST = "lost"

#: Batches of at least this many events -- a delivery run or burst, a tick
#: run or group -- take the array lane.  Measured (docs/performance.md):
#: an array pass has a fixed cost of a few dozen microseconds, which a
#: scalar loop spends on a few dozen events, and real traffic is bimodal
#: (runs of <= 8 or of thousands), so the constant is never near a batch.
ARRAY_LANE_MIN = 64

#: Rows of more slots than this advance their estimates in one numpy pass
#: (:meth:`NodeArrayTable._sync`): measured, a fancy-indexed ``+=`` costs
#: what ten ``array.array`` element updates do, whatever its length.
_LONG_ROW = 10

#: The clocks whose ``value`` / ``time_at`` the table's segment columns
#: reproduce; matched by exact type, a subclass may override either.
SEGMENT_CLOCKS = (ConstantRateClock, PiecewiseRateClock, SteerableClock)

#: The cores whose step the table runs (the DCSA, and the DCSA with a
#: constant ``B``); matched by exact type, like the clocks.
TABLE_CORES = (DCSACore, StaticGradientCore)

#: The table's per-lane tallies, as they travel on ``RunResult``, in
#: ``repro run --json`` and as ``kernel.*`` telemetry readbacks.
LANE_FIELDS = ("array_lane_events", "scalar_lane_events", "blocked_rows")

_NODE_COLUMNS = (
    "rate", "t0", "h0", "t1", "h1", "L", "Lmax", "h_last", "total_jump",
    "messages_sent", "jumps",
)
#: Per slot column, in allocation order: its ``array`` typecode and what a
#: slot holds before a pair takes it (``+inf``: outside Gamma, disarmed;
#: ``-inf``: never cut).
_SLOT_COLUMNS = {
    "owner": ("q", 0), "peer": ("q", 0), "mate": ("q", 0), "lost_seq": ("q", 0),
    "ups": ("B", 0), "live": ("B", 0),
    "l_est": ("d", inf), "added_h": ("d", 0.0), "lost_dl": ("d", inf),
    "cut": ("d", -inf),
}

_F64 = npt.NDArray[np.float64]
_I64 = npt.NDArray[np.int64]


class _Views:
    """numpy views of the table's ``array.array`` columns (shared memory;
    renewed when the slot columns grow, :meth:`NodeArrayTable._grow`)."""

    __slots__ = _NODE_COLUMNS + tuple(_SLOT_COLUMNS)

    def __init__(self, table: "NodeArrayTable") -> None:
        for name in self.__slots__:
            col = getattr(table, name)
            setattr(self, name, np.frombuffer(col, dtype=col.typecode))


@dataclass(slots=True)
class _Payloads:
    """The payload slot of a burst the array tick lane built: the senders'
    ``(L, Lmax)`` as two columns, with the per-message destination ids and
    slots the delivery lane indexes by.  Reads like the list of ``(L,
    Lmax)`` tuples a scalar-built burst carries."""

    l: _F64
    lmax: _F64
    dst: _I64
    slots: _I64

    def __getitem__(self, i: int) -> tuple[float, float]:
        return (self.l.item(i), self.lmax.item(i))


@dataclass(slots=True)
class WaveRows:
    """The discoveries of E_0's wave record as two id columns: row ``i``
    is ``(nids[i], others[i], True, False)``.  Reads like the list of
    those ``(node, other, added, absence)`` rows."""

    nids: _I64
    others: _I64

    def __len__(self) -> int:
        return len(self.nids)

    def __iter__(self) -> Iterator[tuple[int, int, bool, bool]]:
        return zip(self.nids.tolist(), self.others.tolist(), repeat(True), repeat(False))


#: What :meth:`NodeArrayTable.discover_run` executes: ``(node, other,
#: added, absence)`` rows, or the wave's columns.
DiscoveryRows = Union[Sequence[tuple[int, int, bool, bool]], WaveRows]


@dataclass(slots=True)
class _TickPlan:
    """One tick run's bulk sends, valid while the table's ``edits`` is
    ``key``: per message the sender and destination (``us`` / ``vs``,
    ``src`` / ``dst``) and the destination's slot for the sender; per
    member of ``ids`` its message count; as ``(member position, message
    offset)`` the ``loose`` members, which send per message; ``spans``,
    the span-row template of :meth:`NodeArrayTable._tick_spans`."""

    key: int
    ids: _I64
    us: list[int]
    vs: list[int]
    src: _I64
    dst: _I64
    slots: _I64
    counts: _I64
    loose: list[tuple[int, int]]
    spans: tuple[Any, ...] | None = None


@dataclass(slots=True)
class _Burst:
    """The bulk sends of scalar-lane ticks not yet pushed: per message the
    sender, destination, payload and (traced) flight span id."""

    us: list[int] = field(default_factory=list)
    vs: list[int] = field(default_factory=list)
    payloads: list[Any] = field(default_factory=list)
    sids: list[int] = field(default_factory=list)


class NodeArrayTable:
    """The store of a column population, and the DCSA step over it.

    Built at set-up, by :class:`~repro.harness.runner.Experiment` only,
    from the population's ``rates`` (``clocks`` holds a clock only for a
    row that needs one; such a row is seated from it); ``core`` carries
    the ``B`` coefficients.  The table covers the id range ``ids`` -- the
    whole population, or a shard's range under :mod:`repro.sim.par`,
    whose subclass changes only which senders may bulk-send and the
    context in which they push.
    """

    __slots__ = (
        "sim",
        "transport",
        "clocks",
        "ids",
        *_NODE_COLUMNS,
        *_SLOT_COLUMNS,
        "pair_keys",
        "row_start",
        "slotmap",
        "row_index",
        "n_slots",
        "edits",
        "removals",
        "dests",
        "wakes",
        "arms",
        "np",
        "tick_interval",
        "delta_t_prime",
        "b0",
        "b_intercept",
        "b_slope",
        "send_delay",
        "boundary",
        "array_lane_events",
        "scalar_lane_events",
        "blocked_rows",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: "Transport",
        ids: range,
        core: DCSACore,
        clocks: "list[HardwareClock | None]",
        rates: _F64,
    ) -> None:
        self.sim = sim
        self.transport = transport
        #: The validated node-id range.  ``clocks`` / ``slotmap`` and the
        #: id-indexed columns are indexed by node id, so a table over part
        #: of the population (a shard) has holes outside ``ids``.
        self.ids = ids
        n = transport.graph.n  # every id: a shard's pairs end anywhere
        #: Per node id the clock a row is re-seated from when real time
        #: leaves its segment (``None``: a constant rate, whose one segment
        #: never ends).
        self.clocks = clocks
        #: Each row's current :data:`~repro.sim.clocks.Segment`, one column
        #: per field: ``H(t) = h0 + rate * (t - t0)`` while ``t < t1``, and
        #: ``H`` reaches ``target < h1`` at ``t0 + (target - h0) / rate``.  A
        #: reader at ``t >= t1`` re-seats the row first (:meth:`_reseat`).
        #: Seated here from ``rates``, a clock's row from the clock.
        self.rate = array("d", bytes(8 * n))
        self.t0 = self.rate[:]
        self.h0 = self.rate[:]
        self.t1 = self.rate[:]
        self.h1 = self.rate[:]
        #: The lazy state of Algorithm 2, valid at hardware reading
        #: ``h_last`` (see :mod:`repro.core.protocol`), and the send and
        #: jump tallies.
        self.L = self.rate[:]
        self.Lmax = self.rate[:]
        self.h_last = self.rate[:]
        self.total_jump = self.rate[:]
        self.messages_sent = array("q", bytes(8 * n))
        self.jumps = self.messages_sent[:]
        #: The slot columns, one entry per directed pair ``(v, u)``: ``owner``
        #: (``v``), ``peer`` (``u``), ``mate`` (the slot of ``(u, v)``),
        #: ``ups`` (``u`` in Upsilon_v), ``live`` (edge ``{v, u}`` present)
        #: and ``cut`` (when it was last removed; both :meth:`flip`), Gamma
        #: (``l_est`` = ``L^u_v``, ``+inf`` while ``u`` is outside;
        #: ``added_h`` = ``C^u_v``) and ``lost(u)`` (deadline
        #: ``lost_dl``, ``+inf`` while disarmed; ``lost_seq``, when it was
        #: last armed).  Seeded with the adjacency the store is built on in
        #: ``(owner, peer)`` order -- row ``v``'s seeded slots are
        #: ``row_start[v]`` up to ``row_start[v + 1]``, and ``pair_keys``
        #: holds their ``owner * n + peer`` (then a sentinel) for bulk
        #: lookups -- a pair first met later takes the next two free
        #: slots; no slot ever moves.
        keys = transport.graph.pair_keys()  # ids are 0..n-1: n is the base
        keys = keys[slice(*np.searchsorted(keys, (ids.start * n, ids.stop * n)))]
        first = self.n_slots = len(keys)
        self.pair_keys = np.append(keys, np.iinfo(np.int64).max)
        size = first + max(16, first // 8)
        (
            self.owner, self.peer, self.mate, self.lost_seq, self.ups, self.live,
            self.l_est, self.added_h, self.lost_dl, self.cut,
        ) = (array(code, [fill]) * size for code, fill in _SLOT_COLUMNS.values())
        self.np: Any = _Views(self)
        col = self.np
        lo, hi = ids.start, ids.stop
        col.rate[lo:hi] = rates[lo:hi]
        col.t1[lo:hi] = col.h1[lo:hi] = inf
        if clocks.count(None) < len(clocks):
            for i in ids:
                if clocks[i] is not None:
                    self._reseat(i, sim.now)
        owner = col.owner[:first] = keys // n
        col.peer[:first] = keys - owner * n
        col.live[:first] = True
        self.row_start = array("q", bytes(8 * (n + 1)))
        np.cumsum(np.bincount(owner, minlength=n), out=np.frombuffer(self.row_start, np.int64)[1:])
        #: ``slotmap[v]``, row ``v``'s ``{peer: slot}`` dict, is built the
        #: first time anything asks for it (:meth:`row`): seeded peers in
        #: order, then later pairs as they were met.
        self.slotmap: list[dict[int, int] | None] = [None] * n
        #: The slots of a long row as an index array (:meth:`_sync`).
        self.row_index: dict[int, npt.NDArray[np.intp]] = {}
        # A pair's mate is found by bisection; a shard's pair whose other
        # end it does not cover takes one.
        mirrored = col.peer[:first] * n + owner
        mate = col.mate[:first] = np.searchsorted(self.pair_keys, mirrored)
        for s in np.flatnonzero(self.pair_keys[mate] != mirrored).tolist():
            self.slot(self.peer[s], self.owner[s])
        #: Bumped by every write that changes an ``ups`` or ``live`` slot
        #: (a flip of a pair with no slots is none): the key a tick group's
        #: send plan is kept under.
        self.edits = 0
        #: Edge removals seen so far: while 0, no message can be lost in
        #: flight and the transport skips the drop rule.
        self.removals = 0
        #: :meth:`believed` per node, until its ``ups`` slots are written.
        self.dests: dict[int, list[int]] = {}
        #: The pending wake record per wake time, and the arms so far.
        self.wakes: dict[float, ScheduledEvent] = {}
        self.arms = 0
        #: ``B`` function coefficients, shared by every core (the plan
        #: verified a single ``params`` object): ``core``'s.
        self.tick_interval = core.params.tick_interval
        self.delta_t_prime = core.params.delta_t_prime
        self.b0 = core._b0
        self.b_intercept = core._b_intercept
        self.b_slope = core._b_slope
        #: The constant per-message delay when the transport's policy is a
        #: valid positive constant (set by :func:`kernel_plan`), else
        #: ``None``; gates the bulk-send path.
        self.send_delay: float | None = None
        #: Nodes that always send per message, whatever their slots say (a
        #: shard's boundary senders); a ticking node bulk-sends iff it is
        #: not one and every ``ups`` slot of its row is ``live``.
        self.boundary: AbstractSet[int] = frozenset()
        #: Events executed so far on each lane (singletons, burst and group
        #: constituents alike; ``lost`` fires are scalar), and the
        #: deliveries that scanned Gamma (``Lmax > L``).
        self.array_lane_events = 0
        self.scalar_lane_events = 0
        self.blocked_rows = 0

    @property
    def array_events(self) -> int:
        """Events the table executed so far, on either lane."""
        return self.array_lane_events + self.scalar_lane_events

    def seat(self, drivers: "Sequence[ClockSyncNode]") -> None:
        """Re-seat the rows of the drivers touched before the run from their
        clocks (an adversary may have swapped one); a
        :class:`~repro.sim.clocks.SteerableClock` re-seats its row on every
        rate change."""
        now = self.sim.now
        for d in drivers:
            i = d.node_id
            clock = self.clocks[i] = d.clock
            self._reseat(i, now)
            if type(clock) is SteerableClock:
                clock.on_rate_change = lambda i=i: self._reseat(i, self.sim.now)

    # ------------------------------------------------------------------ #
    # Rows and slots
    # ------------------------------------------------------------------ #

    def _reseat(self, i: int, t: float) -> None:
        """Seat row ``i`` on the segment of its clock that holds real time ``t``."""
        (
            self.rate[i], self.t0[i], self.h0[i], self.t1[i], self.h1[i]
        ) = self.clocks[i].segment_at(t)  # type: ignore[union-attr]

    def row(self, v: int) -> dict[int, int]:
        """Row ``v``'s ``{peer: slot}`` dict, built on the first call from
        its seeded slots (the array lane never needs it)."""
        row = self.slotmap[v]
        if row is None:
            lo, hi = self.row_start[v], self.row_start[v + 1]
            row = self.slotmap[v] = dict(zip(self.peer[lo:hi], range(lo, hi)))
        return row

    def slot(self, v: int, u: int) -> int:
        """The slot of the directed pair ``(v, u)``.  The first time either
        direction is asked for, the pair takes two fresh slots (outside
        Gamma and Upsilon, no ``lost`` record), each the other's ``mate``."""
        s = self.row(v).get(u)
        if s is None:
            s = self._take(v, u)
            r = self.row(u).get(v)
            if r is None:
                r = self._take(u, v)
            self.mate[s] = r
            self.mate[r] = s
        return s

    def _take(self, v: int, u: int) -> int:
        """Seat the directed pair ``(v, u)`` in the next free slot."""
        s = self.n_slots
        if s == len(self.owner):
            self._grow()
        self.n_slots = s + 1
        self.owner[s] = v
        self.peer[s] = u
        self.live[s] = self.transport._has_edge(v, u)
        self.row(v)[u] = s
        self.row_index.pop(v, None)
        return s

    def _grow(self) -> None:
        """Double the slot columns.  A numpy view pins its buffer, so the
        columns are reallocated and every holder of the old ones -- the
        views, a scalar loop's locals -- takes the new."""
        size = len(self.owner)
        for name, (code, fill) in _SLOT_COLUMNS.items():
            setattr(self, name, getattr(self, name) + array(code, [fill]) * size)
        self.np = _Views(self)

    def flip(self, u: int, v: int, added: bool, time: float) -> None:
        """Edge ``{u, v}`` appeared or vanished at ``time``: write ``live``,
        and a removal's ``time`` as ``cut``, on both of its slots (a pair
        without slots reads the graph when it takes them: no message can
        have crossed it yet)."""
        if not added:
            self.removals += 1
        s = self.row(u).get(v)
        if s is not None:
            r = self.mate[s]
            self.live[s] = self.live[r] = added
            if not added:
                self.cut[s] = self.cut[r] = time
            self.edits += 1

    def lost(self, u: int, v: int, sent: float) -> bool:
        """Whether the Section 3.2 rule drops the message ``u -> v`` sent
        at ``sent``: its edge is down, or was removed after the send (exact,
        as no removal is later than now).  Both slots of a pair are taken
        before a message can cross it, so ``cut`` saw every such removal."""
        s = self.slot(v, u)
        return not self.live[s] or self.cut[s] > sent

    def lost_in_flight(
        self, us: Sequence[int], vs: Sequence[int], sent: float, payloads: Any
    ) -> list[int]:
        """:meth:`lost` over a burst's messages ``us[i] -> vs[i]``, all sent
        at ``sent``: the positions dropped, from one read of the receivers'
        slots, which an array-built burst's ``payloads`` carry."""
        if type(payloads) is _Payloads:
            slots = payloads.slots
        else:
            m = len(us)
            slots = self._slots_of(np.fromiter(vs, np.int64, m), np.fromiter(us, np.int64, m))
        col = self.np  # after _slots_of: a new pair reallocates the columns
        return np.flatnonzero((col.live[slots] == 0) | (col.cut[slots] > sent)).tolist()

    def believe(self, v: int, u: int, yes: bool) -> None:
        """Write ``u in Upsilon_v`` (``yes``) or drop it: a discovery.  Only
        a write that changes the ``ups`` slot is an edit: dropping a pair
        with no slot, or rewriting what the slot holds, keeps every send
        plan and ``believed(v)``."""
        s = self.slot(v, u) if yes else self.row(v).get(u)
        if s is None or self.ups[s] == yes:
            return
        self.ups[s] = yes
        self.edits += 1
        self.dests.pop(v, None)

    def believed(self, v: int) -> list[int]:
        """Upsilon_v, sorted: whom ``v``'s tick sends to, in order (the
        caller does not mutate it)."""
        dests = self.dests.get(v)
        if dests is None:
            ups = self.ups
            dests = self.dests[v] = sorted([u for u, s in self.row(v).items() if ups[s]])
        return dests

    def _slots_of(self, owners: _I64, peers: _I64) -> _I64:
        """``slot(owners[i], peers[i])`` per entry: a seeded pair by one
        ``searchsorted`` on ``pair_keys``, a pair met later through its
        row."""
        wanted = owners * len(self.L) + peers
        slots = np.searchsorted(self.pair_keys, wanted)
        for i in np.flatnonzero(self.pair_keys[slots] != wanted).tolist():
            slots[i] = self.slot(owners.item(i), peers.item(i))
        return slots

    def forget(self, v: int, u: int) -> bool:
        """Drop ``u`` from ``v``'s Gamma and disarm ``lost(u)`` (returns
        whether ``u`` was there)."""
        s = self.row(v).get(u)
        if s is None or self.l_est[s] == inf:
            return False
        self.l_est[s] = self.lost_dl[s] = inf
        return True

    def _sync(self, i: int, now: float) -> float:
        """Materialise row ``i``'s lazy state at ``now`` and return its
        reading ``h = H_i(now)`` (off the row's segment, re-seated when
        left): ``L``, ``Lmax`` and every estimate advance by ``dh`` (``inf``
        stays ``inf``), element by element or, for a long row, in one numpy
        pass."""
        if now >= self.t1[i]:
            self._reseat(i, now)
        h = self.h0[i] + self.rate[i] * (now - self.t0[i])
        dh = h - self.h_last[i]
        if dh == 0.0:
            return h
        self.L[i] += dh
        self.Lmax[i] += dh
        self.h_last[i] = h
        slots = self.slotmap[i] or self.row(i)
        if len(slots) <= _LONG_ROW:
            l_est = self.l_est
            for s in slots.values():
                l_est[s] += dh
            return h
        index = self.row_index.get(i)
        if index is None:
            index = self.row_index[i] = np.fromiter(slots.values(), np.intp, len(slots))
        self.np.l_est[index] += dh
        return h

    def _deadline(self, i: int, target: float, now: float) -> float:
        """When row ``i``'s hardware clock reads ``target``, not before
        ``now`` (the clock is asked past the row's segment)."""
        if target < self.h1[i]:
            t = self.t0[i] + (target - self.h0[i]) / self.rate[i]
        else:
            t = self.clocks[i].time_at(target)  # type: ignore[union-attr]
        return t if t >= now else now

    def _sync_rows(self, ids: _I64) -> tuple[_F64, _F64, _F64, _F64]:
        """:meth:`_sync` of the distinct rows ``ids`` at ``now``, as columns
        (``x + 0.0`` is ``x``: no value is ``-0.0``).  Returns their
        segments' ``t0``, ``h0`` and ``rate`` and their reading ``h``."""
        now = self.sim.now
        col = self.np
        for i in ids[now >= col.t1[ids]].tolist():
            self._reseat(i, now)
        t0 = col.t0[ids]
        h0 = col.h0[ids]
        rate = col.rate[ids]
        h = h0 + rate * (now - t0)
        dh = h - col.h_last[ids]
        col.L[ids] += dh
        col.Lmax[ids] += dh
        col.h_last[ids] = h
        step = np.zeros(len(self.L))
        step[ids] = dh
        used = self.n_slots
        col.l_est[:used] += step[col.owner[:used]]
        return t0, h0, rate, h

    def _adjust_clock(self, i: int, tracer: "Tracer | None") -> None:
        """AdjustClock on synced row ``i``, the jump applied in place.

        The reference scan -- ``b = intercept - slope * (h - added_h)``,
        ``max(b, b0)``, ``l_est + b``, running ``min`` against ``Lmax``, in
        that association order -- entered only when ``Lmax > L`` (nothing
        else can release ``L``).  When traced the jump row is parented on
        ``tracer.current`` (the discovery or timer row the caller wrote).
        """
        L = self.L[i]
        ceiling = self.Lmax[i]
        if ceiling <= L:
            return
        h = self.h_last[i]
        l_est = self.l_est
        added_h = self.added_h
        b0 = self.b0
        intercept = self.b_intercept
        slope = self.b_slope
        for s in (self.slotmap[i] or self.row(i)).values():
            b = intercept - slope * (h - added_h[s])
            if b < b0:
                b = b0
            cand = l_est[s] + b
            if cand < ceiling:
                ceiling = cand
        if ceiling > L:
            if tracer is not None:
                tracer.jump(i, self.sim.now, ceiling - L)
            self.total_jump[i] += ceiling - L
            self.jumps[i] += 1
            self.L[i] = ceiling

    # ------------------------------------------------------------------ #
    # Deliveries
    # ------------------------------------------------------------------ #

    def deliver_one(self, u: int, v: int, payload: Any, sid: int | None) -> None:
        """Deliver one message ``u -> v`` the transport cleared: the
        statement of the per-message rule outside numpy.

        Sync ``v`` (a later message of the same timestamp finds ``dh =
        0``); Gamma track / refresh; raise ``Lmax``; AdjustClock (only when
        ``Lmax > L``); re-arm ``lost(u)`` -- :meth:`DCSACore.handle`'s
        order.  A run calls it per message, in record order.  When traced,
        a jump's ``SPAN_JUMP`` row is parented on ``sid``, the delivering
        flight's span id (``None``: pushed before the tracer was attached).
        """
        self.scalar_lane_events += 1
        now = self.sim.now
        h = self._sync(v, now)
        s = (self.slotmap[v] or self.row(v)).get(u)
        if s is None:
            s = self.slot(v, u)
        l_est = self.l_est  # after slot(): a new pair reallocates the columns
        l_v = payload[0]
        cur = l_est[s]
        if cur == inf:
            # Gamma (re-)entry: C^v_u := H_v now (pseudocode 17-19).
            l_est[s] = l_v
            self.added_h[s] = h
        elif l_v > cur:
            l_est[s] = l_v
        lmax_v = payload[1]
        if lmax_v > self.Lmax[v]:
            self.Lmax[v] = lmax_v
        if self.Lmax[v] > self.L[v]:
            self.blocked_rows += 1
            tracer = self.transport._tracer
            if tracer is None:
                self._adjust_clock(v, None)
            else:
                tracer.current = -1 if sid is None else sid
                self._adjust_clock(v, tracer)
                tracer.current = -1
        # Re-arm lost(u): two writes (see :meth:`lost_wake`).
        self.lost_dl[s] = self._deadline(v, h + self.delta_t_prime, now)
        self.lost_seq[s] = self.arms
        self.arms += 1

    def deliver_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of individual ``KIND_DELIVER``
        records (the transport dropped those whose link failed in flight;
        a record's flight span id, when traced, is its observer slot)."""
        if len(records) >= ARRAY_LANE_MIN:
            self._deliver(
                [ev.a for ev in records],
                [ev.b for ev in records],
                [ev.c for ev in records],
                [ev.e for ev in records],
            )
            return
        deliver = self.deliver_one
        for ev in records:
            deliver(ev.a, ev.b, ev.c, ev.e)

    def deliver_burst(
        self,
        us: list[int],
        vs: list[int],
        payloads: Any,
        sids: list[int] | None,
    ) -> None:
        """Execute one burst record's constituent deliveries; ``sids`` are
        their flight span ids (``None`` untraced)."""
        self._deliver(us, vs, payloads, sids)

    def _deliver(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        payloads: Any,
        sids: Sequence[int | None] | None,
    ) -> None:
        """Deliver the same-timestamp messages ``us[i] -> vs[i]``: on the
        array lane from :data:`ARRAY_LANE_MIN` up, which leaves ``rest``
        (message positions, in record order) to :meth:`deliver_one`."""
        m = len(us)
        rest: Sequence[int] = range(m)
        if m >= ARRAY_LANE_MIN:
            rest = self._deliver_array(us, vs, payloads)
            self.array_lane_events += m - len(rest)
        deliver = self.deliver_one
        for i in rest:
            deliver(us[i], vs[i], payloads[i], None if sids is None else sids[i])

    def _deliver_array(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        payloads: Any,
    ) -> Sequence[int]:
        """The array lane of a delivery run; returns the positions it left.

        :meth:`deliver_one` on whole columns, into temporaries first,
        written back for the destinations no hand-over rule claims (one
        left with ``Lmax > L``, past its segment, or met twice by a pair);
        those keep their messages, untouched.
        """
        m = len(us)
        if type(payloads) is _Payloads:
            l_in, lmax_in = payloads.l, payloads.lmax
            dst, slots = payloads.dst, payloads.slots
        else:
            flat = np.fromiter(chain.from_iterable(payloads), np.float64, 2 * m)
            l_in, lmax_in = flat[0::2], flat[1::2]
            dst = np.fromiter(vs, np.int64, m)
            slots = self._slots_of(dst, np.fromiter(us, np.int64, m))
        col = self.np  # after _slots_of: a new pair reallocates the columns
        now = self.sim.now
        n = len(self.L)
        hit = np.zeros(n, np.bool_)
        hit[dst] = True
        rows = np.flatnonzero(hit)
        where = np.empty(n, np.intp)
        where[rows] = np.arange(len(rows))
        at = where[dst]  # per message: its destination's position in rows
        # Sync, merge and deadline per destination, in temporaries.
        t0 = col.t0[rows]
        h0 = col.h0[rows]
        rate = col.rate[rows]
        h = h0 + rate * (now - t0)
        dh = h - col.h_last[rows]
        L = col.L[rows] + dh
        lmax = col.Lmax[rows] + dh
        np.maximum.at(lmax, at, lmax_in)
        target = h + self.delta_t_prime
        fire = np.maximum(t0 + (target - h0) / rate, now)
        # The hand-over rules.
        held = lmax > L
        held |= now >= col.t1[rows]
        held |= target >= col.h1[rows]
        held[at[np.bincount(slots, minlength=self.n_slots)[slots] > 1]] = True
        if held.all():
            return range(m)
        keep = ~held
        rows = rows[keep]
        col.L[rows] = L[keep]
        col.Lmax[rows] = lmax[keep]
        col.h_last[rows] = h[keep]
        # Every estimate of a written row advances by its dh (x + 0.0 is x
        # on the others: no estimate is -0.0); then the messages merge.
        step = np.zeros(n)
        step[rows] = dh[keep]
        used = self.n_slots
        col.l_est[:used] += step[col.owner[:used]]
        if not held.any():
            mine = slice(None)
            rest: Sequence[int] = ()
        else:
            mine = keep[at]
            rest = np.flatnonzero(~mine).tolist()
        s = slots[mine]
        at = at[mine]
        l_in = l_in[mine]
        cur = col.l_est[s]
        fresh = cur == inf  # Gamma (re-)entry: C^v_u := H_u now
        col.l_est[s] = np.where(fresh, l_in, np.maximum(cur, l_in))
        col.added_h[s[fresh]] = h[at[fresh]]
        col.lost_dl[s] = fire[at]
        col.lost_seq[s] = np.arange(self.arms, self.arms + len(s))
        self.arms += len(s)
        return rest

    # ------------------------------------------------------------------ #
    # Discoveries and ``lost`` fires
    # ------------------------------------------------------------------ #

    def discover_run(self, rows: DiscoveryRows) -> None:
        """Execute a same-timestamp run of discoveries.

        The one discovery body, entered by the transport with the ``(node,
        other, added, absence)`` rows of a pre-popped run of
        ``KIND_DISCOVER`` records, of a singleton, or of the wave record
        that stands for E_0 (its columns: :class:`WaveRows`); from
        :data:`ARRAY_LANE_MIN` rows it may take the array lane
        (:meth:`_discover_array`).  On the scalar lane, per
        row, in order, it is :meth:`Transport._handle_discover` plus
        ``DCSACore``'s discover handlers without the effect list: clear the
        absence-dedup key, skip a change that no longer holds, sync, greet
        with the pre-jump ``(L, Lmax)`` (or forget the Gamma row), update
        Upsilon, AdjustClock -- each row to completion.  Under a positive
        constant delay the greetings of a run of two or more travel as its
        one burst record (a greeting's edge was just tested present);
        otherwise each goes through :meth:`Transport.send`.  When traced,
        each delivered discovery writes its ``SPAN_DISCOVER`` row, the
        greeting's flight and any jump parented on it.
        """
        if len(rows) >= ARRAY_LANE_MIN and self._discover_array(rows):
            return
        transport = self.transport
        stats = transport.stats
        has_edge = transport._has_edge
        tracer = transport._tracer
        now = self.sim.now
        L_col = self.L
        lmax_col = self.Lmax
        sent = self.messages_sent
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
            self._sync(nid, now)
            if tracer is not None:
                tracer.discover(nid, other, now, added)
            if added:
                sent[nid] += 1
                payload = (L_col[nid], lmax_col[nid])
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
            else:
                self.forget(nid, other)
            self.believe(nid, other, added)
            if lmax_col[nid] > L_col[nid]:
                self._adjust_clock(nid, tracer)
        if u_list:
            self._push_burst(
                u_list, v_list, p_list, s_list if tracer is not None else None
            )
        delivered = len(rows) - skipped
        stats.discoveries_skipped += skipped
        stats.discoveries_delivered += delivered
        self.scalar_lane_events += delivered
        if tracer is not None:
            tracer.current = -1

    def _discover_array(self, rows: DiscoveryRows) -> bool:
        """The array lane of a discovery run (the E_0 wave); returns
        whether it ran: only when every row is an add whose edge is
        ``live`` and no node is blocked once synced (idempotent: a run
        handed over loses nothing), so that AdjustClock is vacuous.  When
        traced, its rows are one column block: per row its
        ``SPAN_DISCOVER`` row, then the greeting's flight parented on it."""
        tracer = self.transport._tracer
        m = len(rows)
        if m < 2 or self.send_delay is None:
            return False
        if type(rows) is WaveRows:
            who, others = rows.nids, rows.others
        else:
            nids, peers, added, absence = zip(*rows)
            if not all(added) or any(absence):
                return False
            who = np.fromiter(nids, np.int64, m)
            others = np.fromiter(peers, np.int64, m)
        slots = self._slots_of(who, others)
        col = self.np  # after _slots_of: a new pair reallocates the columns
        if not col.live[slots].all():
            return False
        sends = np.bincount(who, minlength=len(self.L))
        ids = np.flatnonzero(sends)  # np.unique(who), without its imports
        self._sync_rows(ids)
        if (col.Lmax[ids] > col.L[ids]).any():
            return False
        col.messages_sent += sends
        col.ups[slots] = True
        self.edits += 1
        self.dests.clear()
        payloads = _Payloads(col.L[who], col.Lmax[who], col.peer[slots], col.mate[slots])
        sids = None
        if tracer is not None:
            parent = np.arange(-1, 2 * m - 1)  # a flight's discover row precedes it
            parent[0::2] = -1
            sids = self._span_block(
                tracer, np.tile(np.array([SPAN_DISCOVER, SPAN_FLIGHT]), m),
                np.repeat(who, 2), np.repeat(payloads.dst, 2), parent,
            )[1::2].tolist()
        self._push_burst(who.tolist(), others.tolist(), payloads, sids)
        self.transport.stats.discoveries_delivered += m
        self.array_lane_events += m
        return True

    def _wake(self, slot: int) -> None:
        """List ``slot`` with the wake record of its ``lost`` deadline
        (pushed if there is none yet for that time)."""
        time = self.lost_dl[slot]
        wake = self.wakes.get(time)
        if wake is None:
            self.wakes[time] = self.sim.queue.push_typed(
                time, PRIORITY_TIMER, KIND_TIMER, None, _LOST, [slot],
                None, None, "timer",
            )
        else:
            wake.c.append(slot)

    def lost_wake(self, ev: ScheduledEvent) -> None:
        """Execute a wake record: the ``lost`` timers that expire now.

        A ``lost`` timer is its slot's deadline, written by every arm and
        queued nowhere; its owner lists the deadlines due before its next
        tick with the wake record of their time when it ticks (why that is
        in time: ``docs/performance.md``, "``lost`` timers").  A wake fires
        the listed slots whose deadline still is its time, in the order
        they were last armed -- the reference's cancel-and-push order --
        and re-expands them into the tallies as for a tick group.
        """
        now = ev.time
        del self.wakes[now]
        lost_dl = self.lost_dl
        due = [slot for slot in ev.c if lost_dl[slot] == now]
        if len(due) > 1:
            due.sort(key=self.lost_seq.__getitem__)
        sim = self.sim
        sim.events_dispatched += len(due) - 1
        if sim.kind_counts is not None:
            sim.kind_counts[KIND_TIMER] += len(due) - 1
        self.scalar_lane_events += len(due)
        tracer = self.transport._tracer
        for slot in due:
            self._lost_fire(slot, tracer)

    def _lost_fire(self, slot: int, tracer: "Tracer | None") -> None:
        """``lost(u)`` of ``slot``'s owner fires: forget ``u``'s estimate,
        adjust."""
        nid = self.owner[slot]
        now = self.sim.now
        if tracer is not None:
            tracer.timer_fired(nid, now)
        self._sync(nid, now)
        self.l_est[slot] = self.lost_dl[slot] = inf
        self._adjust_clock(nid, tracer)
        if tracer is not None:
            tracer.current = -1

    # ------------------------------------------------------------------ #
    # Ticks
    # ------------------------------------------------------------------ #

    def handle_timer_batch(self, records: list[ScheduledEvent]) -> None:
        """Execute a same-timestamp run of ``KIND_TIMER`` records (only
        under positive constant delay and discovery policies).  A run with
        anything but ticks in it replays the scalar timer handler in record
        order.  An all-tick run is re-armed by :meth:`rearm`: nodes
        that share a next deadline (a rate class in lockstep) collapse into
        one group record (:meth:`handle_tick_group`).
        """
        for ev in records:
            if ev.b != _TICK:
                fire = self.sim._handlers[KIND_TIMER]
                assert fire is not None
                for rec in records:
                    fire(rec)
                return
        ids = [ev.a for ev in records]
        fires, plan = self._tick_run(ids, None)
        self.rearm(ids, fires, records, plan)

    def rearm(
        self,
        ids: Sequence[int],
        fires: Sequence[float] | _F64,
        records: Sequence[ScheduledEvent] | None = None,
        plan: _TickPlan | None = None,
    ) -> None:
        """Arm the ticks of nodes ``ids`` at their deadlines ``fires`` (a
        run's next ones, or a population's first): one group record per
        deadline that two or more nodes share, pushed at its first member's
        position -- where the members' records would have sorted together
        -- and, for a node alone on its deadline, its record of ``records``
        re-pushed in place (a new one when ``None``).  A group carries its
        arm time in ``d`` like an individual record (see
        :meth:`_repush_tick`), and ``plan`` in ``c`` when it is the whole
        run.  The grouping is one stable sort of the deadlines."""
        at = np.asarray(fires, dtype=float)
        members = np.argsort(at, kind="stable")  # each deadline's positions in order
        deadlines = at[members]
        starts = np.flatnonzero(np.r_[True, deadlines[1:] != deadlines[:-1]])
        counts = np.diff(starts, append=len(at))
        order = np.argsort(members[starts])  # the deadlines in first-member order
        if isinstance(ids, range):
            grouped = (members + ids.start).tolist()
        else:
            grouped = np.asarray(ids)[members].tolist()
        whole = plan if len(starts) == 1 else None
        sim = self.sim
        push = sim.queue.push_typed
        for fire_t, lo, k in zip(
            at[members[starts[order]]].tolist(), starts[order].tolist(), counts[order].tolist()
        ):
            if k > 1:
                push(
                    fire_t, PRIORITY_TIMER, KIND_TICK_BURST, grouped[lo : lo + k],
                    None, whole, sim.now, None, "tick+", e=k,
                )
            elif records is not None:
                self._repush_tick(records[int(members[lo])], fire_t)
            else:
                push(
                    fire_t, PRIORITY_TIMER, KIND_TIMER, grouped[lo],
                    _TICK, None, sim.now, None, "timer", e=int(sim.in_run),
                )

    def arm_ticks(self, fires: _F64) -> None:
        """Arm the first ticks of a column population, ``fires`` per id of
        ``ids``, where :meth:`ClockSyncNode.start` would have armed them:
        as :meth:`rearm` regroups a tick run when the plan will pre-pop
        timer runs, else one record per node in id order."""
        if _timer_runs_decline(self.transport) is None:
            self.rearm(self.ids, fires)
        else:
            self._arm_each(fires)

    def _arm_each(self, fires: _F64) -> None:
        """One set-up tick record per node of ``ids``, in id order."""
        now = self.sim.now
        push = self.sim.queue.push_typed
        for i, fire_t in zip(self.ids, fires.tolist()):
            push(fire_t, PRIORITY_TIMER, KIND_TIMER, i, _TICK, None, now, None, "timer", e=0)

    def _repush_tick(self, ev: ScheduledEvent, fire_t: float) -> None:
        """Re-arm the just-fired tick record ``ev`` in place at ``fire_t``,
        the arm time and in-run phase bit in ``d`` / ``e`` as
        :meth:`ClockSyncNode._arm_timer` stamps them (the parallel backend
        keys timer provenance on those slots)."""
        sim = self.sim
        ev.d = sim.now
        ev.e = 1
        sim.queue.repush(ev, fire_t)

    def tick_one(self, ev: ScheduledEvent) -> None:
        """Execute a singleton ``tick`` record (``a``: the node id):
        :meth:`_tick`, then its re-arm.  Nothing was pre-popped, so sends that land at the current
        timestamp (zero or random delays) dispatch before the next timer,
        as under scalar dispatch."""
        burst = None if self.send_delay is None else _Burst()
        fire_t = self._tick(ev.a, burst)
        if burst is not None:
            self._flush(burst)
        self._repush_tick(ev, fire_t)

    def handle_tick_group(self, ev: ScheduledEvent) -> None:
        """Execute one tick-group record (:data:`KIND_TICK_BURST`): as
        :meth:`handle_timer_batch` over the constituents' tick records, in
        list order.  In the steady state every deadline coincides again and
        the group re-pushes *itself* -- same record, id list and send plan
        -- so a tick cycle of n nodes costs one heap entry; if the
        deadlines diverge it regroups (:meth:`rearm`)."""
        ids = ev.a
        fires, ev.c = self._tick_run(ids, ev.c)
        sim = self.sim
        if fires.count(fires[0]) == len(fires):
            ev.d = sim.now
            sim.queue.repush(ev, fires[0])
        else:
            self.rearm(ids, fires)

    def _tick_run(
        self, ids: Sequence[int], plan: _TickPlan | None
    ) -> tuple[list[float], _TickPlan | None]:
        """Sync, send and AdjustClock for a run of ticking nodes ``ids``, on
        the lane its size selects -- the scalar one is :meth:`_tick` per
        node, their bulk sends one burst.  Returns each node's next tick
        deadline and the send plan to keep with the group, if any."""
        k = len(ids)
        if k >= ARRAY_LANE_MIN and self.send_delay is not None:
            if plan is None or plan.key != self.edits:
                plan = self._tick_plan(ids, plan)
            self.array_lane_events += k
            return self._tick_array(ids, plan, self.transport._tracer), plan
        burst = None if self.send_delay is None else _Burst()
        fires = [self._tick(i, burst) for i in ids]
        if burst is not None:
            self._flush(burst)
        return fires, plan

    def _tick_plan(
        self, members: Sequence[int], stale: _TickPlan | None
    ) -> _TickPlan:
        """Who sends what to whom when ``members`` tick (:class:`_TickPlan`;
        ``stale``: their previous plan), as a column selection: the
        members' ``ups`` slots in ``(member position, peer)`` order -- each
        member's sorted Upsilon -- read through ``owner`` / ``peer`` /
        ``mate``.  A member with an ``ups`` slot that is not ``live`` (or a
        ``boundary`` sender) is an entry of ``loose`` instead."""
        col = self.np
        k = len(members)
        ids = stale.ids if stale else np.array(members, np.int64)
        n = len(self.L)
        used = self.n_slots
        at = np.full(n, -1, np.int64)  # node id -> member position
        at[ids] = np.arange(k)
        sel = np.flatnonzero(col.ups[:used] & (at[col.owner[:used]] >= 0))
        member = at[col.owner[sel]]
        loose = np.zeros(k, np.bool_)
        loose[member[col.live[sel] == 0]] = True
        if self.boundary:
            loose |= np.isin(ids, list(self.boundary))
        loose &= np.bincount(member, minlength=k) > 0  # a silent member sends nothing
        keep = ~loose[member]
        sel = sel[keep]
        member = member[keep]
        order = np.argsort(member * n + col.peer[sel])
        sel = sel[order]
        counts = np.bincount(member[order], minlength=k)
        src = col.owner[sel]
        dst = col.peer[sel]
        offsets = np.cumsum(counts) - counts
        loose_at = np.flatnonzero(loose)
        return _TickPlan(
            key=self.edits,
            ids=ids,
            us=src.tolist(),
            vs=dst.tolist(),
            src=src,
            dst=dst,
            slots=col.mate[sel],
            counts=counts,
            loose=list(zip(loose_at.tolist(), offsets[loose_at].tolist())),
        )

    def _tick_array(
        self,
        members: Sequence[int],
        plan: _TickPlan,
        tracer: "Tracer | None",
    ) -> list[float]:
        """The array lane of :meth:`_tick`: the members sync as
        columns, the payloads are gathered through the plan *before* any
        AdjustClock, the bursts are pushed around the plan's per-message
        senders, then the members left with ``Lmax > L`` -- in member
        order -- run the scalar AdjustClock.
        """
        now = self.sim.now
        col = self.np
        ids = plan.ids
        t0, h0, rate, h = self._sync_rows(ids)
        col.messages_sent[ids] += plan.counts
        target = h + self.tick_interval
        fire = t0 + (target - h0) / rate
        for j in np.flatnonzero(target >= col.h1[ids]).tolist():
            fire[j] = self.clocks[members[j]].time_at(target.item(j))  # type: ignore[union-attr]
        fire = np.maximum(fire, now)
        step = np.full(len(self.L), -inf)
        step[ids] = fire
        used = self.n_slots
        for s in np.flatnonzero(col.lost_dl[:used] <= step[col.owner[:used]]).tolist():
            self._wake(s)
        # Sends: the plan's messages as bursts, split where a per-message
        # sender ticks (its sends go out at its scalar position); when
        # traced, the members' span rows as column blocks, split the same
        # way (the per-message sender's rows are its scalar ones).
        us = plan.us
        m = len(us)
        if tracer is not None:
            kind, node, peer, parent, timer_at, flight_at = self._tick_spans(plan)
            timer_sids = np.empty(len(members), np.int64)
        if m or plan.loose or tracer is not None:
            l_out = col.L[plan.src]
            lmax_out = col.Lmax[plan.src]
            whole = not plan.loose  # then the plan's own lists travel, uncopied
            start = first = 0
            for j, end in (*plan.loose, (-1, m)):
                last = len(members) if j < 0 else j  # the block's members: first..last-1
                sids = None
                if tracer is not None and last > first:
                    r0, r1 = timer_at[first], timer_at[last]
                    block = self._span_block(
                        tracer, kind[r0:r1], node[r0:r1], peer[r0:r1], parent[r0:r1] - r0
                    )
                    timer_sids[first:last] = block[timer_at[first:last] - r0]
                    sids = block[flight_at[start:end] - r0].tolist()
                if end > start:
                    cut = slice(start, end)
                    self._push_burst(
                        us if whole else us[cut],
                        plan.vs if whole else plan.vs[cut],
                        _Payloads(
                            l_out[cut], lmax_out[cut], plan.dst[cut], plan.slots[cut]
                        ),
                        sids,
                    )
                    start = end
                if j >= 0:
                    nid = members[j]
                    if tracer is not None:
                        tracer.current = timer_sids[j] = self._trace_tick(
                            tracer, nid, (), now, []
                        )
                    self._send_each(
                        nid, (self.L[nid], self.Lmax[nid]), self.believed(nid)
                    )
                first = last + 1
        for j in np.flatnonzero(col.Lmax[ids] > col.L[ids]).tolist():
            if tracer is not None:
                tracer.current = int(timer_sids[j])
            self._adjust_clock(members[j], tracer)
        if tracer is not None:
            tracer.current = -1
        return fire.tolist()  # type: ignore[no-any-return]

    def _tick_spans(self, plan: _TickPlan) -> tuple[Any, ...]:
        """The span rows of ``plan``'s tick run in scalar order, as a
        template kept with the plan: per member its ``SPAN_TIMER`` row,
        then one flight row per bulk send, parented on it
        (:meth:`_trace_tick`'s rows).  Holds the kind, node, peer and
        parent (a template row, -1: none) columns, then per member its
        timer row (and the row count after the last) and per message its
        flight row."""
        if plan.spans is None:
            k = len(plan.ids)
            m = len(plan.us)
            member = np.repeat(np.arange(k), plan.counts)  # per message
            timer_at = np.arange(k + 1) + np.append(0, np.cumsum(plan.counts))
            flight_at = np.arange(m) + member + 1
            kind = np.full(k + m, SPAN_TIMER)
            kind[flight_at] = SPAN_FLIGHT
            node = np.empty(k + m, np.int64)
            node[timer_at[:k]] = plan.ids
            node[flight_at] = plan.src
            peer = np.full(k + m, -1)
            peer[flight_at] = plan.dst
            parent = np.full(k + m, -1)
            parent[flight_at] = timer_at[member]
            plan.spans = (kind, node, peer, parent, timer_at, flight_at)
        return plan.spans

    def _span_block(
        self, tracer: "Tracer", kind: _I64, node: _I64, peer: _I64, parent: _I64
    ) -> _I64:
        """Write an array-lane run's span rows as one column block of the
        tracer's table; returns each row's span id.  ``parent`` is a row
        of the block (negative: none).  Every row is born ``DONE`` now, a
        flight closed optimistically at its delivery time, a discovery an
        add.  Past the table's capacity a row is counted in ``dropped``
        and its id is -1, as a row written one at a time is (a row's
        parent precedes it, so a written row's parent was written too)."""
        now = self.sim.now
        table = tracer.table
        base = len(table)
        k = len(kind)
        fit = max(0, min(k, table.capacity - base))
        ids = np.arange(base, base + k)
        ids[fit:] = -1
        table.dropped += k - fit
        if fit:
            kind, node, peer, parent = kind[:fit], node[:fit], peer[:fit], parent[:fit]
            table.write_block((
                kind,
                node,
                peer,
                np.full(fit, now),
                np.where(kind == SPAN_FLIGHT, now + cast(float, self.send_delay), now),
                np.where(parent < 0, -1, parent + base),
                np.full(fit, STATUS_DONE),
                (kind == SPAN_DISCOVER).astype(np.float64),
            ))
        return ids

    def _tick(self, nid: int, burst: _Burst | None) -> float:
        """Node ``nid``'s tick on the scalar lane -- the statement of the
        per-node tick outside numpy.  Returns its next deadline.

        Sync; send ``(L, Lmax)`` to ``sorted(Upsilon)``; look at its ``lost``
        deadlines (:meth:`lost_wake`); AdjustClock -- the reference's
        order.  The sends join ``burst`` when one is given (a positive
        constant delay) and every believed neighbour is ``live`` (the
        bulk-send rule; a shard's ``boundary`` senders never do); otherwise
        the burst built so far is pushed and they go through the transport,
        per message.  When traced, the ``SPAN_TIMER`` row and the bulk
        sends' flight rows are written here (:meth:`_trace_tick`); the
        timer's span id stays ``tracer.current`` across the sends and
        parents a jump.
        """
        self.scalar_lane_events += 1
        now = self.sim.now
        h = self._sync(nid, now)
        row = self.slotmap[nid] or self.row(nid)
        dests = self.believed(nid)
        bulk = burst  # where the sends go: the burst, or (None) per message
        if bulk is not None:
            live = self.live
            if nid in self.boundary or not all(live[row[u]] for u in dests):
                bulk = None
        tracer = self.transport._tracer
        if tracer is not None:
            if bulk is None:
                tracer.current = self._trace_tick(tracer, nid, (), now, [])
            else:
                tracer.current = self._trace_tick(
                    tracer, nid, dests, now + cast(float, self.send_delay), bulk.sids
                )
        if dests:
            payload = (self.L[nid], self.Lmax[nid])
            if bulk is not None:
                k = len(dests)
                # Scalar _send bumps the counter at emission time; the
                # burst bypasses the effect list, so count here.
                self.messages_sent[nid] += k
                bulk.us += [nid] * k
                bulk.vs += dests
                bulk.payloads += [payload] * k
            else:
                if burst is not None:
                    self._flush(burst)
                self._send_each(nid, payload, dests)
        fire_t = self._deadline(nid, h + self.tick_interval, now)
        lost_dl = self.lost_dl
        for s in row.values():
            if lost_dl[s] <= fire_t:
                self._wake(s)
        if self.Lmax[nid] > self.L[nid]:
            self._adjust_clock(nid, tracer)
        if tracer is not None:
            tracer.current = -1
        return fire_t

    def _flush(self, burst: _Burst) -> None:
        """Push the sends ``burst`` holds as one burst record; empty it."""
        if burst.us:
            self._push_burst(
                burst.us, burst.vs, burst.payloads,
                burst.sids if self.transport._tracer is not None else None,
            )
            burst.us, burst.vs, burst.payloads, burst.sids = [], [], [], []

    def _trace_tick(
        self,
        tracer: "Tracer",
        nid: int,
        dests: Sequence[int],
        t1: float,
        sids: list[int],
    ) -> int:
        """Write ``nid``'s ``SPAN_TIMER`` row and, parented on it, one
        optimistically-closed flight row per bulk send (``Transport.send``'s
        row; ``t1`` is the delivery time) in one ``list.extend``.  Appends
        the flights' span ids to ``sids`` and returns the timer's."""
        now = self.sim.now
        table = tracer.table
        data = table.data
        sid = table.base + (len(data) >> 3)
        if sid + len(dests) >= table.capacity:
            # The table fills up within this driver's rows: go row by row
            # so every refused row is counted, as under scalar dispatch.
            sid = table.append(SPAN_TIMER, nid, -1, now, now, -1, STATUS_DONE)
            for v in dests:
                sids.append(table.append(SPAN_FLIGHT, nid, v, now, t1, sid, STATUS_DONE))
            return sid
        rows: list[Any] = [SPAN_TIMER, nid, -1, now, now, -1, STATUS_DONE, 0.0]
        for v in dests:
            rows += (SPAN_FLIGHT, nid, v, now, t1, sid, STATUS_DONE, 0.0)
        data.extend(rows)
        sids.extend(range(sid + 1, sid + 1 + len(dests)))
        return sid

    def _send_each(self, nid: int, payload: Any, dests: list[int]) -> None:
        """Send ``payload`` from ``nid`` to each of ``dests`` (its believed
        neighbours, sorted), per message: one transport call."""
        self.messages_sent[nid] += len(dests)
        self.transport.send_many(nid, dests, payload)

    def _push_burst(
        self,
        us: list[int],
        vs: list[int],
        payloads: Any,
        sids: Sequence[int] | None,
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

    def _hardware_column(self, t: float) -> _F64:
        """``H_u(t)`` for every node of ``ids``, elementwise off the
        segment columns (rows whose segment ``t`` has left re-seat first)."""
        lo, hi = self.ids.start, self.ids.stop
        col = self.np
        for i in np.flatnonzero(t >= col.t1[lo:hi]).tolist():
            self._reseat(lo + i, t)
        result: _F64 = col.h0[lo:hi] + col.rate[lo:hi] * (t - col.t0[lo:hi])
        return result

    def clock_column(self, t: float) -> _F64:
        """``L_u(t)`` for every node of ``ids`` as a dense array.

        Matches ``core.logical_clock_at(clock.value(t))`` bitwise: the
        fused expression evaluates ``L + (h - h_last)`` elementwise in the
        same order.
        """
        lo, hi = self.ids.start, self.ids.stop
        col = self.np
        result: _F64 = col.L[lo:hi] + (self._hardware_column(t) - col.h_last[lo:hi])
        return result

    def max_estimate_column(self, t: float) -> _F64:
        """``Lmax_u(t)`` for every node of ``ids`` as a dense array."""
        lo, hi = self.ids.start, self.ids.stop
        col = self.np
        result: _F64 = col.Lmax[lo:hi] + (
            self._hardware_column(t) - col.h_last[lo:hi]
        )
        return result


class PopulationReader:
    """``L_u(t)`` and ``Lmax_u(t)`` of a node map as dense columns in id
    order: what every sampler (a run's :class:`Sampler`, a shard worker,
    the live runtime) reads.

    ``transport`` registers exactly ``nodes`` (``None`` in a live
    session).  On its plan's table the columns are the table's fused ones,
    else one reader call per node -- equal bit for bit, so the plan
    changes what a sample costs, never what it reads.
    """

    def __init__(
        self, nodes: "Mapping[int, Any]", transport: "Transport | None" = None
    ) -> None:
        self.nodes = nodes
        self.transport = transport
        # Bound on the first sample without a table (a table never needs
        # them): a sample then skips the dict and attribute lookups.
        self._clock_readers: list[Any] | None = None
        self._estimate_readers: list[Any] | None = None

    def __call__(self, t: float, estimates: bool) -> tuple[_F64, _F64 | None]:
        """``(clocks, estimates)`` at ``t`` (``estimates`` is ``None``
        unless the call asked for them)."""
        transport = self.transport
        table = None if transport is None else transport.plan.table
        if table is not None:
            return (
                table.clock_column(t),
                table.max_estimate_column(t) if estimates else None,
            )
        if self._clock_readers is None:
            self._clock_readers = [self.nodes[i].logical_clock for i in sorted(self.nodes)]
        n = len(self._clock_readers)
        clocks = np.fromiter(
            (read(t) for read in self._clock_readers), dtype=float, count=n
        )
        if not estimates:
            return clocks, None
        if self._estimate_readers is None:
            self._estimate_readers = [self.nodes[i].max_estimate for i in sorted(self.nodes)]
        return clocks, np.fromiter(
            (read(t) for read in self._estimate_readers), dtype=float, count=n
        )


class Sampler:
    """A run's sample schedule and its one :class:`PopulationReader`: one
    :class:`SampleGrid` record per grid ``(interval, end)``, in the order added."""

    def __init__(
        self, sim: Simulator, nodes: "Mapping[int, Any]", transport: "Transport | None" = None
    ) -> None:
        self.sim = sim
        self.read = PopulationReader(nodes, transport)
        self._grids: dict[tuple[float, float | None], SampleGrid] = {}

    def add(
        self, interval: float, consumer: Any, *, end: float | None = None, estimates: bool = False
    ) -> None:
        """Feed ``consumer`` every ``interval`` from now until ``end``."""
        grid = self._grids.setdefault((float(interval), end), SampleGrid(self.read))
        grid.estimates |= estimates
        grid.consumers.append((consumer, estimates))

    def install(self) -> None:
        for (interval, end), grid in self._grids.items():
            self.sim.every(interval, grid.fire, end=end, count=len(grid.consumers))


class SampleGrid:
    """One sample record, counted as one sample per consumer: :meth:`fire`
    reads once and hands each consumer ``fn(t, clocks, estimates)``, in
    the order added, the same columns (``Lmax`` only if it asked)."""

    def __init__(self, read: PopulationReader) -> None:
        self.read = read
        self.estimates = False
        self.consumers: list[tuple[Any, bool]] = []

    def fire(self, t: float) -> None:
        clocks, lmax = self.read(t, self.estimates)
        for consumer, estimates in self.consumers:
            consumer(t, clocks, lmax if estimates else None)


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

    ``table`` is the table every in-run node event rides, or ``None``
    (the ``handle()`` reference); ``timer_runs`` and ``bulk_send`` are
    paths *of* the table, declined only when it exists.  The default is
    the plan of a simulator that has not started: nothing engaged.
    """

    table: NodeArrayTable | None = None
    declines: tuple[Decline, ...] = ()

    def engaged(self, path: str) -> bool:
        """Whether the run takes ``path``."""
        return self.table is not None and path not in {d.path for d in self.declines}


def _policy_name(policy: Any) -> str:
    value = getattr(policy, "value", None)
    return type(policy).__name__ + ("" if value is None else f"({value!r})")


def _timer_runs_decline(transport: "Transport") -> Decline | None:
    """Why the table may not pre-pop a run of timers (``None``: it may)."""
    from ..network.channels import ConstantDelay
    from ..network.discovery import ConstantDiscovery

    for by, policy, cls in (
        ("delay_policy", transport.delay_policy, ConstantDelay),
        ("discovery_policy", transport.discovery_policy, ConstantDiscovery),
    ):
        if not (type(policy) is cls and policy.value > 0.0):
            return Decline(
                "timer_runs", by,
                f"{_policy_name(policy)} is not a positive constant: what a "
                "tick pushes could sort inside a pre-popped timer run",
            )
    return None


def _refusal(nodes: Any, sim: Simulator) -> str | None:
    """Why the table cannot run column population ``nodes`` -- a touched
    node it cannot run, named -- or ``None`` when it can."""
    if not sim.batch:
        return (
            "the handle() reference kernel was selected after set-up built the "
            "table; select it before (REPRO_BATCH=0 / Simulator(batch=False))"
        )
    for d in nodes.touched():
        i = d.node_id
        if type(d.core) is not nodes._row_cls:
            return (
                f"node {i} runs a stand-alone {type(d.core).__name__}, not a view "
                f"of its {nodes.core_cls.__name__} row"
            )
        if type(d.clock) not in SEGMENT_CLOCKS:
            return (
                f"node {i} clock is {type(d.clock).__name__}, not a "
                "piecewise-linear class of repro.sim.clocks"
            )
        if d._effect_log is not None:
            return f"node {i} has an effect log attached"
        if d.core.params is not nodes.params:
            return f"node {i} does not share the population's SystemParams"
    return None


def kernel_plan(transport: "Transport") -> KernelPlan:
    """Decide, once per simulator, which paths the run takes.

    Called by the transport where the first ``run_until`` begins -- after
    ``t = 0`` wiring, so adversary clock swaps are visible.  A column
    population (:class:`~repro.core.node.Population`) runs on the table it
    brought from set-up; a node something touched that the table cannot
    run (a swapped core, a foreign clock, an effect log, foreign
    ``SystemParams``) raises :class:`~repro.sim.simulator.SimulationError`
    naming it -- the reference kernel (``REPRO_BATCH=0``) runs such a
    population.  Drivers registered one by one (a non-table core, the
    reference kernel, a hand-wired ``Simulator`` + ``Transport`` +
    drivers) decline the table.  The table's own paths need the policies
    checked after it.  ``docs/performance.md`` ("The kernel plan") has the
    table of paths, their needs and their ``declined_by``.
    """
    from ..network.channels import ConstantDelay

    nodes: Any = transport._node_seq
    store = getattr(nodes, "store", None)
    sim = transport.sim
    if store is not None:
        refusal = _refusal(nodes, sim)
        if refusal is not None:
            raise SimulationError(f"the batch table cannot run this population: {refusal}")

    def declined(by: str, reason: str) -> KernelPlan:
        return KernelPlan(None, (Decline("array_step", by, reason),))

    if store is None:
        if not sim.batch:
            return declined(
                "reference",
                "the handle() reference kernel was selected "
                "(REPRO_BATCH=0 / Simulator(batch=False))",
            )
        for d in nodes:
            if isinstance(d, ClockSyncNode) and type(d.core) not in TABLE_CORES:
                return declined(
                    "core", f"node {d.node_id} runs {type(d.core).__name__}, not a "
                    "core the table runs (DCSACore, StaticGradientCore)"
                )
        return declined(
            "population",
            "the nodes were registered one by one, not wired by Experiment as "
            "a column population, whose store the table is from set-up on",
        )
    covered = nodes.touched()
    store.seat(covered)
    declines: list[Decline] = []
    slow_timers = _timer_runs_decline(transport)
    if slow_timers is not None:
        declines.append(slow_timers)
    delay: Any = transport.delay_policy
    if (
        type(delay) is ConstantDelay
        and 0.0 < delay.value <= transport.max_delay + 1e-9
    ):
        store.send_delay = delay.value
    else:
        declines.append(
            Decline(
                "bulk_send", "delay_policy",
                f"{_policy_name(delay)} is not a positive constant within "
                "max_delay: ticks send through Transport.send, per message",
            )
        )
    return KernelPlan(store, tuple(declines))
