"""The simulation driver for sans-IO protocol cores.

:class:`ClockSyncNode` binds one :class:`~repro.core.protocol.ProtocolCore`
to the discrete-event kernel: it translates transport callbacks and timer
expiries into protocol events, feeds them to the core at the node's current
hardware reading, and applies the returned effects against the simulator --
sends through the transport, subjective timers through the clock's exact
inverse, deferred jumps back into the core (with span recording).  The
core never sees the simulator; the driver never sees the algorithm.

The same cores run in real time under :mod:`repro.live`; this driver is
what keeps the historical execution semantics **bit-identical** to the
pre-refactor monolithic node classes (the golden-value pins enforce it):

* effects are applied synchronously, in emission order, within the same
  simulator event dispatch -- so message sends consume delay-policy RNG
  draws and event-queue sequence numbers exactly as before;
* a :class:`~repro.core.protocol.JumpL` effect is applied *in list order*,
  so sends emitted before the jump still observe the pre-jump logical
  clock (the adaptive delay adversary relies on this);
* ``SetTimer`` converts subjective delays via the clock inverse at the
  dispatch-time hardware reading, the same arithmetic as the original
  ``set_subjective_timer``.

**The array step.**  When the transport's kernel plan holds a
:class:`~repro.core.batch.NodeArrayTable`, every in-run event bypasses
this translation: the table owns the population's state -- the core is a
view of its row, its ``lost`` timers are slots, its ticks records by node
id -- and runs the same step without an ``Event`` or an effect list
(:mod:`repro.core.batch`).  Every event of any other population goes
through :meth:`_dispatch`; ``Start`` goes through it nowhere (see
:meth:`ClockSyncNode.start`).

**Nodes on first touch.**  A population the table runs (segment clocks,
a DCSA core, the default kernel; a shard's too) is a :class:`Population`
from set-up on: its clocks, first ticks and state are the store's
columns, and a driver -- with a core born a view of its row -- exists
only for a node something touched (an adversary, a hook, a test).  A
finished run hands an untouched node out as its :class:`NodeRow`, which
reads the row; every other population is a dict of drivers, as built,
and runs ``handle()``.

**Subjective timers.**  ``set timer(dt)`` in the pseudocode means: fire
when *my hardware clock* has advanced by ``dt``.  The driver converts via
the clock's exact inverse and registers a cancellable, keyed simulator
event (re-arming a key cancels the previous timer, which is what
``cancel(lost(v))``/``set timer(...)`` pairs compile to).

There is one driver class: an algorithm is its core (the classes
:data:`repro.harness.runner.ALGORITHMS` names), read as ``node.core``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from copy import copy
from math import inf
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..params import SystemParams
from ..sim.clocks import ConstantRateClock, HardwareClock
from ..sim.events import KIND_TIMER, PRIORITY_TIMER, ScheduledEvent
from ..sim.simulator import Simulator
from ..tracing.spans import SPAN_TIMER, STATUS_DONE
from .protocol import (
    ROW_FIELDS,
    CancelTimer,
    DiscoverAdd,
    DiscoverRemove,
    Effect,
    Event,
    JumpL,
    MessageReceived,
    ProtocolCore,
    Send,
    SetTimer,
    TimerFired,
    row_type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..tracing.context import Tracer
    from .batch import NodeArrayTable

__all__ = ["ClockSyncNode", "NodeRow", "Population"]

#: Optional per-node effect log entry: ``(now_h, event, effects)``.
EffectLogEntry = tuple[float, Event, tuple[Effect, ...]]


def _dispatch_timer(ev: ScheduledEvent) -> None:
    """Reference kernel handler for ``KIND_TIMER`` records (``a=driver,
    b=key``): what a population without a real transport registers."""
    ev.a._fire_timer(ev.b)


class ClockSyncNode:
    """Drive a sans-IO protocol core against the simulation kernel.

    Parameters
    ----------
    node_id:
        Graph node id this automaton controls.
    sim:
        The simulation kernel (source of real time and timers).
    clock:
        This node's hardware clock (``H(0) = 0``).
    transport:
        Message fabric; must expose ``send(u, v, payload)``.  A transport
        that holds a kernel plan also dispatches its drivers' timers
        (``_handle_timer``; see :class:`~repro.network.transport.Transport`).
    params:
        Shared model parameters.
    core:
        The :class:`~repro.core.protocol.ProtocolCore` this node runs.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        clock: HardwareClock,
        transport: Any,
        params: SystemParams,
        core: ProtocolCore,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.clock = clock
        self.transport = transport
        self.params = params
        self.core = core
        #: Keyed timers.  On the batch table only a foreign key lives here:
        #: a ``tick`` is a table record by node id, a ``lost`` deadline a slot.
        self._timers: dict[Any, ScheduledEvent] = {}
        #: The batch table covering this node (set at birth in a column
        #: population), whose slots hold its ``("lost", u)`` timers;
        #: ``None`` off a table.
        self._table: Any = None
        # One KIND_TIMER handler per simulator, registered idempotently by
        # every driver (populations wired onto a test double have nowhere
        # else to do it): the transport's, which routes table-covered
        # fires to the array step, else the reference dispatcher.
        sim.set_handler(
            KIND_TIMER, getattr(transport, "_handle_timer", _dispatch_timer)
        )
        self._effect_log: list[EffectLogEntry] | None = None

    @property
    def _tracer(self) -> "Tracer | None":
        """The transport's span tracer, which records this node's timer-fire
        and jump spans too (``None`` when causal tracing is off)."""
        return getattr(self.transport, "_tracer", None)

    @property
    def effect_log(self) -> list[EffectLogEntry] | None:
        """Set to a list to capture ``(now_h, event, effects)`` per dispatch
        (used by the sim<->live parity tests; ``None`` = off, free).

        A log must be attached before the run starts: it makes the kernel
        plan decline the array step, and that verdict holds for the whole
        run (on a table every in-run event would bypass ``handle()`` and
        the log silently), so a late attachment raises.
        """
        return self._effect_log

    @effect_log.setter
    def effect_log(self, log: list[EffectLogEntry] | None) -> None:
        plan = getattr(self.transport, "plan", None)
        if log is not None and plan is not None and plan.table is not None:
            raise RuntimeError(
                f"node {self.node_id}: cannot attach an effect log once the "
                "batch table is built (its events no longer pass through "
                "handle()); attach it before run()"
            )
        self._effect_log = log

    # ------------------------------------------------------------------ #
    # Clock reads
    # ------------------------------------------------------------------ #

    def hardware_clock(self, t: float | None = None) -> float:
        """``H_u(t)`` (defaults to the current simulation time)."""
        return self.clock.value(self.sim.now if t is None else t)

    def logical_clock(self, t: float | None = None) -> float:
        """``L_u(t)`` -- read-only, does not mutate lazy state.

        Valid for any ``t`` at or after the last processed event (the usual
        case: recorders sample the current time between events).
        """
        tt = self.sim.now if t is None else t
        h = self.clock.value(tt)
        core = self.core
        if h < core.h_last - 1e-12:
            raise ValueError(
                f"cannot read logical clock at t={tt!r} (H={h!r}) before "
                f"the last event (H={core.h_last!r})"
            )
        return core.logical_clock_at(h)

    def max_estimate(self, t: float | None = None) -> float:
        """``Lmax_u(t)`` -- read-only, same contract as :meth:`logical_clock`."""
        tt = self.sim.now if t is None else t
        h = self.clock.value(tt)
        core = self.core
        if h < core.h_last - 1e-12:
            raise ValueError(
                f"cannot read Lmax at t={tt!r} (H={h!r}) before "
                f"the last event (H={core.h_last!r})"
            )
        return core.max_estimate_at(h)

    # ------------------------------------------------------------------ #
    # Stats (owned by the core; re-exported for analysis code)
    # ------------------------------------------------------------------ #

    @property
    def jumps(self) -> int:
        """Number of discrete clock jumps so far."""
        return self.core.jumps

    @property
    def total_jump(self) -> float:
        """Total jumped distance so far."""
        return self.core.total_jump

    @property
    def messages_sent(self) -> int:
        """Messages the core asked to send so far."""
        return self.core.messages_sent

    # ------------------------------------------------------------------ #
    # Event dispatch and effect application
    # ------------------------------------------------------------------ #

    def _dispatch(self, event: Event) -> None:
        now_h = self.clock.value(self.sim.now)
        effects = self.core.handle(now_h, event)
        if self._effect_log is not None:
            self._effect_log.append((now_h, event, tuple(effects)))
        self._apply_effects(effects, now_h)

    def _apply_effects(self, effects: list[Effect], now_h: float) -> None:
        core = self.core
        for eff in effects:
            kind = type(eff)
            if kind is Send:
                self.transport.send(self.node_id, eff.dest, eff.payload)
            elif kind is SetTimer:
                self._arm_timer(eff.key, now_h + eff.delay_h)
            elif kind is CancelTimer:
                self.cancel_timer(eff.key)
            elif kind is JumpL:
                if self._tracer is not None:
                    delta = eff.new_value - core.logical_clock_at(core.h_last)
                    self._tracer.jump(self.node_id, self.sim.now, delta)
                core.apply_jump(eff.new_value)
            # RaiseLmax is informational: already applied by the core.

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #

    def set_subjective_timer(self, key: Any, dt_subjective: float) -> None:
        """(Re-)arm timer ``key`` to fire after ``dt_subjective`` clock units.

        Matches the pseudocode's ``set timer(dt, id)``: if a timer with this
        id is pending it is cancelled first.
        """
        if dt_subjective < 0.0:
            raise ValueError(f"subjective delay must be >= 0; got {dt_subjective!r}")
        self._arm_timer(key, self.clock.value(self.sim.now) + dt_subjective)

    def _arm_timer(self, key: Any, target_h: float) -> None:
        sim = self.sim
        fire_t = self.clock.time_at(target_h)
        now = sim.now
        if fire_t < now:
            fire_t = now
        if self._covers(key):
            self._table.arm_lost(self.node_id, key[1], fire_t)
            return
        prev = self._timers.pop(key, None)
        if prev is not None:
            sim.queue.cancel(prev)
        # Typed record, no closure: the kernel routes KIND_TIMER through
        # the shared dispatcher, which calls _fire_timer(key).  The arm
        # time and phase ride in the free d/e slots (c is the batch
        # table's): the parallel shard backend keys timer provenance on
        # (arm time, phase, node id), which is deterministic across shard
        # counts where a local sequence number is not.
        self._timers[key] = sim.queue.push_typed(
            fire_t, PRIORITY_TIMER, KIND_TIMER, self, key, None, now,
            None, "timer", e=1 if sim.in_run else 0,
        )

    def _covers(self, key: Any) -> bool:
        """Whether timer ``key`` is a slot of this node's batch table."""
        return self._table is not None and type(key) is tuple and key[0] == "lost"

    def cancel_timer(self, key: Any) -> bool:
        """Cancel pending timer ``key`` (returns whether one was pending)."""
        if self._covers(key):
            return self._table.arm_lost(self.node_id, key[1], inf)  # type: ignore[no-any-return]
        handle = self._timers.pop(key, None)
        if handle is None:
            return False
        return self.sim.cancel(handle)

    def _fire_timer(self, key: Any) -> None:
        self._timers.pop(key, None)
        tracer = self._tracer
        if tracer is not None:
            # Inline timer_fired + reset_current (per-timer hot path; see
            # Tracer's class docstring).
            now = self.sim.now
            table = tracer.table
            tdata = table.data
            sid = table.base + (len(tdata) >> 3)
            if sid < table.capacity:
                tdata.extend(
                    (SPAN_TIMER, self.node_id, -1, now, now, -1,
                     STATUS_DONE, 0.0)
                )
            else:
                table.dropped += 1
                sid = -1
            tracer.current = sid
            self._dispatch(TimerFired(key))
            tracer.current = -1
        else:
            self._dispatch(TimerFired(key))

    # ------------------------------------------------------------------ #
    # Transport entry points
    # ------------------------------------------------------------------ #

    def on_message(self, sender: int, payload: Any) -> None:
        """Transport callback: a message arrived."""
        self._dispatch(MessageReceived(sender, payload))

    def on_discover_add(self, other: int) -> None:
        """Transport callback: ``discover(add({u, other}))``."""
        self._dispatch(DiscoverAdd(other))

    def on_discover_remove(self, other: int) -> None:
        """Transport callback: ``discover(remove({u, other}))``."""
        self._dispatch(DiscoverRemove(other))

    def start(self) -> None:
        """Bring the node alive.  Called once at ``t = 0``.

        ``Start`` only arms the core's first timer, so the driver arms it
        directly -- the ``_arm_timer`` call its ``SetTimer`` effect would
        have reached -- without an event and an effect list per node.
        """
        self._sync()
        first = self.core.first_timer()
        if first is not None:
            self.set_subjective_timer(*first)

    # ------------------------------------------------------------------ #
    # Direct state shims (harness/test helpers, not used by ``_dispatch``)
    # ------------------------------------------------------------------ #

    def _sync(self) -> float:
        """Advance the core's lazy state to ``sim.now``; returns ``H``."""
        h = self.clock.value(self.sim.now)
        self.core.sync_to(h)
        return h

    def _raise_max(self, candidate: float) -> None:
        """Discretely raise ``Lmax`` to ``candidate`` if larger."""
        self.core.force_raise_max(candidate)

    def _jump_logical(self, new_value: float) -> None:
        """Discretely raise ``L`` to ``new_value`` (never lowers)."""
        core = self.core
        if new_value > core.logical_clock_at(core.h_last):
            if self._tracer is not None:
                delta = new_value - core.logical_clock_at(core.h_last)
                self._tracer.jump(self.node_id, self.sim.now, delta)
            core.apply_jump(new_value)

    def run_core_action(self, action: Callable[[], None]) -> None:
        """Run a core method outside event dispatch, applying its effects.

        Unit tests use this to poke algorithm internals (e.g. the DCSA's
        ``AdjustClock``) without fabricating a full event.
        """
        now_h = self.clock.value(self.sim.now)
        self.core.sync_to(now_h)
        self._apply_effects(self.core.act(action), now_h)


class Population(Mapping[int, ClockSyncNode]):
    """The nodes of a column population by id: a driver exists only once
    something touched its node.

    Set-up writes the population's state straight into ``store``, the
    :class:`~repro.core.batch.NodeArrayTable` its run executes on: no
    driver, core, clock object or timer dict per node.  ``population[i]``
    builds node ``i``'s driver on first touch -- its core born a view of
    row ``i`` (:func:`~repro.core.protocol.row_type`), its
    clock the row's -- and keeps it; ``materialised`` counts them.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Any,
        store: "NodeArrayTable",
        core: ProtocolCore,
        stagger: Any,
    ) -> None:
        self.store = store
        self.ids = store.ids  # range(n), or a shard's range of it
        self.params = core.params
        self.core_cls = type(core)
        self._make = (sim, transport)
        #: A core's state outside its row (what every view starts from),
        #: and each node's first-tick offset, its core's ``tick_stagger``.
        self._template = {
            k: v for k, v in vars(core).items() if k not in ROW_FIELDS + ("gamma", "upsilon")
        }
        self._stagger = stagger
        self._row_cls = row_type(type(core))
        #: The drivers built so far, by node id (like the store's columns).
        self._built: list[ClockSyncNode | None] = [None] * self.ids.stop
        #: What a driver's ``lost`` timers are slots of (``None`` once the
        #: kernel plan declined the table: then they are queue records).
        self._table: "NodeArrayTable | None" = store
        self.materialised = 0
        #: Set on :meth:`readers`' copy: an unbuilt node reads as its row.
        self._rows = False

    def __getitem__(self, i: int) -> Any:
        if i not in self.ids:
            raise KeyError(i)
        node = self._built[i]
        if node is None:
            return NodeRow(self, i) if self._rows else self._build(i)
        return node

    def __contains__(self, i: object) -> bool:
        return i in self.ids

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def _build(self, i: int) -> ClockSyncNode:
        sim, transport = self._make
        store = self.store
        core: Any = object.__new__(self._row_cls)
        vars(core).update(
            self._template, node_id=i, _store=store, _tick_stagger=float(self._stagger[i])
        )
        clock = store.clocks[i] or ConstantRateClock(store.rate[i])
        node = self._built[i] = ClockSyncNode(i, sim, clock, transport, self.params, core)
        node._table = self._table
        self.materialised += 1
        return node

    def touched(self) -> list[ClockSyncNode]:
        """The drivers built so far, in id order."""
        return [d for d in self._built if d is not None]

    def decline(self) -> None:
        """The kernel plan declined the table, so every event runs
        ``handle()`` on the views: from now on a driver's timers are queue
        records, a ``lost`` timer armed before the run included."""
        self._table = None
        for d in self.touched():
            d._table = None
        store = self.store
        sim = self._make[0]
        armed = np.flatnonzero(store.np.lost_dl[: store.n_slots] != inf).tolist()
        for s in sorted(armed, key=store.lost_seq.__getitem__):
            d, key = self[store.owner[s]], ("lost", store.peer[s])
            d._timers[key] = sim.queue.push_typed(
                store.lost_dl[s], PRIORITY_TIMER, KIND_TIMER, d, key, None,
                sim.now, None, "timer", e=0,
            )
            store.lost_dl[s] = inf

    def readers(self) -> "Population":
        """The nodes as a finished run hands them out: a built driver, or
        the node's :class:`NodeRow` (reading one builds nothing)."""
        rows = copy(self)
        rows._rows = True
        return rows


class NodeRow:
    """An untouched node of a column population, read off its row: what a
    finished run's readers ask of a node -- ``logical_clock``,
    ``max_estimate``, ``jumps``, ``total_jump``, ``messages_sent`` --
    costs no driver.  Anything else builds the node's driver and asks it."""

    __slots__ = ("_population", "node_id")

    def __init__(self, population: Population, node_id: int) -> None:
        self._population = population
        self.node_id = node_id

    def _read(self, column: Any, quantity: str, t: float | None) -> float:
        """:meth:`ClockSyncNode.logical_clock`'s arithmetic on ``column``."""
        store, i = self._population.store, self.node_id
        tt = self._population._make[0].now if t is None else t
        clock = store.clocks[i]
        h = store.rate[i] * tt if clock is None else clock.value(tt)
        if h < store.h_last[i] - 1e-12:
            raise ValueError(
                f"cannot read {quantity} at t={tt!r} (H={h!r}) before "
                f"the last event (H={store.h_last[i]!r})"
            )
        return column[i] + (h - store.h_last[i])  # type: ignore[no-any-return]

    def logical_clock(self, t: float | None = None) -> float:
        return self._read(self._population.store.L, "logical clock", t)

    def max_estimate(self, t: float | None = None) -> float:
        return self._read(self._population.store.Lmax, "Lmax", t)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") or name in NodeRow.__slots__:  # copy / pickle probes
            raise AttributeError(name)
        if name in ("jumps", "total_jump", "messages_sent"):
            return getattr(self._population.store, name)[self.node_id]
        pop, i = self._population, self.node_id
        return getattr(pop._built[i] or pop._build(i), name)
