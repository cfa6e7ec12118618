"""Sans-IO protocol cores: the algorithms as pure state machines.

Every clock-synchronization algorithm in this repository (the paper's DCSA
and the baselines) is expressed here as a *sans-IO* core: a deterministic
state machine whose entire interface is

.. code-block:: text

   core.handle(now_h, event) -> [effects]

where ``now_h`` is the node's current *hardware clock* reading and
``event`` is one of the five input events of the model (:class:`Start`,
:class:`MessageReceived`, :class:`DiscoverAdd`, :class:`DiscoverRemove`,
:class:`TimerFired`).  The returned :class:`Effect` list is the core's only
way to act on the world: send a message, (re-)arm or cancel a subjective
timer, jump the logical clock, raise the max estimate.  Cores never import
the simulator, never read real time, never touch sockets -- which is what
lets the *same* core classes run under two drivers:

* :class:`repro.core.node.ClockSyncNode` replays effects through the
  discrete-event kernel (:mod:`repro.sim`), bit-identical to the original
  monolithic node classes (the golden-value pins enforce this);
* :mod:`repro.live` executes them in real time on an asyncio loop over
  loopback or UDP channels.

**Lazy continuous state.**  Between events, the logical clock ``L``, the
max estimate ``Lmax`` and all neighbour estimates advance at the node's
hardware rate (Section 5 of the paper).  The core stores their values as of
the hardware reading ``h_last`` and materialises exactly on event entry:
``handle`` first adds the elapsed subjective time ``now_h - h_last`` to
every lazy quantity.  This is exact -- no integration error -- because all
lazy quantities drift at precisely the hardware rate.

**Effect ordering and the deferred jump.**  Effects are emitted in the
exact order the monolithic handlers performed the corresponding actions,
and drivers must apply them in list order.  :class:`JumpL` is special: the
core does *not* raise ``L`` when it emits the effect -- the driver applies
it by calling :meth:`ProtocolCore.apply_jump` when it reaches the effect in
the list.  This preserves the observable semantics of the original code for
omniscient observers (e.g. the adaptive delay adversary of
:mod:`repro.adversary.delay` reads live logical clocks at send time):
messages emitted before the jump are sent while ``L`` still holds its
pre-jump value, exactly as before the refactor.  A second ``handle`` call
with a jump still pending raises :class:`ProtocolError`.
:class:`RaiseLmax`, by contrast, is applied immediately (the clock rule in
the same handler depends on it) and emitted purely as an observable record.
"""

from __future__ import annotations

from collections.abc import MutableSet
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Union

from ..params import SystemParams
from .estimates import NeighborTable, SlotSet, SlotTable

__all__ = [
    "CancelTimer",
    "DCSACore",
    "DiscoverAdd",
    "DiscoverRemove",
    "Effect",
    "Event",
    "FreeRunningCore",
    "JumpL",
    "MaxSyncCore",
    "MessageReceived",
    "ProtocolCore",
    "ProtocolError",
    "RaiseLmax",
    "Send",
    "SetTimer",
    "Start",
    "StaticGradientCore",
    "TimerFired",
    "Update",
    "row_type",
]

#: Message payload exchanged by all cores: ``(L, Lmax)`` at send time.
Update = tuple[float, float]

#: Timer identity; cores use strings and small tuples.
TimerKey = Hashable

_TICK = "tick"


class ProtocolError(RuntimeError):
    """Raised on protocol-core misuse (e.g. an unapplied pending jump)."""


# --------------------------------------------------------------------- #
# Input events
# --------------------------------------------------------------------- #
#
# Events and effects are slotted, *non-frozen* dataclasses: one is
# allocated per kernel event on the hottest path in the repository, and a
# frozen dataclass pays object.__setattr__ per field where these get plain
# attribute stores.  They are immutable by convention (nothing mutates
# them after construction); the generated exact-type equality, repr and
# hash keep effect streams comparable in the sim<->live parity tests.


@dataclass(slots=True, unsafe_hash=True)
class Start:
    """The node comes alive (dispatched exactly once, first)."""


@dataclass(slots=True, unsafe_hash=True)
class MessageReceived:
    """A message from ``sender`` arrived."""

    sender: int
    payload: Update


@dataclass(slots=True, unsafe_hash=True)
class DiscoverAdd:
    """``discover(add({u, other}))`` -- an incident edge appeared."""

    other: int


@dataclass(slots=True, unsafe_hash=True)
class DiscoverRemove:
    """``discover(remove({u, other}))`` -- an incident edge vanished."""

    other: int


@dataclass(slots=True, unsafe_hash=True)
class TimerFired:
    """Subjective timer ``key`` expired."""

    key: TimerKey


Event = Union[Start, MessageReceived, DiscoverAdd, DiscoverRemove, TimerFired]


# --------------------------------------------------------------------- #
# Output effects
# --------------------------------------------------------------------- #


@dataclass(slots=True, unsafe_hash=True)
class Send:
    """Transmit ``payload`` to neighbour ``dest``."""

    dest: int
    payload: Update


@dataclass(slots=True, unsafe_hash=True)
class SetTimer:
    """(Re-)arm timer ``key`` to fire after ``delay_h`` *subjective* units.

    Re-arming an already pending key cancels the previous instance, which
    is what the pseudocode's ``set timer(dt, id)`` means.
    """

    key: TimerKey
    delay_h: float


@dataclass(slots=True, unsafe_hash=True)
class CancelTimer:
    """Cancel timer ``key`` if pending (no-op otherwise)."""

    key: TimerKey


@dataclass(slots=True, unsafe_hash=True)
class JumpL:
    """Discretely raise ``L`` to ``new_value``.

    Deferred: drivers must call :meth:`ProtocolCore.apply_jump` when they
    reach this effect in the list (see module docstring).
    """

    new_value: float


@dataclass(slots=True, unsafe_hash=True)
class RaiseLmax:
    """``Lmax`` was raised to ``new_value`` (informational; already applied)."""

    new_value: float


Effect = Union[Send, SetTimer, CancelTimer, JumpL, RaiseLmax]


# --------------------------------------------------------------------- #
# Core base class
# --------------------------------------------------------------------- #


class ProtocolCore:
    """Shared sans-IO machinery: lazy state, effect emission, dispatch.

    Subclasses implement :meth:`first_timer` and the four
    ``_handle_*``/``_on_timer`` hooks using
    the ``_send`` / ``_set_timer`` / ``_cancel_timer`` / ``_raise_max`` /
    ``_request_jump`` emission helpers.
    """

    def __init__(self, node_id: int, params: SystemParams) -> None:
        self.node_id = node_id
        self.params = params
        #: Hardware reading the lazy state is valid at.
        self.h_last = 0.0
        self._L = 0.0
        self._Lmax = 0.0
        self._out: list[Effect] | None = None
        self._pending_jump = False
        # Stats.
        self.jumps = 0
        self.total_jump = 0.0
        self.messages_sent = 0

    # ------------------------------------------------------------------ #
    # Read-only views
    # ------------------------------------------------------------------ #

    def logical_clock_at(self, h: float) -> float:
        """``L`` at hardware reading ``h >= h_last`` (pure read)."""
        return self._L + (h - self.h_last)

    def max_estimate_at(self, h: float) -> float:
        """``Lmax`` at hardware reading ``h >= h_last`` (pure read)."""
        return self._Lmax + (h - self.h_last)

    # ------------------------------------------------------------------ #
    # The one entry point
    # ------------------------------------------------------------------ #

    def handle(self, now_h: float, event: Event) -> list[Effect]:
        """Advance lazy state to ``now_h``, process ``event``, return effects."""
        if self._pending_jump:
            raise ProtocolError(
                f"node {self.node_id}: previous JumpL effect was never applied; "
                "drivers must call apply_jump() for every emitted JumpL"
            )
        # sync_to, inlined: this runs once per kernel event.
        dh = now_h - self.h_last
        if dh != 0.0:
            self._L += dh
            self._Lmax += dh
            self._advance_estimates(dh)
            self.h_last = now_h
        out: list[Effect] = []
        self._out = out
        try:
            kind = type(event)
            if kind is MessageReceived:
                assert isinstance(event, MessageReceived)
                self._handle_message(event.sender, event.payload)
            elif kind is TimerFired:
                assert isinstance(event, TimerFired)
                self._on_timer(event.key)
            elif kind is DiscoverAdd:
                assert isinstance(event, DiscoverAdd)
                self._handle_discover_add(event.other)
            elif kind is DiscoverRemove:
                assert isinstance(event, DiscoverRemove)
                self._handle_discover_remove(event.other)
            elif kind is Start:
                self._handle_start()
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"unknown event {event!r}")
        finally:
            self._out = None
        return out

    def sync_to(self, now_h: float) -> None:
        """Materialise lazy state at hardware reading ``now_h``."""
        dh = now_h - self.h_last
        if dh != 0.0:
            self._L += dh
            self._Lmax += dh
            self._advance_estimates(dh)
            self.h_last = now_h

    def _advance_estimates(self, dh: float) -> None:
        """Hook: advance algorithm-specific lazy quantities by ``dh``."""

    # ------------------------------------------------------------------ #
    # Effect emission helpers
    # ------------------------------------------------------------------ #

    def _emit(self, effect: Effect) -> None:
        if self._out is None:  # pragma: no cover - defensive
            raise ProtocolError("effects may only be emitted inside handle()")
        self._out.append(effect)

    def _send(self, dest: int, payload: Update) -> None:
        out = self._out
        if out is None:  # pragma: no cover - defensive
            raise ProtocolError("effects may only be emitted inside handle()")
        self.messages_sent += 1
        out.append(Send(dest, payload))

    def _set_timer(self, key: TimerKey, delay_h: float) -> None:
        out = self._out
        if out is None:  # pragma: no cover - defensive
            raise ProtocolError("effects may only be emitted inside handle()")
        if delay_h < 0.0:
            raise ValueError(f"subjective delay must be >= 0; got {delay_h!r}")
        out.append(SetTimer(key, delay_h))

    def _cancel_timer(self, key: TimerKey) -> None:
        out = self._out
        if out is None:  # pragma: no cover - defensive
            raise ProtocolError("effects may only be emitted inside handle()")
        out.append(CancelTimer(key))

    def _raise_max(self, candidate: float) -> None:
        """Raise ``Lmax`` to ``candidate`` if larger (applied immediately)."""
        if candidate > self._Lmax:
            self._Lmax = candidate
            self._emit(RaiseLmax(candidate))

    def _request_jump(self, new_value: float) -> None:
        """Emit a deferred :class:`JumpL` when ``new_value`` exceeds ``L``."""
        if new_value > self._L:
            self._pending_jump = True
            self._emit(JumpL(new_value))

    def apply_jump(self, new_value: float) -> None:
        """Apply a (possibly deferred) jump of ``L`` to ``new_value``.

        Called by drivers when they reach a :class:`JumpL` effect; also the
        primitive behind the sim driver's test shim ``_jump_logical``.
        Never lowers ``L``.
        """
        self._pending_jump = False
        delta = new_value - self._L
        if delta > 0.0:
            self.total_jump += delta
            self.jumps += 1
            self._L = new_value

    def act(self, action: "Callable[[], None]") -> list[Effect]:
        """Run an out-of-band core action, capturing its emitted effects.

        Drivers use this to invoke algorithm internals outside event
        dispatch (test shims); the returned effects must be applied like
        any ``handle`` result -- including :meth:`apply_jump` for
        :class:`JumpL`.
        """
        if self._pending_jump:
            raise ProtocolError(
                f"node {self.node_id}: previous JumpL effect was never applied"
            )
        out: list[Effect] = []
        self._out = out
        try:
            action()
        finally:
            self._out = None
        return out

    def force_raise_max(self, candidate: float) -> None:
        """Raise ``Lmax`` outside of event handling (driver/test shim)."""
        if candidate > self._Lmax:
            self._Lmax = candidate

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #

    def first_timer(self) -> tuple[TimerKey, float] | None:
        """The timer ``Start`` arms, as ``(key, subjective delay)``, or
        ``None``.  That is all ``Start`` does, so the sim driver arms it
        directly (:meth:`repro.core.node.ClockSyncNode.start`)."""
        return None

    def _handle_start(self) -> None:
        first = self.first_timer()
        if first is not None:
            self._set_timer(*first)

    def _handle_message(self, sender: int, payload: Update) -> None:
        raise NotImplementedError

    def _handle_discover_add(self, other: int) -> None:
        raise NotImplementedError

    def _handle_discover_remove(self, other: int) -> None:
        raise NotImplementedError

    def _on_timer(self, key: TimerKey) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# The DCSA (Algorithm 2)
# --------------------------------------------------------------------- #


class DCSACore(ProtocolCore):
    """The paper's dynamic gradient clock synchronization algorithm
    (Algorithm 2, Section 5).

    Node ``u`` keeps its logical clock ``L_u`` (at least its hardware rate,
    forward jumps only), an estimate ``Lmax_u`` of the largest clock in
    the network, the believed neighbours ``Upsilon_u`` and the tracked set
    ``Gamma_u`` with ``C^v_u`` (hardware time ``v`` entered it) and
    ``L^v_u`` (the estimate of ``v``'s clock).  It sends ``<L_u, Lmax_u>``
    to ``Upsilon_u`` every ``Delta H`` subjective time, evicts a neighbour
    silent for ``Delta T'`` from ``Gamma_u`` (the ``lost`` timer), and
    after every event runs ``AdjustClock``:

    .. code-block:: text

       L_u <- max{ L_u, min{ Lmax_u, min_{v in Gamma_u}( L^v_u + B(H_u - C^v_u) ) } }

    -- chase the maximum, never more than ``B(edge age)`` ahead of a
    tracked neighbour.  ``B`` starts above the global skew bound and
    decays to ``B_0`` (:mod:`repro.core.bfunction`), so a new edge imposes
    its constraint gradually: the dynamic local skew guarantee (Theorem
    6.12 / Corollary 6.13) at bounded global skew (Theorem 6.9).

    Implementation interpretation (docs/reproduction.md): ``L^v_u`` and
    ``Lmax_u`` refresh on *every* receipt (Lemma 6.5), ``C^v_u`` only when
    ``v`` (re-)enters ``Gamma_u`` (Lemma 6.10).  ``tick_stagger`` offsets
    the first tick (subjective units); no guarantee depends on it.
    """

    def __init__(
        self,
        node_id: int,
        params: SystemParams,
        *,
        tick_stagger: float = 0.0,
    ) -> None:
        super().__init__(node_id, params)
        params.validate()
        #: Upsilon_u -- nodes u believes it shares an edge with.
        self.upsilon: MutableSet[int] = set()
        #: Gamma_u with C^v_u and L^v_u.
        self.gamma = NeighborTable()
        self._tick_stagger = float(tick_stagger)
        # Hot-path constants: params exposes these as derived properties
        # whose arithmetic would otherwise be recomputed on every message
        # and every AdjustClock evaluation.
        self._b0 = params.b0
        self._b_intercept = params.b_intercept
        self._b_slope = params.b_slope
        self._delta_t_prime = params.delta_t_prime

    def _advance_estimates(self, dh: float) -> None:
        self.gamma.advance(dh)

    # ------------------------------------------------------------------ #
    # Event handlers (Algorithm 2)
    # ------------------------------------------------------------------ #

    def first_timer(self) -> tuple[TimerKey, float]:
        """The first ``tick`` (fires immediately unless staggered)."""
        return _TICK, self._tick_stagger

    def _handle_discover_add(self, v: int) -> None:
        """``when discover(add({u, v}))``: greet, believe, adjust."""
        self._send(v, self._update_payload())
        self.upsilon.add(v)
        self._adjust_clock()

    def _handle_discover_remove(self, v: int) -> None:
        """``when discover(remove({u, v}))``: forget entirely, adjust."""
        if self.gamma.remove(v):
            self._cancel_timer(("lost", v))
        self.upsilon.discard(v)
        self._adjust_clock()

    def _handle_message(self, v: int, payload: Update) -> None:
        """``when receive(<L_v, Lmax_v>)``: track/refresh, adopt max, adjust."""
        l_v, lmax_v = payload
        self._cancel_timer(("lost", v))
        row = self.gamma.get(v)
        if row is None:
            # Lines 17-19: v (re-)enters Gamma; C^v_u := H_u now.
            self.gamma.add(v, added_h=self.h_last, l_est=l_v)
        elif l_v > row.l_est:
            # NeighborTable.refresh, inlined: the estimate is monotone.
            row.l_est = l_v
        self._raise_max(lmax_v)
        self._adjust_clock()
        self._set_timer(("lost", v), self._delta_t_prime)

    def _on_timer(self, key: TimerKey) -> None:
        if key == _TICK:
            self._on_tick()
        elif isinstance(key, tuple) and key[0] == "lost":
            self._on_lost(key[1])
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown timer {key!r}")

    def _on_tick(self) -> None:
        """``when alarm(tick)``: update everyone believed, re-arm."""
        payload = self._update_payload()
        for v in sorted(self.upsilon):
            self._send(v, payload)
        self._adjust_clock()
        self._set_timer(_TICK, self.params.tick_interval)

    def _on_lost(self, v: int) -> None:
        """``when alarm(lost(v))``: silent too long -- stop trusting v."""
        self.gamma.remove(v)
        self._adjust_clock()

    # ------------------------------------------------------------------ #
    # The clock rule
    # ------------------------------------------------------------------ #

    def _update_payload(self) -> Update:
        return (self._L, self._Lmax)

    def perceived_skew(self, v: int) -> float | None:
        """``L_u - L^v_u`` for a tracked neighbour (``None`` if untracked)."""
        row = self.gamma.get(v)
        if row is None:
            return None
        return self._L - row.l_est

    def tolerance(self, v: int) -> float | None:
        """Current ``B(H_u - C^v_u)`` for a tracked neighbour."""
        row = self.gamma.get(v)
        if row is None:
            return None
        age = self.h_last - row.added_h
        return max(self._b0, self._b_intercept - self._b_slope * age)

    def _adjust_clock(self) -> None:
        """Procedure ``AdjustClock`` -- the one-line clock rule.

        Inlines ``params.b_function`` against the constants cached at
        construction: ``B(age) = max(B0, intercept - slope * age)``,
        bit-identical to the property-chained form.  The ceiling is
        ``min(Lmax, ...)``, so Gamma is only scanned when ``Lmax > L``.
        """
        ceiling = self._Lmax
        if ceiling <= self._L:
            return
        h = self.h_last
        b0 = self._b0
        intercept = self._b_intercept
        slope = self._b_slope
        for row in self.gamma.rows():
            b = intercept - slope * (h - row.added_h)
            if b < b0:
                b = b0
            cand = row.l_est + b
            if cand < ceiling:
                ceiling = cand
        self._request_jump(ceiling)  # no-op when ceiling <= L


# --------------------------------------------------------------------- #
# Row views (cores covered by the batch table)
# --------------------------------------------------------------------- #


def _column(name: str) -> property:
    """``core.<field>`` as row ``core.node_id`` of ``core._store.<name>``."""

    def get(self: Any) -> Any:
        return getattr(self._store, name)[self.node_id]

    def put(self: Any, value: Any) -> None:
        getattr(self._store, name)[self.node_id] = value

    return property(get, put)


class _Row:
    """The lazy state of a table-covered core, as a view.

    Mixed in front of the core's class (:func:`row_type`): ``L``,
    ``Lmax``, ``h_last``, the send and jump tallies, Gamma and Upsilon
    then *are* the store's columns (:class:`~repro.core.batch.NodeArrayTable`)
    -- the instance keeps no copy -- and every method of the core,
    ``handle()`` included, runs unchanged against them.
    """

    _store: Any
    node_id: int

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        """Calling a view's class builds a stand-alone core of its core
        class (views themselves are made by the store, never called)."""
        return cls.__mro__[2](*args, **kwargs)

    _L = _column("L")
    _Lmax = _column("Lmax")
    h_last = _column("h_last")
    messages_sent = _column("messages_sent")
    jumps = _column("jumps")
    total_jump = _column("total_jump")

    @property
    def gamma(self) -> SlotTable:
        return SlotTable(self._store, self.node_id)

    @property
    def upsilon(self) -> SlotSet:
        return SlotSet(self._store, self.node_id)


#: The core fields a row view reads from the store's columns.
ROW_FIELDS = ("_L", "_Lmax", "h_last", "messages_sent", "jumps", "total_jump")

_ROW_TYPES: dict[type, type] = {}


def row_type(cls: type) -> type:
    """The view class of core class ``cls``: :class:`_Row` in front of it,
    named like it."""
    row_cls = _ROW_TYPES.get(cls)
    if row_cls is None:
        row_cls = _ROW_TYPES[cls] = type(cls.__name__, (_Row, cls), {})
    return row_cls


# --------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------- #


class MaxSyncCore(ProtocolCore):
    """Jump-to-max synchronization: ``L_u := Lmax_u`` after every event.

    The classic approach ([18], Srikanth-Toueg style): the DCSA's messages
    and ``G(n)`` global skew (the same max propagation, Lemma 6.8) but no
    gradient property -- adjacent nodes can be nearly ``G(n)`` apart, so
    its worst local skew tracks the global one.
    """

    def __init__(
        self,
        node_id: int,
        params: SystemParams,
        *,
        tick_stagger: float = 0.0,
    ) -> None:
        super().__init__(node_id, params)
        self.upsilon: set[int] = set()
        self._tick_stagger = float(tick_stagger)

    def first_timer(self) -> tuple[TimerKey, float]:
        return _TICK, self._tick_stagger

    def _handle_discover_add(self, v: int) -> None:
        self._send(v, (self._L, self._Lmax))
        self.upsilon.add(v)
        self._request_jump(self._Lmax)

    def _handle_discover_remove(self, v: int) -> None:
        self.upsilon.discard(v)

    def _handle_message(self, v: int, payload: Update) -> None:
        _l_v, lmax_v = payload
        self._raise_max(lmax_v)
        self._request_jump(self._Lmax)

    def _on_timer(self, key: TimerKey) -> None:
        if key != _TICK:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown timer {key!r}")
        payload = (self._L, self._Lmax)
        for v in sorted(self.upsilon):
            self._send(v, payload)
        self._request_jump(self._Lmax)
        self._set_timer(_TICK, self.params.tick_interval)


class StaticGradientCore(DCSACore):
    """The DCSA with the constant tolerance ``B(age) = B_0`` for all ages:
    the same ``AdjustClock`` scan over the coefficient row ``intercept =
    B_0``, ``slope = 0`` (``B_0 - 0.0 * age`` is ``B_0`` exactly).

    This is the static oblivious gradient algorithm of Locher and
    Wattenhofer [13], which the DCSA generalises.  On a static network its
    local skew stays near ``B_0``; on a dynamic one a new edge between
    distant nodes carries skew up to ``Theta(n) >> B_0``, breaking its
    per-edge contract at once and blocking the ahead side, where the DCSA
    phases the constraint in.
    """

    def __init__(
        self,
        node_id: int,
        params: SystemParams,
        *,
        tick_stagger: float = 0.0,
    ) -> None:
        super().__init__(node_id, params, tick_stagger=tick_stagger)
        self._b_intercept = self._b0
        self._b_slope = 0.0


class FreeRunningCore(ProtocolCore):
    """No synchronization at all: ``L_u = H_u``, no messages, no timers.

    The control: neighbouring clocks diverge at up to ``2 rho`` per time
    unit, which the measurement pipeline must read exactly when clocks sit
    at the drift extremes.
    """

    def _handle_message(self, sender: int, payload: Update) -> None:
        """Ignore messages."""

    def _handle_discover_add(self, other: int) -> None:
        """Ignore discoveries."""

    def _handle_discover_remove(self, other: int) -> None:
        """Ignore discoveries."""

    def _on_timer(self, key: TimerKey) -> None:  # pragma: no cover - never armed
        raise RuntimeError("free-running node has no timers")
