"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue and exposes the
scheduling API every other subsystem builds on.  The design follows the Timed
I/O Automata flavour of the paper's model (Section 3.2): the *environment*
(topology changes, message deliveries, discovery notifications) and the
*nodes* (timer alarms) both manifest as scheduled events; within a single
timestamp the kernel orders environment effects before node timers and
measurement hooks last (see :mod:`repro.sim.events` priorities).

**Typed dispatch.**  Events are tagged records (see
:mod:`repro.sim.events`): the kernel routes each popped record through a
per-kind dispatch table instead of calling a per-event closure.  Hot
subsystems register their handler once (:meth:`Simulator.set_handler`) and
schedule payload-carrying records via :meth:`Simulator.schedule_typed`; the
queue recycles those records after dispatch, so the steady state allocates
no event objects.  ``KIND_CALLBACK`` events (the :meth:`schedule_at` /
:meth:`schedule_in` API) remain available for cold paths -- churn
processes, adversaries, tests.

The kernel is deliberately minimal -- no processes, no coroutines -- because
the workloads here are callback-shaped and performance matters: a benchmark
execution dispatches hundreds of thousands to millions of events (see
docs/performance.md for the kernel design rationale and scaling numbers).
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Any, Callable

from .events import (
    KIND_CALLBACK,
    KIND_NAMES,
    KIND_SAMPLE,
    KIND_TOPOLOGY,
    N_KINDS,
    POOLABLE,
    PRIORITY_SAMPLE,
    PRIORITY_TIMER,
    ScheduledEvent,
)
from .queue import POOL_CAP, EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..telemetry.registry import MetricsRegistry

__all__ = ["Simulator", "SimulationError", "BATCH_DEFAULT"]

#: Kernel dispatch handler: receives the popped record.
Handler = Callable[[ScheduledEvent], None]

#: Batch dispatch handler: receives a pre-popped run of >= 2 records that
#: share ``(time, priority, kind)``, in scalar dispatch order.
BatchHandler = Callable[[list[ScheduledEvent]], None]

#: Process-wide default for :class:`Simulator`'s ``batch`` flag.  The batch
#: execution path is bit-identical to scalar dispatch (pinned by the parity
#: tests), so it defaults on; set the environment variable ``REPRO_BATCH=0``
#: to force the scalar kernel (e.g. when bisecting a suspected batch bug).
#: This is deliberately *not* an :class:`~repro.harness.runner.ExperimentConfig`
#: field: config dicts are sweep-cache identities and the two paths produce
#: identical results by contract.
BATCH_DEFAULT = os.environ.get("REPRO_BATCH", "1") != "0"


class SimulationError(RuntimeError):
    """Raised for scheduling violations (e.g. scheduling into the past)."""


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    max_events:
        Safety valve: :meth:`run_until` raises after dispatching this many
        events (guards against accidental event storms in tests).
    """

    __slots__ = (
        "now",
        "queue",
        "max_events",
        "events_dispatched",
        "batch",
        "batch_dispatches",
        "_handlers",
        "_batch_handlers",
        "kind_counts",
        "in_run",
        "_run_start",
        "non_node_events",
    )

    def __init__(
        self,
        max_events: int = 50_000_000,
        *,
        batch: bool | None = None,
    ) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_dispatched = 0
        #: Whether subsystems may register batch handlers (see
        #: :meth:`set_batch_handler`); resolved from :data:`BATCH_DEFAULT`
        #: when ``None``.
        self.batch = BATCH_DEFAULT if batch is None else batch
        #: Number of pre-popped runs dispatched through a batch handler.
        self.batch_dispatches = 0
        handlers: list[Handler | None] = [None] * N_KINDS
        handlers[KIND_SAMPLE] = self._handle_sample
        handlers[KIND_TOPOLOGY] = self._handle_topology
        self._handlers = handlers
        self._batch_handlers: list[BatchHandler | None] = [None] * N_KINDS
        #: Per-kind dispatch tally, allocated by :meth:`instrument`; the hot
        #: loop pays a single ``is not None`` check while telemetry is off.
        self.kind_counts: list[int] | None = None
        #: Whether :meth:`run_until` / :meth:`step` has been entered at least
        #: once.  Set (and never cleared) at the top of the first run so
        #: setup-phase scheduling is distinguishable from run-time
        #: scheduling -- the parallel shard backend keys timer provenance on
        #: this phase bit -- and subsystems can decide once, after all
        #: ``t = 0`` wiring, how to execute the run (:meth:`on_run_start`).
        self.in_run = False
        self._run_start: list[Callable[[], None]] = []
        #: Callbacks, samples and topology mutations dispatched so far: the
        #: events that are the environment's or an observer's, not a
        #: node's (counted where they dispatch, off the typed hot path).
        self.non_node_events = 0

    def instrument(self, registry: "MetricsRegistry") -> None:
        """Register kernel metrics as polled readbacks on ``registry``.

        Pure observation: everything is read out-of-band by the telemetry
        sampler, no simulation events are scheduled and no RNG is touched,
        so an instrumented run stays bit-identical to a bare one.
        """
        if self.kind_counts is None:
            self.kind_counts = [0] * N_KINDS
        kind_counts = self.kind_counts
        registry.counter_fn(
            "kernel.events_dispatched", lambda: self.events_dispatched
        )

        def _kind_reader(k: int) -> Callable[[], int]:
            return lambda: kind_counts[k]

        for kind, name in enumerate(KIND_NAMES):
            registry.counter_fn(f"kernel.dispatched.{name}", _kind_reader(kind))
        registry.counter_fn(
            "kernel.batch_dispatches", lambda: self.batch_dispatches
        )
        queue = self.queue
        registry.counter_fn("kernel.record_pushes", lambda: queue.pushes)
        registry.counter_fn("kernel.record_allocations", lambda: queue.allocations)
        registry.gauge_fn("kernel.queue_depth", lambda: len(queue))
        registry.gauge_fn("kernel.queue_raw", lambda: queue.raw_size)
        registry.gauge_fn("kernel.pool_size", lambda: queue.pool_size)
        registry.gauge_fn("kernel.sim_time", lambda: self.now)

    # ------------------------------------------------------------------ #
    # Dispatch table
    # ------------------------------------------------------------------ #

    def set_handler(self, kind: int, handler: Handler) -> None:
        """Register the dispatch handler for a typed event ``kind``.

        Each kind has exactly one handler per simulator; registering the
        same handler again is a no-op, a *different* handler raises (two
        subsystems cannot share a kind).  ``KIND_CALLBACK`` is dispatched
        by the kernel itself and cannot be overridden.
        """
        if not 0 <= kind < N_KINDS or kind == KIND_CALLBACK:
            raise SimulationError(f"invalid handler kind {kind!r}")
        existing = self._handlers[kind]
        if existing is not None and existing != handler:
            raise SimulationError(
                f"kind {kind} already has a handler ({existing!r}); "
                "one subsystem per kind per simulator"
            )
        self._handlers[kind] = handler

    def set_batch_handler(self, kind: int, handler: BatchHandler) -> None:
        """Register a *batch* dispatch handler for a typed event ``kind``.

        When registered (and :attr:`batch` is true), :meth:`run_until`
        pre-pops every maximal run of >= 2 records sharing
        ``(time, priority, kind)`` (see :meth:`EventQueue.pop_run`) and
        hands the whole run to ``handler`` instead of dispatching record by
        record.  It calls ``pop_run`` only when the record after the popped
        one ties its ``(time, priority)``; a record with no tie -- most of
        a drifting population's -- goes to the :meth:`set_handler` handler
        without that call.  The handler owns parity: it must leave every
        observable -- node state, queue pushes and their relative order per
        tie-class, RNG draws, stats -- exactly as the scalar handler would,
        falling back to a record-by-record loop whenever it cannot
        guarantee that.

        Pre-popping is only sound for kinds whose handlers never cancel a
        record that can share the run and never push a record that would
        sort *inside* the run (pushed records take fresh, higher ``seq``
        values; the registering subsystem must rule out same-time pushes
        at lower priority).  Kind by kind:

        * deliveries only cancel lost *timers*, a different priority
          class, and never send;
        * timer handlers cancel nothing that is still queued, but a
          zero or randomized delay could land a tick's send at the current
          time at a lower priority, so timer runs are registered only
          under positive constant delay and discovery policies;
        * discoveries are sound under *any* delay / discovery policy: a
          discover handler pushes only fresh higher-``seq`` records at its
          own priority or a later one (a greeting, a failed send's
          absence discovery -- even at zero latency they sort after the
          run), nobody holds a handle to a discover record, and it cancels
          only lost timers.

        Registration follows the same one-handler-per-kind discipline as
        :meth:`set_handler`.
        """
        if not 0 <= kind < N_KINDS or kind == KIND_CALLBACK:
            raise SimulationError(f"invalid batch handler kind {kind!r}")
        existing = self._batch_handlers[kind]
        if existing is not None and existing != handler:
            raise SimulationError(
                f"kind {kind} already has a batch handler ({existing!r}); "
                "one subsystem per kind per simulator"
            )
        self._batch_handlers[kind] = handler

    def on_run_start(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, at the top of the first run.

        Fires where :attr:`in_run` flips -- inside the first
        :meth:`run_until` / :meth:`step`, before any event dispatches --
        in registration order; on a simulator already running it fires
        immediately.
        """
        if self.in_run:
            callback()
        else:
            self._run_start.append(callback)

    def _begin_run(self) -> None:
        self.in_run = True
        for hook in self._run_start:
            hook()
        self._run_start.clear()

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_TIMER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time``.

        ``time`` may equal :attr:`now` (the event fires later in the current
        timestamp, after all earlier-queued same-time events of lower or
        equal priority); scheduling strictly into the past raises.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self.now!r}"
            )
        return self.queue.push(time, priority, callback, label)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_TIMER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` after a non-negative real-time ``delay``."""
        if delay < 0.0:
            raise SimulationError(f"delay must be non-negative; got {delay!r}")
        return self.queue.push(self.now + delay, priority, callback, label)

    def schedule_typed(
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
    ) -> ScheduledEvent:
        """Schedule a typed, payload-carrying event record (hot path).

        The record is dispatched through the handler registered for
        ``kind`` (see :meth:`set_handler`) and recycled afterwards for
        poolable kinds -- callers must not retain handles past dispatch
        except under the timer discipline documented in
        :mod:`repro.sim.events`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self.now!r}"
            )
        return self.queue.push_typed(time, priority, kind, a, b, c, d, fn, label)

    def cancel(self, event: ScheduledEvent, gen: int | None = None) -> bool:
        """Cancel a scheduled event (returns whether it was still live).

        Pass ``gen`` (captured from ``event.gen`` at push time) when the
        handle may be stale -- see :meth:`EventQueue.cancel`.
        """
        return self.queue.cancel(event, gen)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _dispatch(self, ev: ScheduledEvent) -> None:
        """Advance the clock to ``ev`` and run it through the dispatch table."""
        self.now = ev.time
        self.events_dispatched += 1
        if self.events_dispatched > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; runaway simulation?"
            )
        kind = ev.kind
        if self.kind_counts is not None:
            self.kind_counts[kind] += 1
        if kind == KIND_CALLBACK:
            fn = ev.fn
            assert fn is not None  # schedule_at always stores the callable
            self.non_node_events += 1
            fn()
        else:
            handler = self._handlers[kind]
            if handler is None:
                raise SimulationError(
                    f"no handler registered for event kind {kind} "
                    f"(label={ev.label!r})"
                )
            handler(ev)
            if not ev.queued:
                self.queue.recycle(ev)

    def step(self) -> bool:
        """Dispatch the single next event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        if not self.in_run:
            self._begin_run()
        ev = self.queue.pop()
        if ev is None:
            return False
        self._dispatch(ev)
        return True

    def run_until(self, t_end: float) -> None:
        """Dispatch every event with time ``<= t_end``; set ``now = t_end``.

        Events scheduled *during* the run are honoured if they fall within
        the horizon.  After returning, :attr:`now` equals ``t_end`` even if
        the queue drained early, so callers can continue scheduling from a
        well-defined time.

        A record of a kind with a batch handler is handed to
        :meth:`EventQueue.pop_run` only when the next head ties its
        ``(time, priority)``; a lone record goes straight to its handler.
        """
        if t_end < self.now:
            raise SimulationError(
                f"cannot run to t={t_end!r} < now={self.now!r}"
            )
        if not self.in_run:
            self._begin_run()
        # The kernel's hottest loop: _dispatch, EventQueue.pop_until and
        # EventQueue.recycle are inlined here (step() and the queue keep
        # the single-step definitions for callers that need them).
        queue = self.queue
        heap = queue._heap
        free = queue._free
        heappop = heapq.heappop
        pop_run = queue.pop_run
        recycle_all = queue.recycle_all
        poolable = POOLABLE
        handlers = self._handlers
        batch_handlers = self._batch_handlers if self.batch else [None] * N_KINDS
        max_events = self.max_events
        kind_counts = self.kind_counts
        run_buf: list[ScheduledEvent] = []
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.cancelled:
                heappop(heap)
                ev.queued = False
                if poolable[ev.kind] and len(free) < POOL_CAP:
                    ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                    free.append(ev)
                continue
            time = entry[0]
            if time > t_end:
                break
            heappop(heap)
            ev.queued = False
            queue._live -= 1
            self.now = time
            kind = ev.kind
            batch_handler = batch_handlers[kind]
            if batch_handler is not None and heap:
                head = heap[0]
                if head[0] == time and head[1] == entry[1]:
                    count = pop_run(ev, run_buf)
                    if count:
                        self.events_dispatched += count
                        if self.events_dispatched > max_events:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; "
                                "runaway simulation?"
                            )
                        if kind_counts is not None:
                            kind_counts[kind] += count
                        self.batch_dispatches += 1
                        batch_handler(run_buf)
                        recycle_all(run_buf)
                        run_buf.clear()
                        continue
            self.events_dispatched += 1
            if self.events_dispatched > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            if kind_counts is not None:
                kind_counts[kind] += 1
            if kind == KIND_CALLBACK:
                fn = ev.fn
                assert fn is not None  # schedule_at always stores the callable
                self.non_node_events += 1
                fn()
            else:
                handler = handlers[kind]
                if handler is None:
                    raise SimulationError(
                        f"no handler registered for event kind {kind} "
                        f"(label={ev.label!r})"
                    )
                handler(ev)
                if not ev.queued and poolable[kind] and len(free) < POOL_CAP:
                    ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                    free.append(ev)
        self.now = t_end

    def run_until_idle(self, t_cap: float | None = None) -> None:
        """Dispatch until the queue is empty (or ``t_cap`` reached)."""
        while True:
            nxt = self.queue.peek_time()
            if nxt is None:
                return
            if t_cap is not None and nxt > t_cap:
                self.now = t_cap
                return
            self.step()

    # ------------------------------------------------------------------ #
    # Built-in typed handlers
    # ------------------------------------------------------------------ #

    def _handle_sample(self, ev: ScheduledEvent) -> None:
        """Fire a periodic measurement record (``a`` samples) and re-arm it in place."""
        fn = ev.fn
        assert fn is not None  # every() always stores the callable
        count = ev.a
        self.non_node_events += count
        self.events_dispatched += count - 1  # the dispatch counted one
        if self.events_dispatched > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; runaway simulation?"
            )
        if self.kind_counts is not None:
            self.kind_counts[KIND_SAMPLE] += count - 1
        fn(self.now)
        nxt = self.now + ev.b
        end = ev.c
        if end is None or nxt <= end:
            self.queue.repush(ev, nxt)

    def _handle_topology(self, ev: ScheduledEvent) -> None:
        """Apply a scheduled graph mutation (``a=graph, b=added, c=u, d=v``)."""
        self.non_node_events += 1
        if ev.b:
            ev.a.add_edge(ev.c, ev.d, self.now)
        else:
            ev.a.remove_edge(ev.c, ev.d, self.now)

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #

    def every(
        self,
        interval: float,
        callback: Callable[[float], Any],
        *,
        start: float | None = None,
        end: float | None = None,
        count: int = 1,
    ) -> None:
        """Install a periodic measurement callback.

        ``callback(now)`` fires at ``start, start+interval, ...`` (default
        start: now) with :data:`PRIORITY_SAMPLE` so it observes each
        timestamp *after* all model activity.  Re-arms itself until ``end``.
        A single :data:`~repro.sim.events.KIND_SAMPLE` record is reused for
        the whole series, counted as ``count`` samples.  ``end`` before
        the first firing is rejected -- it would silently install a
        sampler that never re-arms.
        """
        if interval <= 0.0:
            raise SimulationError(f"interval must be positive; got {interval!r}")
        t0 = self.now if start is None else start
        first = max(t0, self.now)
        if end is not None and end < first:
            raise SimulationError(
                f"sampling window is empty: end={end!r} precedes the first "
                f"firing at t={first!r}"
            )
        self.queue.push_typed(
            first, PRIORITY_SAMPLE, KIND_SAMPLE, count, float(interval), end,
            None, callback, "sample",
        )
