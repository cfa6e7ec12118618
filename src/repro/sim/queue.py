"""A cancellable binary-heap event queue over typed event records.

Supports the operations the simulator needs, all with standard heap
complexity:

* :meth:`EventQueue.push` / :meth:`EventQueue.push_typed` -- O(log m);
* :meth:`EventQueue.pop` / :meth:`EventQueue.pop_until` -- amortised
  O(log m) (skips cancelled entries);
* :meth:`EventQueue.cancel` -- O(1) lazy deletion.

Two performance-critical design points:

**Tuple-keyed heap.**  The heap holds ``(time, priority, seq, record)``
tuples, so every sift comparison is a C-level tuple comparison -- ``seq`` is
unique, so the record itself is never compared.  This removes the dominant
cost of the closure-era queue (a Python ``__lt__`` call per comparison).

**Record pooling.**  Popped records of every kind except
:data:`~repro.sim.events.KIND_CALLBACK` are returned to a free list (see
:data:`~repro.sim.events.POOLABLE`) and reused by later pushes, so
steady-state simulation allocates no event objects.  Safety argument:
handles to poolable records never outlive their heap residency -- the sim
driver drops timer handles before cancellation/dispatch completes, and the
other typed kinds never expose handles at all.  Lazy deletion keeps
cancelled records in the heap until they surface; they join the free list
only at that point, when no live reference can remain.

:meth:`repro.sim.simulator.Simulator.run_until` inlines
:meth:`EventQueue.pop_until` and :meth:`EventQueue.recycle` over ``_heap``
/ ``_free`` / ``_live``: a change to either is a change to that loop too.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from .events import KIND_CALLBACK, POOLABLE, ScheduledEvent

__all__ = ["EventQueue"]

#: Free-list size cap; beyond this, surplus records are left to the GC.
POOL_CAP = 65536


class EventQueue:
    """Priority queue of :class:`ScheduledEvent` ordered by (time, prio, seq)."""

    __slots__ = ("_heap", "_seq", "_live", "_free", "allocations")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0
        self._free: list[ScheduledEvent] = []
        #: Records constructed because the free list was empty; together
        #: with :attr:`pushes` this yields the event-pool hit rate.
        self.allocations = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def raw_size(self) -> int:
        """Total heap entries including cancelled ones (for tests/metrics)."""
        return len(self._heap)

    @property
    def pool_size(self) -> int:
        """Records currently parked in the free list (for tests/metrics)."""
        return len(self._free)

    @property
    def pushes(self) -> int:
        """Total pushes so far, including re-pushes (for tests/metrics)."""
        return self._seq

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def push(
        self,
        time: float,
        priority: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule a generic ``callback`` at ``time``; returns a handle."""
        return self.push_typed(
            time, priority, KIND_CALLBACK, None, None, None, None, callback, label
        )

    def push_typed(
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
    ) -> ScheduledEvent:
        """Schedule a typed event record at ``time``; returns a handle.

        The record is drawn from the free list when one is available, so
        hot paths (deliveries, timers, samples) allocate nothing.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.priority = priority
            ev.seq = seq
            ev.kind = kind
            ev.fn = fn
            ev.a = a
            ev.b = b
            ev.c = c
            ev.d = d
            ev.e = e
            ev.cancelled = False
            ev.gen += 1
            ev.label = label
        else:
            self.allocations += 1
            ev = ScheduledEvent(
                time, priority, seq, fn, label, kind=kind, a=a, b=b, c=c, d=d, e=e
            )
        ev.queued = True
        heapq.heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def push_keyed(
        self,
        time: float,
        priority: int,
        key: tuple[Any, ...],
        kind: int,
        a: Any = None,
        b: Any = None,
        c: Any = None,
        d: Any = None,
        fn: Callable[..., Any] | None = None,
        label: str = "",
        e: Any = None,
    ) -> ScheduledEvent:
        """Schedule a typed record with an explicit tie-break ``key``.

        Identical to :meth:`push_typed` except the heap's third slot -- the
        final tie-break within a ``(time, priority)`` class -- is the
        caller-supplied tuple instead of the local insertion counter.  The
        parallel shard backend (:mod:`repro.sim.par`) uses this to place
        records at their *global* serial position: tuples from the same
        deterministic keying scheme compare identically in every shard, so
        cross-shard deliveries merge in exactly the serial tie order.

        The caller owns comparability: within one ``(time, priority)``
        class, every record must carry a tuple key from the same scheme
        (a tuple/int mix raises ``TypeError`` deep in ``heapq``).  The
        local insertion counter still advances so push totals (and the
        pool-hit-rate metric) stay meaningful.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.priority = priority
            ev.seq = key  # type: ignore[assignment]
            ev.kind = kind
            ev.fn = fn
            ev.a = a
            ev.b = b
            ev.c = c
            ev.d = d
            ev.e = e
            ev.cancelled = False
            ev.gen += 1
            ev.label = label
        else:
            self.allocations += 1
            ev = ScheduledEvent(
                time, priority, key, fn, label,  # type: ignore[arg-type]
                kind=kind, a=a, b=b, c=c, d=d, e=e,
            )
        ev.queued = True
        heapq.heappush(self._heap, (time, priority, key, ev))  # type: ignore[arg-type]
        self._live += 1
        return ev

    def repush(self, ev: ScheduledEvent, time: float) -> None:
        """Re-insert a just-popped record at ``time`` (periodic re-arm).

        ``ev`` must not currently be queued; it keeps its kind, priority
        and payload but receives a fresh ``seq`` so tie-breaking reflects
        the new insertion.
        """
        if ev.queued:
            raise ValueError("cannot repush a record that is still queued")
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        ev.queued = True
        heapq.heappush(self._heap, (time, ev.priority, seq, ev))
        self._live += 1

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #

    def cancel(self, event: ScheduledEvent, gen: int | None = None) -> bool:
        """Cancel a previously pushed event.

        Returns ``True`` if the event was queued and live and is now
        cancelled, ``False`` if it had already been cancelled or already
        fired (popping an event removes it from the queue, so a handle that
        already fired cannot be cancelled -- callers that re-arm timers
        always hold the freshest handle).

        ``gen`` guards against pool aliasing: a poolable record that fired
        can be recycled and re-issued to an unrelated caller, at which point
        a stale handle from its previous life would pass the ``queued``
        check and kill the *new* event.  Callers that cannot guarantee
        their handle is fresh capture ``handle.gen`` at push time and pass
        it here; a generation mismatch means the handle is stale and the
        cancel is refused.
        """
        if event.cancelled or not event.queued:
            return False
        if gen is not None and event.gen != gen:
            return False
        event.cancelled = True
        self._live -= 1
        return True

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> ScheduledEvent | None:
        """Remove and return the next live event (``None`` when empty)."""
        self._drop_cancelled()
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)[3]
        ev.queued = False
        self._live -= 1
        return ev

    def pop_until(self, t_end: float) -> ScheduledEvent | None:
        """Pop the next live event with ``time <= t_end`` (else ``None``).

        One heap pass: cancelled heads are dropped (and recycled) along
        the way.  This is the kernel's hot retrieval path.
        """
        heap = self._heap
        free = self._free
        poolable = POOLABLE
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.cancelled:
                heapq.heappop(heap)
                ev.queued = False
                if poolable[ev.kind] and len(free) < POOL_CAP:
                    ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                    free.append(ev)
                continue
            if entry[0] > t_end:
                return None
            heapq.heappop(heap)
            ev.queued = False
            self._live -= 1
            return ev
        return None

    def pop_run(
        self, first: ScheduledEvent, out: list[ScheduledEvent]
    ) -> int:
        """Pop the *run* of records that sort with ``first`` (batch dispatch).

        ``first`` must be the record just popped (:meth:`pop_until`, or
        the pop :meth:`~repro.sim.simulator.Simulator.run_until` inlines).
        The run is the contiguous heap prefix of live records sharing
        ``first``'s ``(time, priority, kind)``; cancelled heads inside the
        prefix are dropped and recycled exactly as :meth:`pop_until` would.
        A head with a different kind (even at equal time/priority) ends the
        run -- the batch never reorders records across kinds.

        When at least one continuation record exists, ``first`` and the
        continuation are appended to ``out`` (in heap = scalar dispatch
        order) and the total run length is returned.  When the run is a
        singleton, ``out`` is untouched and ``0`` is returned so the caller
        can take the scalar path with no extra cost.

        Pre-popping is only sound if no handler invoked for the run cancels
        or reorders a record *inside* the run; the kernel only registers
        batch handlers for kinds where that is proven (see
        :meth:`repro.sim.simulator.Simulator.set_batch_handler`).
        """
        heap = self._heap
        if not heap:
            return 0
        time = first.time
        priority = first.priority
        kind = first.kind
        free = self._free
        poolable = POOLABLE
        count = 0
        while heap:
            entry = heap[0]
            if entry[0] != time or entry[1] != priority:
                break
            ev = entry[3]
            if ev.cancelled:
                heapq.heappop(heap)
                ev.queued = False
                if poolable[ev.kind] and len(free) < POOL_CAP:
                    ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                    free.append(ev)
                continue
            if ev.kind != kind:
                break
            if count == 0:
                out.append(first)
            heapq.heappop(heap)
            ev.queued = False
            self._live -= 1
            out.append(ev)
            count += 1
        return count + 1 if count else 0

    def recycle(self, ev: ScheduledEvent) -> None:
        """Return a dispatched poolable record to the free list.

        Called by the kernel after dispatch; no-op for callback records and
        for records the dispatch handler re-queued.
        """
        if ev.queued or not POOLABLE[ev.kind]:
            return
        if len(self._free) < POOL_CAP:
            ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
            self._free.append(ev)

    def recycle_all(self, records: list[ScheduledEvent]) -> None:
        """Bulk :meth:`recycle` for a just-dispatched batch run.

        One call per run instead of one per record keeps the kernel's
        batch loop free of per-record method-call overhead.
        """
        free = self._free
        poolable = POOLABLE
        for ev in records:
            if ev.queued or not poolable[ev.kind]:
                continue
            if len(free) < POOL_CAP:
                ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                free.append(ev)

    def live_events(self) -> "Iterator[ScheduledEvent]":
        """Iterate the still-queued, non-cancelled records (heap order).

        Post-run introspection only (e.g. the transport re-marking
        still-in-flight trace spans); never used on the hot path.
        """
        for entry in self._heap:
            ev = entry[3]
            if not ev.cancelled:
                yield ev

    def clear(self) -> None:
        """Drop every pending event (records are not recycled)."""
        for entry in self._heap:
            entry[3].queued = False
        self._heap.clear()
        self._live = 0

    def _drop_cancelled(self) -> None:
        heap = self._heap
        free = self._free
        while heap and heap[0][3].cancelled:
            ev = heapq.heappop(heap)[3]
            ev.queued = False
            if POOLABLE[ev.kind] and len(free) < POOL_CAP:
                ev.fn = ev.a = ev.b = ev.c = ev.d = ev.e = None
                free.append(ev)
