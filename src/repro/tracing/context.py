"""The :class:`Tracer`: hot-path span hooks plus the ambient activation.

One tracer accumulates one run's span rows into a
:class:`~repro.tracing.spans.SpanTable`.  Like PR 6's telemetry registry,
tracing is **ambient, not config**: the :class:`ExperimentConfig` dict is
the sweep cache's content address and a pure observer must not change it,
so the runner flag (``repro run --trace-out``, ``repro explain``) calls
:func:`activate_tracing` and both runtimes pick the tracer up via
:func:`active_tracer` at build time.  When no tracer is active every hook
site pays exactly one ``is not None`` check.

**Trace context.**  Every protocol message is correlated send -> receive
by *carrying the span id with the message* -- :meth:`Tracer.flight_send`
returns it, delivery closes it by id:

* In the simulator the id rides the pooled delivery record's observer
  slot (``ScheduledEvent.e``), which physics never reads.  That is what
  keeps tracing provably neutral: payloads, effect objects, RNG draws
  and event ordering are untouched.
* In the live runtime deliveries ride real channels, so the span id is
  explicit on the wire: the channel carries it beside the payload (the
  integer ``"tc"`` field of UDP frames) and the receiver closes the span
  by id.

Every hook writes one row and keeps no state between calls.  Hooks never
draw RNG and never schedule events; the neutrality tests pin golden
workloads bit-identical with tracing on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from .spans import (
    DEFAULT_CAPACITY,
    SPAN_DISCOVER,
    SPAN_EDGE,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_TIMER,
    SPAN_VIOLATION,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
    SpanTable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..telemetry.registry import MetricsRegistry

__all__ = [
    "Tracer",
    "activate_tracing",
    "active_tracer",
    "deactivate_tracing",
    "trace_session",
]


class Tracer:
    """Accumulate spans from one run (see module docstring).

    The hooks below are the reference implementation and the
    live-runtime path; they write through :class:`SpanTable`'s methods.
    The sim kernel's per-message sites (:meth:`Transport.send_many`, the
    node timer dispatch, the batch table's scalar tick) inline the same
    ``list.extend`` against the table's open segment, ``table.data`` /
    ``table.base``, skipping even the method call; the batch table's
    array lane writes a run's rows as one column block
    (:meth:`SpanTable.write_block`).
    """

    __slots__ = ("table",)

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.table = SpanTable(capacity)

    # ------------------------------------------------------------------ #
    # Flight hooks (carried span id; both runtimes)
    # ------------------------------------------------------------------ #

    def flight_send(self, u: int, v: int, t0: float, t1: float) -> int:
        """A message left ``u`` for ``v``; returns the open span's id.

        ``t1`` is the scheduled delivery time (sim) or just ``t0`` (live,
        where the arrival time is unknown until the frame lands).  The
        returned id travels with the message -- event-record slot ``e`` in
        the sim, the ``"tc"`` wire field in the live runtime -- and closes
        the span via :meth:`flight_deliver` / :meth:`flight_drop`.  Returns
        -1 when the table is at capacity (the flight goes unrecorded).
        """
        return self.table.append(SPAN_FLIGHT, u, v, t0, t1, STATUS_PENDING)

    def flight_fail(self, u: int, v: int, t: float) -> None:
        """A send on a non-existent edge was dropped at send time."""
        self.table.append(SPAN_FLIGHT, u, v, t, t, STATUS_DROPPED)

    def flight_deliver(self, span_id: int, t: float) -> None:
        """The flight arrived: close its span."""
        if span_id >= 0:
            self.table.close(span_id, t, STATUS_DONE)

    def flight_drop(self, span_id: int, t: float) -> None:
        """The flight was dropped in transit (edge removed / socket gone)."""
        if span_id >= 0:
            self.table.close(span_id, t, STATUS_DROPPED)

    # ------------------------------------------------------------------ #
    # Shared hooks (both runtimes)
    # ------------------------------------------------------------------ #

    def timer_fired(self, node: int, t: float) -> None:
        """A subjective timer fired on ``node``."""
        self.table.append(SPAN_TIMER, node, -1, t, t, STATUS_DONE)

    def jump(self, node: int, t: float, delta: float) -> None:
        """``node`` discretely raised its logical clock by ``delta``."""
        self.table.append(SPAN_JUMP, node, -1, t, t, STATUS_DONE, delta)

    def edge_flip(self, t: float, u: int, v: int, added: bool) -> None:
        """Edge ``{u, v}`` was added (detail=1) or removed (detail=0)."""
        self.table.append(SPAN_EDGE, u, v, t, t, STATUS_DONE, 1.0 if added else 0.0)

    def discover(self, node: int, other: int, t: float, added: bool) -> None:
        """``node`` learned edge ``{node, other}`` changed."""
        self.table.append(
            SPAN_DISCOVER, node, other, t, t, STATUS_DONE, 1.0 if added else 0.0
        )

    def violation(self, t: float, node: int) -> int:
        """Anchor an oracle violation in the table; returns the anchor id."""
        return self.table.append(SPAN_VIOLATION, node, -1, t, t, STATUS_DONE)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def instrument(self, registry: "MetricsRegistry") -> None:
        """Expose span accounting as polled readbacks (out-of-band)."""
        table = self.table
        registry.counter_fn("tracing.spans", lambda: len(table))
        registry.counter_fn("tracing.dropped", lambda: table.dropped)
        registry.counter_fn(
            "tracing.flights", lambda: table.kind_counts[SPAN_FLIGHT]
        )


# --------------------------------------------------------------------- #
# Ambient activation (mirrors repro.telemetry.registry)
# --------------------------------------------------------------------- #

_ACTIVE: Tracer | None = None


def activate_tracing(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install a fresh ambient tracer; runtimes pick it up at build time."""
    global _ACTIVE
    _ACTIVE = Tracer(capacity)
    return _ACTIVE


def deactivate_tracing() -> None:
    """Drop the ambient tracer (subsequent builds run untraced)."""
    global _ACTIVE
    _ACTIVE = None


def active_tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when tracing is off."""
    return _ACTIVE


@contextmanager
def trace_session(capacity: int = DEFAULT_CAPACITY) -> Iterator[Tracer]:
    """Scoped activation: ``with trace_session() as tracer: run_experiment(...)``."""
    tracer = activate_tracing(capacity)
    try:
        yield tracer
    finally:
        deactivate_tracing()
