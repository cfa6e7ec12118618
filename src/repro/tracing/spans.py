"""Pooled happens-before span table.

A *span* is one causally meaningful occurrence of a run: a message flight
(send -> deliver/drop), a timer firing, a discrete clock jump, a topology
flip, a discovery delivery, or an oracle violation.  Spans carry a
``parent`` edge -- the span whose dispatch caused them -- so the table as
a whole is the run's happens-before DAG: a flight's parent is the timer
(or earlier flight) whose handler emitted the send, a jump's parent is
the flight that delivered the triggering message, and so on.

:class:`SpanTable` stores spans in **one flat list**, eight slots per
span (``data[id * 8]`` is the kind, ``data[id * 8 + 4]`` the end time,
...), appended on the kernel's per-message hot path.  That layout is
deliberate: recording a span is a single ``list.extend`` of one tuple --
no per-span object, no dict, no per-column attribute walk -- which is
what keeps tracing inside its overhead budget (``test_observer_overhead``
in ``tests/test_telemetry.py``).  It mirrors the typed-record
event queue of :mod:`repro.sim.events` (docs/performance.md).

Cold readers (exporter, forensics, tests) never touch the flat list
directly: the :attr:`~SpanTable.kind`, :attr:`~SpanTable.node`, ...
properties materialize a fresh column list on access -- **bind them once
before a loop**, each access is O(table) -- and :meth:`~SpanTable.row` /
:meth:`~SpanTable.rows` materialize per-object :class:`Span` views.

The table is *capacity-capped*: once full, appends count into
:attr:`SpanTable.dropped` and return ``-1`` (a sentinel id every hook
accepts), so a pathological run degrades to counting instead of eating
memory.  Nothing here draws RNG or schedules events -- the neutrality
tests pin that recording spans leaves runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "DEFAULT_CAPACITY",
    "SPAN_DISCOVER",
    "SPAN_EDGE",
    "SPAN_FLIGHT",
    "SPAN_JUMP",
    "SPAN_KIND_NAMES",
    "SPAN_TIMER",
    "SPAN_VIOLATION",
    "STATUS_DONE",
    "STATUS_DROPPED",
    "STATUS_PENDING",
    "Span",
    "SpanTable",
]

# Span kinds (slot 0 of each row).
SPAN_FLIGHT = 0
SPAN_TIMER = 1
SPAN_JUMP = 2
SPAN_EDGE = 3
SPAN_DISCOVER = 4
SPAN_VIOLATION = 5

#: Kind -> human-readable name (export, reports).
SPAN_KIND_NAMES = ("flight", "timer", "jump", "edge", "discover", "violation")

# Span statuses (slot 6 of each row).  Flights start PENDING and close to
# DONE (delivered) or DROPPED (edge vanished / send failed); instantaneous
# spans are born DONE.
STATUS_PENDING = 0
STATUS_DONE = 1
STATUS_DROPPED = 2

#: Default retention cap: ~8 machine words per span, so the default tops
#: out around a few hundred MB on a pathological run instead of unbounded.
DEFAULT_CAPACITY = 2_000_000

#: Slots per span row in :attr:`SpanTable.data` (kind, node, peer, t0,
#: t1, parent, status, detail).  Row ``i`` starts at ``i * STRIDE``; the
#: hot hooks in :mod:`repro.tracing.context` rely on this layout.
STRIDE = 8


@dataclass(frozen=True)
class Span:
    """Materialized read-only view of one span row (cold paths only)."""

    span_id: int
    kind: int
    node: int
    peer: int
    t0: float
    t1: float
    parent: int
    status: int
    detail: float

    @property
    def kind_name(self) -> str:
        """Human-readable kind (``"flight"``, ``"timer"``, ...)."""
        return SPAN_KIND_NAMES[self.kind]

    @property
    def duration(self) -> float:
        """``t1 - t0`` (0 for instantaneous spans, 0 for open flights)."""
        return self.t1 - self.t0 if self.t1 >= self.t0 else 0.0


class SpanTable:
    """Flat, capacity-capped span storage (see module docstring)."""

    __slots__ = ("data", "capacity", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive; got {capacity!r}")
        #: The raw stride-8 row storage; hot hooks extend it directly.
        self.data: list[Any] = []
        self.capacity = capacity
        #: Spans refused because the table hit ``capacity``.
        self.dropped = 0

    def append(
        self,
        kind: int,
        node: int,
        peer: int,
        t0: float,
        t1: float,
        parent: int,
        status: int,
        detail: float = 0.0,
    ) -> int:
        """Append one span row; returns its id, or ``-1`` when at capacity."""
        data = self.data
        span_id = len(data) >> 3
        if span_id >= self.capacity:
            self.dropped += 1
            return -1
        data.extend((kind, node, peer, t0, t1, parent, status, detail))
        return span_id

    def close(self, span_id: int, t1: float, status: int) -> None:
        """Finish an open span (flight delivery/drop)."""
        base = span_id << 3
        self.data[base + 4] = t1
        self.data[base + 6] = status

    def __len__(self) -> int:
        return len(self.data) >> 3

    # ------------------------------------------------------------------ #
    # Cold column views: each access copies the column -- bind once.
    # ------------------------------------------------------------------ #

    @property
    def kind(self) -> list[int]:
        """Kind column (fresh list; bind once before looping)."""
        return self.data[0::8]

    @property
    def node(self) -> list[int]:
        """Primary-node column (fresh list; bind once before looping)."""
        return self.data[1::8]

    @property
    def peer(self) -> list[int]:
        """Peer-node column, -1 when unary (fresh list; bind once)."""
        return self.data[2::8]

    @property
    def t0(self) -> list[float]:
        """Start-time column (fresh list; bind once before looping)."""
        return self.data[3::8]

    @property
    def t1(self) -> list[float]:
        """End-time column (fresh list; bind once before looping)."""
        return self.data[4::8]

    @property
    def parent(self) -> list[int]:
        """Causal-parent column, -1 for roots (fresh list; bind once)."""
        return self.data[5::8]

    @property
    def status(self) -> list[int]:
        """Status column (fresh list; bind once before looping)."""
        return self.data[6::8]

    @property
    def detail(self) -> list[float]:
        """Detail column (jump delta, flip direction; fresh list)."""
        return self.data[7::8]

    @property
    def kind_counts(self) -> list[int]:
        """Tally per span kind (index = kind constant), retained spans.

        Computed by one O(table) scan -- cold readers and the telemetry
        poll (one sampler tick every few hundred ms) only.
        """
        counts = [0] * len(SPAN_KIND_NAMES)
        for k in self.data[0::8]:
            counts[k] += 1
        return counts

    def row(self, span_id: int) -> Span:
        """Materialize one span (cold paths: export, forensics, tests)."""
        base = span_id << 3
        d = self.data
        return Span(
            span_id=span_id,
            kind=d[base],
            node=d[base + 1],
            peer=d[base + 2],
            t0=d[base + 3],
            t1=d[base + 4],
            parent=d[base + 5],
            status=d[base + 6],
            detail=d[base + 7],
        )

    def rows(self) -> Iterator[Span]:
        """Iterate every span as a materialized view, in id order."""
        for i in range(len(self.data) >> 3):
            yield self.row(i)

    def count(self, kind: int) -> int:
        """Retained spans of one kind (O(table) scan; cold paths)."""
        return self.kind_counts[kind]
