"""Pooled happens-before span table.

A *span* is one causally meaningful occurrence of a run: a message flight
(send -> deliver/drop), a timer firing, a discrete clock jump, a topology
flip, a discovery delivery, or an oracle violation.  Spans carry a
``parent`` edge -- the span whose dispatch caused them -- so the table as
a whole is the run's happens-before DAG: a flight's parent is the timer
(or earlier flight) whose handler emitted the send, a jump's parent is
the flight that delivered the triggering message, and so on.

Rows are kept in id order as *segments* of two kinds:

* a **list segment** holds rows written one at a time, eight slots per
  row in one flat list (``data[i * 8]`` is the kind, ``data[i * 8 + 4]``
  the end time, ...).  Recording such a span is a single ``list.extend``
  of one tuple -- no per-span object, no dict, no per-column attribute
  walk -- which is what keeps the per-message hooks inside their overhead
  budget (``test_observer_overhead`` in ``tests/test_telemetry.py``); a
  typed buffer's append costs several times as much per row.  Only the
  last segment is open: the hooks extend :attr:`SpanTable.data` and a
  row's id is :attr:`SpanTable.base` plus its position there.
* a **column block** holds the rows of one array-lane run (a tick run,
  the E_0 wave) as eight numpy columns, written by a few column
  assignments (:meth:`SpanTable.write_block`), so that tracing a run costs
  what the run's own column passes cost and never moves it off the lane.

Cold readers (exporter, forensics, tests) never touch a segment
directly: the :attr:`~SpanTable.kind`, :attr:`~SpanTable.node`, ...
properties materialize a fresh column list of Python ints and floats on
access -- **bind them once before a loop**, each access is O(table) --
and :meth:`~SpanTable.row` / :meth:`~SpanTable.rows` materialize
per-object :class:`Span` views.

The table is *capacity-capped*: once full, appends count into
:attr:`SpanTable.dropped` and return ``-1`` (a sentinel id every hook
accepts), so a pathological run degrades to counting instead of eating
memory.  Nothing here draws RNG or schedules events -- the neutrality
tests pin that recording spans leaves runs bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterator, Sequence

import numpy as np

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

#: Slots per span row (kind, node, peer, t0, t1, parent, status, detail):
#: row ``i`` of a list segment starts at ``i * STRIDE``, and a column
#: block holds ``STRIDE`` columns.  The hot hooks rely on this layout.
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
    """Segmented, capacity-capped span storage (see module docstring)."""

    __slots__ = ("segments", "data", "base", "capacity", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive; got {capacity!r}")
        #: The open list segment (stride-8 rows); hot hooks extend it.
        self.data: list[Any] = []
        #: Span id of the open segment's first row.
        self.base = 0
        #: ``(first span id, rows)`` per segment in id order: a stride-8
        #: list, or a column block (eight equal-length numpy columns).
        self.segments: list[tuple[int, Any]] = [(0, self.data)]
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
        span_id = self.base + (len(data) >> 3)
        if span_id >= self.capacity:
            self.dropped += 1
            return -1
        data.extend((kind, node, peer, t0, t1, parent, status, detail))
        return span_id

    def write_block(self, columns: Sequence[np.ndarray]) -> int:
        """Append one run's rows as a column block; returns its first id.

        ``columns`` are the eight columns in slot order (kind, node, peer,
        t0, t1, parent, status, detail), of equal length; the block keeps
        them, so ``t1`` and ``status`` must be its own (:meth:`close`
        writes them) and the rest must not change.  The caller checked
        that the rows fit under ``capacity``.
        """
        span_id = len(self)
        if not self.data:
            self.segments.pop()  # the open segment is empty: replace it
        self.segments.append((span_id, tuple(columns)))
        self.base = span_id + len(columns[0])
        self.data = []
        self.segments.append((self.base, self.data))
        return span_id

    def _locate(self, span_id: int) -> tuple[Any, int]:
        """The segment holding ``span_id`` and the row's index in it."""
        if span_id >= self.base:
            return self.data, span_id - self.base
        at = bisect_right(self.segments, span_id, key=itemgetter(0)) - 1
        base, rows = self.segments[at]
        return rows, span_id - base

    def close(self, span_id: int, t1: float, status: int) -> None:
        """Finish an open span (flight delivery/drop)."""
        rows, i = self._locate(span_id)
        if type(rows) is list:
            rows[(i << 3) + 4] = t1
            rows[(i << 3) + 6] = status
        else:
            rows[4][i] = t1
            rows[6][i] = status

    def close_many(
        self, span_ids: Sequence[int], status: int, t1: float | None = None
    ) -> None:
        """Set ``status`` -- and ``t1``, unless ``None`` -- of many spans,
        a column assignment per block."""
        ids = np.sort(np.asarray(span_ids, np.int64))
        bases = [base for base, _ in self.segments]
        cuts = np.searchsorted(ids, bases + [len(self)]).tolist()
        for (base, rows), lo, hi in zip(self.segments, cuts, cuts[1:]):
            if lo == hi:
                continue
            at = ids[lo:hi] - base
            if type(rows) is list:
                for i in at.tolist():
                    rows[(i << 3) + 6] = status
                    if t1 is not None:
                        rows[(i << 3) + 4] = t1
            else:
                rows[6][at] = status
                if t1 is not None:
                    rows[4][at] = t1

    def __len__(self) -> int:
        return self.base + (len(self.data) >> 3)

    # ------------------------------------------------------------------ #
    # Cold column views: each access copies the column -- bind once.
    # ------------------------------------------------------------------ #

    def _column(self, slot: int) -> list[Any]:
        out: list[Any] = []
        for _, rows in self.segments:
            out += rows[slot::8] if type(rows) is list else rows[slot].tolist()
        return out

    @property
    def kind(self) -> list[int]:
        """Kind column (fresh list; bind once before looping)."""
        return self._column(0)

    @property
    def node(self) -> list[int]:
        """Primary-node column (fresh list; bind once before looping)."""
        return self._column(1)

    @property
    def peer(self) -> list[int]:
        """Peer-node column, -1 when unary (fresh list; bind once)."""
        return self._column(2)

    @property
    def t0(self) -> list[float]:
        """Start-time column (fresh list; bind once before looping)."""
        return self._column(3)

    @property
    def t1(self) -> list[float]:
        """End-time column (fresh list; bind once before looping)."""
        return self._column(4)

    @property
    def parent(self) -> list[int]:
        """Causal-parent column, -1 for roots (fresh list; bind once)."""
        return self._column(5)

    @property
    def status(self) -> list[int]:
        """Status column (fresh list; bind once before looping)."""
        return self._column(6)

    @property
    def detail(self) -> list[float]:
        """Detail column (jump delta, flip direction; fresh list)."""
        return self._column(7)

    @property
    def kind_counts(self) -> list[int]:
        """Tally per span kind (index = kind constant), retained spans:
        one count per kind and segment, no loop over rows in Python."""
        counts = np.zeros(len(SPAN_KIND_NAMES), np.int64)
        for _, rows in self.segments:
            if type(rows) is list:
                kinds = rows[0::8]
                counts += [kinds.count(k) for k in range(len(counts))]
            else:
                counts += np.bincount(rows[0], minlength=len(counts))
        return counts.tolist()  # type: ignore[no-any-return]

    def row(self, span_id: int) -> Span:
        """Materialize one span (cold paths: export, forensics, tests)."""
        rows, i = self._locate(span_id)
        if type(rows) is list:
            values = rows[i << 3 : (i + 1) << 3]
        else:
            values = [column[i].item() for column in rows]
        return Span(span_id, *values)

    def rows(self) -> Iterator[Span]:
        """Iterate every span as a materialized view, in id order."""
        for span_id, values in enumerate(zip(*map(self._column, range(STRIDE)))):
            yield Span(span_id, *values)

    def count(self, kind: int) -> int:
        """Retained spans of one kind (cold paths)."""
        return self.kind_counts[kind]
