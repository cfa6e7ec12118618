"""Chrome-trace / Perfetto JSON export of a span table.

:func:`export_chrome_trace` writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON that ``ui.perfetto.dev`` (and ``chrome://tracing``) open directly:

* one track (``pid``) per node, named via ``process_name`` metadata;
* every delivered flight is a complete event (``"X"``) on the sender's
  track plus a flow-event pair (``"s"`` at send on the sender, ``"f"`` at
  delivery on the receiver) sharing the span id -- Perfetto draws these
  as arrows, which is the happens-before DAG made visible;
* timers, jumps, discoveries, topology flips, drops and oracle violations
  are instant events (``"i"``) with their detail in ``args``.

Timestamps are microseconds (``ts = sim_time * TIME_SCALE``; one model
time unit = one second).  Every event carries ``ph`` and
``ts`` -- the CI smoke step validates exactly that.
"""

from __future__ import annotations

import json
from typing import Any

from .spans import (
    SPAN_DISCOVER,
    SPAN_EDGE,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_TIMER,
    SPAN_VIOLATION,
    STATUS_DONE,
    STATUS_DROPPED,
    SpanTable,
)

__all__ = ["chrome_trace_events", "export_chrome_trace"]

#: Microseconds per model time unit (model unit = 1 s).
TIME_SCALE = 1e6


def chrome_trace_events(table: SpanTable) -> list[dict[str, Any]]:
    """Build the ``traceEvents`` list for ``table`` (see module docstring)."""
    events: list[dict[str, Any]] = []
    nodes: set[int] = set()
    # Column properties copy on access -- bind each exactly once.
    kinds = table.kind
    node_col = table.node
    peer_col = table.peer
    t0_col = table.t0
    t1_col = table.t1
    status_col = table.status
    detail_col = table.detail
    for i in range(len(kinds)):
        kind = kinds[i]
        node = node_col[i]
        peer = peer_col[i]
        t0 = t0_col[i] * TIME_SCALE
        status = status_col[i]
        nodes.add(node)
        if peer >= 0:
            nodes.add(peer)
        if kind == SPAN_FLIGHT:
            if status == STATUS_DONE:
                t1 = t1_col[i] * TIME_SCALE
                events.append(
                    {
                        "ph": "X",
                        "name": f"msg {node}→{peer}",
                        "cat": "flight",
                        "pid": node,
                        "tid": 0,
                        "ts": t0,
                        "dur": max(t1 - t0, 0.0),
                    }
                )
                events.append(
                    {
                        "ph": "s",
                        "name": "flight",
                        "cat": "flight",
                        "id": i,
                        "pid": node,
                        "tid": 0,
                        "ts": t0,
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "name": "flight",
                        "cat": "flight",
                        "id": i,
                        "pid": peer,
                        "tid": 0,
                        "ts": t1,
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "name": f"drop {node}→{peer}",
                        "cat": "drop",
                        "pid": node,
                        "tid": 0,
                        "ts": t0,
                    }
                )
        elif kind == SPAN_TIMER:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": "timer",
                    "cat": "timer",
                    "pid": node,
                    "tid": 0,
                    "ts": t0,
                }
            )
        elif kind == SPAN_JUMP:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": "jump",
                    "cat": "jump",
                    "pid": node,
                    "tid": 0,
                    "ts": t0,
                    "args": {"delta": detail_col[i]},
                }
            )
        elif kind == SPAN_EDGE:
            added = detail_col[i] > 0.0
            events.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": f"edge_{'add' if added else 'remove'} "
                    f"{{{node},{peer}}}",
                    "cat": "topology",
                    "pid": node,
                    "tid": 0,
                    "ts": t0,
                }
            )
        elif kind == SPAN_DISCOVER:
            added = detail_col[i] > 0.0
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": f"discover_{'add' if added else 'remove'} {peer}",
                    "cat": "discovery",
                    "pid": node,
                    "tid": 0,
                    "ts": t0,
                }
            )
        elif kind == SPAN_VIOLATION:
            events.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": "violation",
                    "cat": "violation",
                    "pid": node,
                    "tid": 0,
                    "ts": t0,
                }
            )
    meta: list[dict[str, Any]] = []
    for node in sorted(nodes):
        meta.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": node,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"node {node}"},
            }
        )
    return meta + events


def export_chrome_trace(table: SpanTable, path: str) -> dict[str, int]:
    """Write ``table`` as Chrome trace JSON to ``path``.

    Returns summary counts: total events, flow events, delivered and
    dropped flights (handy for CLI reporting and tests).
    """
    events = chrome_trace_events(table)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    kinds = table.kind
    status_col = table.status
    flights = 0
    dropped = 0
    for i in range(len(kinds)):
        if kinds[i] == SPAN_FLIGHT:
            flights += 1
            if status_col[i] == STATUS_DROPPED:
                dropped += 1
    return {
        "events": len(events),
        "flows": sum(1 for e in events if e["ph"] in ("s", "f")),
        "flights": flights,
        "flights_dropped": dropped,
        "spans": len(table),
        "spans_lost": table.dropped,
    }
