"""Causal tracing: span rows, Perfetto export, forensics.

This package is the *causal* observability pillar (PR 7), sibling to the
metrics pillar in :mod:`repro.telemetry` (PR 6), and the one event trace
of a run (sends, drops, deliveries, churn, discoveries, jumps):

* :mod:`repro.tracing.spans` — the span table, in id-ordered segments:
  flat lists of seven-slot rows written one at a time, numpy column
  blocks for the rows of an array-lane run;
* :mod:`repro.tracing.context` — the :class:`Tracer` hooks both runtimes
  call, and the ambient activation (``repro run --trace-out``);
* :mod:`repro.tracing.export` — Chrome-trace/Perfetto JSON;
* :mod:`repro.tracing.forensics` — ``repro explain``: ranked
  :class:`CauseReport` records for oracle violations.

See docs/observability.md ("Tracing & forensics").
"""

from .context import (
    Tracer,
    activate_tracing,
    active_tracer,
    deactivate_tracing,
    trace_session,
)
from .export import chrome_trace_events, export_chrome_trace
from .forensics import Cause, CauseReport, explain_result, explain_violation
from .spans import (
    DEFAULT_CAPACITY,
    SPAN_DISCOVER,
    SPAN_EDGE,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_KIND_NAMES,
    SPAN_TIMER,
    SPAN_VIOLATION,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
    SpanTable,
)

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
    "Cause",
    "CauseReport",
    "SpanTable",
    "Tracer",
    "activate_tracing",
    "active_tracer",
    "chrome_trace_events",
    "deactivate_tracing",
    "explain_result",
    "explain_violation",
    "export_chrome_trace",
    "trace_session",
]
