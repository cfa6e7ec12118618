"""Skew observatory: timeline capture, run bundles, HTML reports, run diffs.

The observability capstone (see ``docs/observability.md``): every run can
leave a durable, comparable artifact.

* :mod:`repro.obs.timeline` -- ambient ring-buffered capture of the skew
  field / envelope trajectory at the oracle's sample cadence;
* :mod:`repro.obs.bundle` -- the versioned on-disk run bundle
  (``repro run/live/check --bundle DIR``) and its schema validator;
* :mod:`repro.obs.html` -- the dependency-free single-file HTML
  observatory (``repro report BUNDLE``);
* :mod:`repro.obs.ledger` -- the direction-aware diff of two rows of the
  result store, where every bundled run keeps its row (``repro history``
  / ``repro diff``).

Like telemetry and tracing, everything here is an *observer*: never part
of :class:`~repro.harness.runner.ExperimentConfig`, no RNG draws,
nothing scheduled -- sweep-cache hashes and golden pins stay valid with
capture on.
"""

from .bundle import (
    BUNDLE_VERSION,
    BundleError,
    assemble_bundle,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from .html import render_report
from .ledger import diff_records
from .timeline import (
    TIMELINE_VERSION,
    TimelineRecorder,
    activate_timeline,
    active_timeline,
    deactivate_timeline,
    timeline_session,
)

__all__ = [
    "BUNDLE_VERSION",
    "BundleError",
    "TIMELINE_VERSION",
    "TimelineRecorder",
    "activate_timeline",
    "active_timeline",
    "assemble_bundle",
    "deactivate_timeline",
    "diff_records",
    "load_bundle",
    "render_report",
    "timeline_session",
    "validate_bundle",
    "write_bundle",
]
