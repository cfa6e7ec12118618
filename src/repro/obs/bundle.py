"""Versioned on-disk run bundles (the observatory's artifact format).

A *bundle* is one directory holding one ``bundle.json``: the run's
identity (workload, config hash, seed, runtime), its
:class:`~repro.oracle.oracle.OracleReport`, the captured skew timeline
(:mod:`repro.obs.timeline`), any telemetry frames the flight recorder
kept in memory, and compact trace/forensics summaries.  ``repro
run/live/check --bundle DIR`` assembles one per run; ``repro report``
renders it to the single-file HTML observatory
(:mod:`repro.obs.html`).  The ``run`` block is the run's row -- its
config identity, :func:`repro.sweep.engine.summarize_run`'s row, the
timings and the transport counters -- and is what a bundled run keeps in
the result store (``repro history`` / ``repro diff``).

Validation is hand-rolled in the style of
:mod:`repro.telemetry.schema` -- explicit checks with precise error
messages, no dependency -- and is the CI gate: the JSON embedded in a
rendered report must round-trip through :func:`validate_bundle`.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Mapping, NoReturn

from .._version import __version__
from ..telemetry.schema import FrameError, validate_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..harness.runner import RunResult

__all__ = [
    "BUNDLE_FILENAME",
    "BUNDLE_VERSION",
    "BundleError",
    "assemble_bundle",
    "load_bundle",
    "validate_bundle",
    "write_bundle",
]

#: Current bundle schema version.
BUNDLE_VERSION = 1

#: The single file a bundle directory holds.
BUNDLE_FILENAME = "bundle.json"

#: Valid values of a bundle's ``kind`` (which CLI verb produced it).
BUNDLE_KINDS = ("run", "live", "check")

_RUN_REQUIRED = (
    "workload",
    "name",
    "algorithm",
    "runtime",
    "n",
    "seed",
    "horizon",
    "config_hash",
    "global_skew_bound",
    "elapsed_seconds",
    "events_dispatched",
    "events_per_sec",
    "jumps",
    "transport",
)


class BundleError(ValueError):
    """A bundle document failed schema validation."""


def _fail(msg: str) -> NoReturn:
    raise BundleError(msg)


def _require_number(
    value: Any, where: str, *, allow_none: bool = False
) -> None:
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where}: expected a number, got {type(value).__name__}")


def _validate_run(run: Any) -> None:
    if not isinstance(run, dict):
        _fail(f"run: expected an object, got {type(run).__name__}")
    missing = [k for k in _RUN_REQUIRED if k not in run]
    if missing:
        _fail(f"run: missing keys {missing}")
    for key in ("workload", "name"):
        if run[key] is not None and not isinstance(run[key], str):
            _fail(f"run.{key}: expected a string or null")
    for key in ("algorithm", "runtime", "config_hash"):
        if not isinstance(run[key], str):
            _fail(f"run.{key}: expected a string")
    for key in ("n", "seed", "events_dispatched", "jumps"):
        if isinstance(run[key], bool) or not isinstance(run[key], int):
            _fail(f"run.{key}: expected an integer")
    _require_number(run["horizon"], "run.horizon")
    _require_number(run["global_skew_bound"], "run.global_skew_bound")
    _require_number(run["elapsed_seconds"], "run.elapsed_seconds", allow_none=True)
    _require_number(run["events_per_sec"], "run.events_per_sec", allow_none=True)
    transport = run["transport"]
    if not isinstance(transport, dict):
        _fail("run.transport: expected an object")
    for name, value in transport.items():
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"run.transport[{name!r}]: expected an integer")


def _validate_oracle(oracle: Any) -> None:
    if oracle is None:
        return
    if not isinstance(oracle, dict):
        _fail(f"oracle: expected an object or null, got {type(oracle).__name__}")
    for key in ("ok", "checks", "violation_count", "monitors", "violations"):
        if key not in oracle:
            _fail(f"oracle: missing key {key!r}")
    if not isinstance(oracle["ok"], bool):
        _fail("oracle.ok: expected a boolean")
    for key in ("checks", "violation_count"):
        if isinstance(oracle[key], bool) or not isinstance(oracle[key], int):
            _fail(f"oracle.{key}: expected an integer")
    _require_number(
        oracle.get("worst_margin"), "oracle.worst_margin", allow_none=True
    )
    monitors = oracle["monitors"]
    if not isinstance(monitors, dict):
        _fail("oracle.monitors: expected an object")
    for name, summary in monitors.items():
        if not isinstance(summary, dict):
            _fail(f"oracle.monitors[{name!r}]: expected an object")
        for key in ("checks", "violations"):
            value = summary.get(key)
            if isinstance(value, bool) or not isinstance(value, int):
                _fail(f"oracle.monitors[{name!r}].{key}: expected an integer")
        for key in ("worst_margin", "worst_margin_time", "worst_observed"):
            _require_number(
                summary.get(key),
                f"oracle.monitors[{name!r}].{key}",
                allow_none=True,
            )
    violations = oracle["violations"]
    if not isinstance(violations, list):
        _fail("oracle.violations: expected a list")
    for i, v in enumerate(violations):
        if not isinstance(v, dict):
            _fail(f"oracle.violations[{i}]: expected an object")
        for key in ("monitor", "time", "nodes", "bound", "observed"):
            if key not in v:
                _fail(f"oracle.violations[{i}]: missing key {key!r}")
        _require_number(v["time"], f"oracle.violations[{i}].time")


def _validate_timeline(timeline: Any) -> None:
    if timeline is None:
        return
    if not isinstance(timeline, dict):
        _fail(
            f"timeline: expected an object or null, got {type(timeline).__name__}"
        )
    for key in ("v", "rows", "stride", "columns", "field", "field_nodes", "events"):
        if key not in timeline:
            _fail(f"timeline: missing key {key!r}")
    for key in ("v", "rows", "stride"):
        value = timeline[key]
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"timeline.{key}: expected an integer")
    rows = timeline["rows"]
    columns = timeline["columns"]
    if not isinstance(columns, dict) or "t" not in columns:
        _fail("timeline.columns: expected an object with a 't' column")
    for name, values in columns.items():
        if not isinstance(values, list) or len(values) != rows:
            _fail(
                f"timeline.columns[{name!r}]: expected a list of {rows} values"
            )
        for j, value in enumerate(values):
            _require_number(
                value, f"timeline.columns[{name!r}][{j}]", allow_none=True
            )
    field = timeline["field"]
    width = len(timeline["field_nodes"])
    if not isinstance(field, list) or len(field) != rows:
        _fail(f"timeline.field: expected {rows} rows")
    for i, row in enumerate(field):
        if not isinstance(row, list) or len(row) != width:
            _fail(f"timeline.field[{i}]: expected {width} values")
    if not isinstance(timeline["events"], list):
        _fail("timeline.events: expected a list")


def _validate_telemetry(telemetry: Any) -> None:
    if telemetry is None:
        return
    if not isinstance(telemetry, dict) or "frames" not in telemetry:
        _fail("telemetry: expected an object with a 'frames' list, or null")
    frames = telemetry["frames"]
    if not isinstance(frames, list):
        _fail("telemetry.frames: expected a list")
    for i, frame in enumerate(frames):
        try:
            validate_frame(frame)
        except FrameError as exc:
            _fail(f"telemetry.frames[{i}]: {exc}")


def _validate_trace(trace: Any) -> None:
    if trace is None:
        return
    if not isinstance(trace, dict):
        _fail(f"trace: expected an object or null, got {type(trace).__name__}")
    for key in ("spans", "dropped", "kinds"):
        if key not in trace:
            _fail(f"trace: missing key {key!r}")
    kinds = trace["kinds"]
    if not isinstance(kinds, dict):
        _fail("trace.kinds: expected an object")
    for name, count in kinds.items():
        if isinstance(count, bool) or not isinstance(count, int):
            _fail(f"trace.kinds[{name!r}]: expected an integer")


def validate_bundle(doc: Any) -> None:
    """Validate one bundle document; raises :class:`BundleError`.

    Checks the full nested structure: run identity, oracle report,
    timeline geometry (every column the same length as ``rows``),
    telemetry frames (each through
    :func:`repro.telemetry.schema.validate_frame`) and trace summary.
    """
    if not isinstance(doc, dict):
        _fail(f"bundle: expected an object, got {type(doc).__name__}")
    missing = [
        k
        for k in ("bundle_version", "kind", "version", "run", "causes")
        if k not in doc
    ]
    if missing:
        _fail(f"bundle: missing keys {missing}")
    if doc["bundle_version"] != BUNDLE_VERSION:
        _fail(
            f"bundle_version: expected {BUNDLE_VERSION}, "
            f"got {doc['bundle_version']!r}"
        )
    if doc["kind"] not in BUNDLE_KINDS:
        _fail(f"kind: expected one of {BUNDLE_KINDS}, got {doc['kind']!r}")
    if not isinstance(doc["version"], str):
        _fail("version: expected a string")
    _validate_run(doc["run"])
    _validate_oracle(doc.get("oracle"))
    _validate_timeline(doc.get("timeline"))
    _validate_telemetry(doc.get("telemetry"))
    _validate_trace(doc.get("trace"))
    if not isinstance(doc["causes"], list):
        _fail("causes: expected a list")


# --------------------------------------------------------------------- #
# Assembly
# --------------------------------------------------------------------- #


def assemble_bundle(
    result: "RunResult",
    *,
    kind: str = "run",
    workload: str | None = None,
    elapsed_seconds: float | None = None,
    timeline: Any = None,
    frames: list[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Build one validated bundle document from a finished run.

    ``timeline`` is a bound :class:`~repro.obs.timeline.TimelineRecorder`
    (or ``None``); ``frames`` are the telemetry frames a
    ``keep_frames=True`` sampler accumulated.  The document is validated
    before being returned, so a malformed assembly fails here rather than
    at report time.
    """
    # Local: the sweep package imports the harness.
    from ..sweep.engine import summarize_run
    from ..sweep.store import config_hash

    cfg = result.config
    # The sim runtime is the plain string "sim"; live runs carry a
    # RuntimeRef("live", ...) -- the bundle stores just the name.
    runtime = cfg.runtime
    runtime_name = runtime if isinstance(runtime, str) else str(runtime.name)
    events_per_sec = (
        result.events_dispatched / elapsed_seconds
        if elapsed_seconds is not None and elapsed_seconds > 0
        else None
    )
    run = {
        "workload": workload,
        "name": cfg.name or None,
        "algorithm": cfg.algorithm,
        "runtime": runtime_name,
        "n": int(cfg.params.n),
        "seed": int(cfg.seed),
        "horizon": float(cfg.horizon),
        "config_hash": config_hash(cfg.to_dict()),
        **summarize_run(result),
        "kind": kind,
        "elapsed_seconds": elapsed_seconds,
        "events_per_sec": events_per_sec,
        "transport": {k: int(v) for k, v in result.transport_stats.items()},
    }
    report = result.oracle_report
    oracle = report.to_dict() if report is not None else None
    trace = None
    if result.spans is not None:
        table = result.spans
        from ..tracing.spans import SPAN_KIND_NAMES

        counts = table.kind_counts
        trace = {
            "spans": len(table),
            "dropped": table.dropped,
            "kinds": dict(zip(SPAN_KIND_NAMES, counts)),
        }
    doc: dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "kind": kind,
        "version": __version__,
        "run": run,
        "oracle": oracle,
        "timeline": (
            timeline.to_dict()
            if timeline is not None and getattr(timeline, "bound", False)
            else None
        ),
        "telemetry": (
            {"frames": [dict(f) for f in frames]} if frames is not None else None
        ),
        "trace": trace,
        "causes": [r.to_dict() for r in result.cause_reports],
    }
    validate_bundle(doc)
    return doc


# --------------------------------------------------------------------- #
# I/O
# --------------------------------------------------------------------- #


def write_bundle(doc: Mapping[str, Any], directory: str) -> str:
    """Write ``doc`` to ``directory/bundle.json`` atomically; returns the path."""
    from ..sweep.store import write_json_atomic  # local, as in assemble_bundle

    path = os.path.join(directory, BUNDLE_FILENAME)
    write_json_atomic(path, doc)
    return path


def load_bundle(path: str) -> dict[str, Any]:
    """Load and validate a bundle from a directory or ``bundle.json`` path."""
    if os.path.isdir(path):
        path = os.path.join(path, BUNDLE_FILENAME)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_bundle(doc)
    result: dict[str, Any] = doc
    return result
