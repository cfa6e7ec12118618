"""Content-addressed cross-run ledger (``benchmarks/.ledger/``).

Every bundled run appends one compact summary record -- config hash,
seed, oracle verdicts, worst margins, events/s, wall time -- so runs
accumulate into a comparable history: ``repro history`` lists the
trajectory, ``repro diff A B`` compares two records direction-aware, and
CI gates on the smoke workload's entry (``oracle_ok`` plus a throughput
floor).

Records are content-addressed: the run id is the SHA-256 of the record's
canonical JSON minus the id and the wall-clock ``recorded_unix`` stamp,
so a bit-identical rerun (same results, same timings) dedupes onto the
same file while any change in outcome mints a new id.  Files are flat
``<root>/<run_id>.json``; the root defaults to ``benchmarks/.ledger``
and can be overridden per call (``--ledger DIR``) or process-wide via
the ``REPRO_LEDGER`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Mapping

from .._version import __version__

__all__ = [
    "LEDGER_VERSION",
    "LedgerError",
    "append_record",
    "default_ledger_root",
    "diff_records",
    "find_record",
    "ledger_record",
    "read_ledger",
    "record_id",
]

#: Schema version stamped into every ledger record.
LEDGER_VERSION = 1

#: Environment variable overriding the default ledger root.
LEDGER_ENV = "REPRO_LEDGER"

#: Fields excluded from the content address (identity / wall-clock stamps).
_UNADDRESSED = ("run_id", "recorded_unix")

#: Numeric record fields where *smaller* is better (regressions grow them).
LOWER_IS_BETTER = ("oracle_violations", "wall_seconds")

#: Numeric record fields where *larger* is better (regressions shrink them).
HIGHER_IS_BETTER = ("events_per_sec", "oracle_worst_margin", "jumps_per_sec")


class LedgerError(ValueError):
    """Raised on malformed ledger records or unresolvable run ids."""


def default_ledger_root() -> str:
    """The ledger directory: ``$REPRO_LEDGER`` or ``benchmarks/.ledger``."""
    return os.environ.get(LEDGER_ENV) or os.path.join("benchmarks", ".ledger")


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_id(record: Mapping[str, Any]) -> str:
    """Content address of a record (sans identity/timestamp fields)."""
    body = {k: v for k, v in record.items() if k not in _UNADDRESSED}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()[:16]


def ledger_record(
    bundle: Mapping[str, Any],
    *,
    bundle_path: str | None = None,
) -> dict[str, Any]:
    """Derive one ledger record from a validated bundle document."""
    run = bundle["run"]
    oracle = bundle.get("oracle")
    record: dict[str, Any] = {
        "ledger_version": LEDGER_VERSION,
        "version": __version__,
        "kind": bundle["kind"],
        "workload": run["workload"],
        "name": run["name"],
        "algorithm": run["algorithm"],
        "runtime": run["runtime"],
        "config_hash": run["config_hash"],
        "n": run["n"],
        "seed": run["seed"],
        "horizon": run["horizon"],
        "events_dispatched": run["events_dispatched"],
        "events_per_sec": run["events_per_sec"],
        "jumps": run["jumps"],
        "wall_seconds": run["elapsed_seconds"],
        "oracle_ok": None if oracle is None else oracle["ok"],
        "oracle_checks": 0 if oracle is None else oracle["checks"],
        "oracle_violations": 0 if oracle is None else oracle["violation_count"],
        "oracle_worst_margin": (
            None if oracle is None else oracle.get("worst_margin")
        ),
        "bundle_path": bundle_path,
    }
    if oracle is not None:
        for name, summary in sorted(oracle["monitors"].items()):
            record[f"margin_{name}"] = summary.get("worst_margin")
            record[f"margin_time_{name}"] = summary.get("worst_margin_time")
    record["run_id"] = record_id(record)
    record["recorded_unix"] = time.time()
    return record


def append_record(record: Mapping[str, Any], root: str | None = None) -> str:
    """Write ``record`` to the ledger; returns its run id.

    A record whose content address already exists is rewritten in place
    (bit-identical rerun), so the ledger never accumulates duplicates.
    """
    root = root or default_ledger_root()
    os.makedirs(root, exist_ok=True)
    run_id = record.get("run_id") or record_id(record)
    path = os.path.join(root, f"{run_id}.json")
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(dict(record), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return str(run_id)


def read_ledger(root: str | None = None) -> list[dict[str, Any]]:
    """All records in the ledger, oldest first (by record timestamp)."""
    root = root or default_ledger_root()
    if not os.path.isdir(root):
        return []
    records: list[dict[str, Any]] = []
    for entry in sorted(os.listdir(root)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(root, entry)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise LedgerError(f"{path}: unreadable ledger record: {exc}") from exc
        if not isinstance(record, dict) or "ledger_version" not in record:
            raise LedgerError(f"{path}: not a ledger record")
        records.append(record)
    records.sort(key=lambda r: (float(r.get("recorded_unix") or 0.0), str(r.get("run_id"))))
    return records


def find_record(prefix: str, root: str | None = None) -> dict[str, Any]:
    """Resolve a (possibly abbreviated) run id to its record.

    Raises :class:`LedgerError` when the prefix matches zero or several
    records -- same contract as git's abbreviated hashes.
    """
    matches = [
        r for r in read_ledger(root) if str(r.get("run_id", "")).startswith(prefix)
    ]
    if not matches:
        raise LedgerError(f"no ledger record matches {prefix!r}")
    if len(matches) > 1:
        ids = ", ".join(str(r["run_id"]) for r in matches)
        raise LedgerError(f"ambiguous run id {prefix!r}: matches {ids}")
    return matches[0]


def diff_records(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Direction-aware field-by-field diff of two ledger records.

    Returns one row per differing comparable field: ``field``, the two
    values, the relative delta where meaningful, and a ``verdict`` of
    ``"regression"``, ``"improvement"`` or ``"neutral"``.  ``oracle_ok``
    flipping true -> false is a regression regardless of magnitude;
    identity strings (config hash, workload) diff as neutral context rows.
    """
    rows: list[dict[str, Any]] = []
    keys = sorted(set(a) | set(b) - set(_UNADDRESSED))
    for key in keys:
        if key in _UNADDRESSED or key in ("bundle_path", "version", "ledger_version"):
            continue
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        row: dict[str, Any] = {"field": key, "a": va, "b": vb, "verdict": "neutral"}
        if isinstance(va, bool) or isinstance(vb, bool):
            if va is True and vb is False:
                row["verdict"] = "regression"
            elif va is False and vb is True:
                row["verdict"] = "improvement"
        elif isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = float(vb) - float(va)
            row["delta"] = delta
            if va:
                row["ratio"] = float(vb) / float(va)
            direction = 0
            if key in LOWER_IS_BETTER or key.startswith("margin_time_"):
                direction = -1 if key in LOWER_IS_BETTER else 0
            elif key in HIGHER_IS_BETTER or (
                key.startswith("margin_") and not key.startswith("margin_time_")
            ):
                direction = 1
            if direction > 0:
                row["verdict"] = "regression" if delta < 0 else "improvement"
            elif direction < 0:
                row["verdict"] = "regression" if delta > 0 else "improvement"
        rows.append(row)
    order = {"regression": 0, "improvement": 1, "neutral": 2}
    rows.sort(key=lambda r: (order[str(r["verdict"])], str(r["field"])))
    return rows
