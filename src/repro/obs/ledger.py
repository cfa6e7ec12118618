"""Direction-aware comparison of two store rows (``repro diff``).

A bundled run keeps its row -- the bundle's ``run`` block plus
``bundle_path`` and ``recorded_unix`` -- in the one result store
(:meth:`repro.sweep.store.ResultStore.put_run`); ``repro history`` lists
those rows and ``repro diff A B`` compares any two entries' rows with
:func:`diff_records`.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["diff_records"]

#: Row fields never compared: the stamps, and the nested transport block
#: (``messages_sent`` / ``messages_delivered`` are its row columns).
_UNCOMPARED = ("recorded_unix", "bundle_path", "transport")

#: Numeric row fields where *smaller* is better (regressions grow them).
LOWER_IS_BETTER = ("oracle_violations", "elapsed_seconds")

#: Numeric row fields where *larger* is better (regressions shrink them);
#: so is every monitor's ``oracle_<name>_worst_margin``.
HIGHER_IS_BETTER = ("events_per_sec", "oracle_worst_margin")


def _direction(key: str) -> int:
    if key in LOWER_IS_BETTER:
        return -1
    if key in HIGHER_IS_BETTER or (
        key.startswith("oracle_") and key.endswith("_worst_margin")
    ):
        return 1
    return 0


def diff_records(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Direction-aware field-by-field diff of two store rows.

    Returns one row per differing comparable field: ``field``, the two
    values, the relative delta where meaningful, and a ``verdict`` of
    ``"regression"``, ``"improvement"`` or ``"neutral"``.  ``oracle_ok``
    flipping true -> false is a regression regardless of magnitude; a
    shrinking worst margin regresses, while *when* it was tightest
    (``*_worst_margin_time``) and identity strings (config hash, workload)
    diff as neutral context rows.
    """
    rows: list[dict[str, Any]] = []
    for key in sorted((set(a) | set(b)) - set(_UNCOMPARED)):
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
            direction = _direction(key)
            if direction:
                worse = delta * direction < 0
                row["verdict"] = "regression" if worse else "improvement"
        rows.append(row)
    order = {"regression": 0, "improvement": 1, "neutral": 2}
    rows.sort(key=lambda r: (order[str(r["verdict"])], str(r["field"])))
    return rows
