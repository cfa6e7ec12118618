"""Turn a finished sweep into tidy per-config metric rows.

The sweep engine stores one flat metrics dict per config; figure scripts
and reports want *tidy* rows -- one dict per config joining the
configuration coordinates (``n``, ``seed``, ``b0``, ...) with the measured
metrics -- plus text-table and CSV renderings built on
:mod:`repro.analysis.report`.

Config coordinates are addressed by dotted paths into the config dict
(``"params.n"``, ``"seed"``); the common ones have short aliases so tables
stay readable.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..analysis.report import TextTable, csv_text
from .engine import SweepResult, SweepRow

__all__ = ["DEFAULT_COORDS", "sweep_csv", "sweep_table", "tidy_rows"]

#: The config coordinates joined onto every tidy row: alias -> path.
DEFAULT_COORDS: dict[str, str] = {
    "name": "name",
    "algorithm": "algorithm",
    "n": "params.n",
    "seed": "seed",
    "b0": "params.b0",
    "horizon": "horizon",
}


def _dig(config: Mapping[str, Any], path: str) -> Any:
    cur: Any = config
    for part in path.split("."):
        if not isinstance(cur, Mapping) or part not in cur:
            raise KeyError(f"config has no field {path!r}")
        cur = cur[part]
    return cur


def tidy_rows(result: SweepResult | Iterable[SweepRow]) -> list[dict[str, Any]]:
    """One flat dict per sweep point: config coordinates + metrics.

    The coordinates are :data:`DEFAULT_COORDS` (output column name ->
    dotted config path), the metrics every metric of the row, in its
    order.  Rows keep the sweep's expansion order, so downstream code can
    zip them against the original spec.

    Adversarial configs additionally surface their adversary as
    coordinates: ``adversary`` (the builder name) plus one ``adv_<kwarg>``
    column per scalar builder kwarg -- so sweeps over adversary strength
    land in tidy rows / CSV as plottable columns, not name suffixes.
    """
    rows = list(result.rows if isinstance(result, SweepResult) else result)
    out: list[dict[str, Any]] = []
    for row in rows:
        tidy: dict[str, Any] = {}
        for alias, path in DEFAULT_COORDS.items():
            tidy[alias] = _dig(row.config, path)
        adv = row.config.get("adversary")
        if isinstance(adv, Mapping):
            tidy["adversary"] = adv.get("name")
            for key, value in adv.get("kwargs", {}).items():
                if value is None or isinstance(value, (bool, int, float, str)):
                    tidy[f"adv_{key}"] = value
        tidy.update(row.metrics)
        tidy["cached"] = row.cached
        out.append(tidy)
    return out


def _columns(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None
) -> list[str]:
    if columns is not None:
        return list(columns)
    # Union of keys in first-seen order: rows may differ (e.g. only the
    # adversarial rows of a mixed sweep carry adversary coordinates).
    cols: dict[str, None] = {}
    for row in rows:
        for key in row:
            cols.setdefault(key)
    return list(cols)


def _as_tidy(
    result: SweepResult | Iterable[SweepRow] | Iterable[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    if isinstance(result, SweepResult):
        return tidy_rows(result)
    rows = list(result)
    if rows and isinstance(rows[0], SweepRow):
        return tidy_rows(rows)  # type: ignore[arg-type]
    return [dict(r) for r in rows]  # type: ignore[union-attr]


def sweep_table(
    result: SweepResult | Iterable[SweepRow] | Iterable[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> TextTable:
    """Render tidy rows (or a sweep result) as a paper-style text table."""
    rows = _as_tidy(result)
    cols = _columns(rows, columns)
    table = TextTable(cols, title=title)
    for row in rows:
        table.add_row([row.get(c) for c in cols])
    return table


def sweep_csv(
    result: SweepResult | Iterable[SweepRow] | Iterable[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
) -> str:
    """Render tidy rows (or a sweep result) as CSV text."""
    rows = _as_tidy(result)
    cols = _columns(rows, columns)
    return csv_text(cols, [[row.get(c) for c in cols] for row in rows])
