"""Paper-style text tables and CSV export.

The benchmark harness prints its results as fixed-width text tables --
the same "rows" a paper table would carry (bound vs measured, ratios,
who-wins columns) -- and can dump CSV for downstream plotting.  No plotting
dependency is required or used.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Sequence

__all__ = ["TextTable", "format_value", "csv_text"]


def format_value(value: Any, floatfmt: str = ".3f") -> str:
    """Render one cell: floats via ``floatfmt``, None as '-', rest via str."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


class TextTable:
    """A fixed-width text table builder.

    >>> t = TextTable(["n", "G(n)", "measured"], title="Global skew")
    >>> t.add_row([8, 7.35, 0.56])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(
        self,
        headers: Sequence[str],
        *,
        title: str | None = None,
    ) -> None:
        self.headers = [str(h) for h in headers]
        self.title = title
        self.rows: list[list[str]] = []

    def add_row(self, cells: Iterable[Any]) -> None:
        """Append one row (formatted immediately)."""
        row = [format_value(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells; table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        """Render the table with aligned columns."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        out = io.StringIO()
        if self.title:
            out.write(f"== {self.title} ==\n")
        out.write(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        out.write("\n")
        out.write(sep)
        out.write("\n")
        for row in self.rows:
            out.write(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
            out.write("\n")
        return out.getvalue()


def csv_text(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Serialise rows as simple CSV text (no quoting; keep cells clean)."""
    buf = io.StringIO()
    buf.write(",".join(str(h) for h in headers))
    buf.write("\n")
    for row in rows:
        buf.write(",".join(format_value(c, ".10g") for c in row))
        buf.write("\n")
    return buf.getvalue()
