"""Terminal rendering of flight-recorder frames (``repro top``).

Curses-free by design: one render is a plain fixed-width table
(:class:`~repro.analysis.report.TextTable`), and ``--follow`` mode just
clears the screen with an ANSI escape between renders -- which keeps the
same code path usable for the end-of-run ``--stats`` summary and for piping
into files.

Counters are displayed with a per-second rate computed against a *previous*
frame: the immediately preceding one in follow mode (instantaneous rate),
the stream's first frame in one-shot/stats mode (whole-run average).
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, TextIO

from ..analysis.report import TextTable
from .schema import FrameError, validate_frame

__all__ = ["follow_frames", "read_frames", "render_snapshot", "render_sweep_dir"]

#: ANSI: clear screen + home cursor (follow-mode repaint).
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def read_frames(path: str) -> list[dict[str, Any]]:
    """Load every frame of a JSONL metrics file (in stream order).

    Raises :class:`~repro.telemetry.schema.FrameError` on a malformed
    frame, ``ValueError`` on broken JSON.
    """
    frames: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                frame = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_frame(frame)
            except FrameError as exc:
                raise FrameError(f"{path}:{lineno}: {exc}") from exc
            frames.append(frame)
    return frames


def follow_frames(fh: TextIO) -> Iterator[dict[str, Any]]:
    """Yield whatever complete (validated) frames are currently readable from ``fh``.

    A trailing partial line (a frame mid-write) stays buffered in the file
    position for the next call, so tailing a live file never tears frames.
    If the file shrank below our position (truncate-in-place rotation, as
    done by log rotators and by a writer reopening with ``"w"``), the tail
    restarts from offset 0 instead of silently waiting forever.  A
    *complete* line that fails to parse as JSON -- the torn remainder a
    rotation race can leave mid-file when the writer truncates between our
    reads -- is skipped rather than raised, so the tail resumes at the
    next valid frame.
    """
    while True:
        pos = fh.tell()
        line = fh.readline()
        if not line:
            size = os.fstat(fh.fileno()).st_size
            if pos > size:
                fh.seek(0)
                continue
            return
        if not line.endswith("\n"):
            # Mid-write tail: rewind and wait for the writer to finish.
            fh.seek(pos)
            return
        if not line.strip():
            continue
        try:
            frame = json.loads(line)
        except json.JSONDecodeError:
            continue  # Torn frame from a rotation race: skip, resume after.
        validate_frame(frame)
        yield frame


def _rate(
    name: str, frame: dict[str, Any], prev: dict[str, Any] | None
) -> float | None:
    if prev is None:
        return None
    dt = float(frame["t_wall"]) - float(prev["t_wall"])
    if dt <= 0.0:
        return None
    before = prev["counters"].get(name)
    if before is None:
        before = 0
    rate = (float(frame["counters"][name]) - float(before)) / dt
    if rate < 0.0:
        # A counter can only go backwards if the stream is disordered (a
        # rotated file replayed out of order, or a writer restart) -- a
        # blank beats printing a nonsense negative rate.
        return None
    return rate


def _fmt_quantity(value: float | int | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{float(value):,.4g}"


def render_snapshot(
    frame: dict[str, Any],
    prev: dict[str, Any] | None = None,
    *,
    title: str | None = None,
) -> str:
    """Render one frame as a fixed-width metric table.

    ``prev`` supplies the baseline for counter rates (see module
    docstring); pass ``None`` to omit rates.
    """
    src = frame.get("source") or "run"
    head = title or (
        f"telemetry {src}: frame {frame['seq']} at t+{float(frame['t_wall']):.2f}s"
    )
    table = TextTable(["metric", "value", "per-sec"], title=head)
    rows: list[tuple[str, str, str]] = []
    for name in sorted(frame["counters"]):
        rate = _rate(name, frame, prev)
        rows.append(
            (
                name,
                _fmt_quantity(frame["counters"][name]),
                f"{rate:,.1f}" if rate is not None else "",
            )
        )
    for name in sorted(frame["gauges"]):
        rows.append((name, _fmt_quantity(frame["gauges"][name]), ""))
    for name in sorted(frame["histograms"]):
        h = frame["histograms"][name]
        mean = h["total"] / h["count"] if h["count"] else None
        detail = (
            f"n={h['count']} mean={mean:.3g} max={h['max']:.3g}"
            if mean is not None
            else f"n={h['count']}"
        )
        rows.append((name, detail, ""))
    for row in rows:
        table.add_row(row)
    lines = [table.render().rstrip("\n")]
    derived = _derived_lines(frame, prev)
    if derived:
        lines.append("")
        lines.extend(derived)
    return "\n".join(lines) + "\n"


def render_sweep_dir(path: str) -> str:
    """Render a ``sweep --metrics-dir`` directory as a per-point table.

    Each ``*.jsonl`` file under ``path`` holds the single end-of-run frame
    of one executed sweep point (cached points leave no file), named by
    the point's config-hash prefix.  ``t_wall`` in those frames is the
    point's elapsed wall time, so rates here are whole-run averages.
    """
    files = sorted(f for f in os.listdir(path) if f.endswith(".jsonl"))
    table = TextTable(
        ["point", "source", "events", "events/s", "sent", "delivered", "wall s"],
        title=(
            f"sweep telemetry {path} "
            f"({len(files)} point{'s' if len(files) != 1 else ''})"
        ),
    )
    for fname in files:
        frames = read_frames(os.path.join(path, fname))
        if not frames:
            continue
        frame = frames[-1]
        counters = frame["counters"]
        t_wall = float(frame["t_wall"])
        events = counters.get("kernel.events_dispatched")
        ev_rate = float(events) / t_wall if events is not None and t_wall > 0 else None
        table.add_row(
            (
                fname[: -len(".jsonl")],
                str(frame.get("source") or "run"),
                _fmt_quantity(events),
                f"{ev_rate:,.0f}" if ev_rate is not None else "",
                _fmt_quantity(counters.get("transport.sent")),
                _fmt_quantity(counters.get("transport.delivered")),
                f"{t_wall:.2f}",
            )
        )
    return table.render()


def _derived_lines(
    frame: dict[str, Any], prev: dict[str, Any] | None
) -> list[str]:
    """Cross-metric one-liners (pool hit rate, events/sec, delivery ratio)."""
    out: list[str] = []
    counters = frame["counters"]
    ev_rate = (
        _rate("kernel.events_dispatched", frame, prev)
        if "kernel.events_dispatched" in counters
        else None
    )
    if ev_rate is not None:
        out.append(f"events/sec: {ev_rate:,.0f}")
    pushes = counters.get("kernel.record_pushes")
    allocs = counters.get("kernel.record_allocations")
    if pushes and allocs is not None:
        out.append(
            f"event-pool hit rate: {1.0 - float(allocs) / float(pushes):.2%} "
            f"({_fmt_quantity(pushes)} pushes, {_fmt_quantity(allocs)} allocations)"
        )
    sent = counters.get("transport.sent")
    delivered = counters.get("transport.delivered")
    if sent and delivered is not None:
        out.append(
            f"delivery ratio: {float(delivered) / float(sent):.2%} "
            f"({_fmt_quantity(delivered)} of {_fmt_quantity(sent)})"
        )
    return out
