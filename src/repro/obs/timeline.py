"""Ring-buffered skew-timeline capture (the observatory's data plane).

The paper's subject is how the skew *field* evolves -- the gradient
property is a statement about per-edge skew over time under churn -- yet
monitors and telemetry only keep aggregates.  :class:`TimelineRecorder`
records the trajectory itself: at every oracle sample
(:meth:`~repro.oracle.oracle.StreamingOracle.sample` forwards its
already-computed clock/estimate columns, so capture adds zero extra node
reads) it appends one row of

* global skew (``max L - min L``) and the ``Lmax`` spread ceiling,
* the worst live-edge local skew against the Corollary 6.13 dynamic
  envelope (:class:`~repro.oracle.monitors.EnvelopeMonitor`'s pass over
  its live-edge table at this sample; blank without that monitor),
* a decimated per-node skew field (``L - min L`` at a deterministic
  subset of node ids when ``n`` exceeds the field budget),
* the cumulative oracle violation count (violation markers are derived
  from its increments),

plus a capped side list of topology events.

Like telemetry (PR 6) and tracing (PR 7), the timeline is **ambient, not
config**: :class:`~repro.harness.runner.ExperimentConfig` is the sweep
cache's content address and a pure observer must not change it, so the
CLI's ``--bundle`` flag calls :func:`activate_timeline` and the oracle
picks the recorder up via :func:`active_timeline` at attach time.  The
hooks draw no RNG and schedule nothing -- the neutrality tests pin golden
workloads bit-identical with capture on -- and the storage is preallocated
numpy rows with deterministic stride-doubling decimation above the row
budget, so memory stays bounded on arbitrarily long runs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..oracle.monitors import EnvelopePass

__all__ = [
    "TIMELINE_VERSION",
    "TimelineRecorder",
    "activate_timeline",
    "active_timeline",
    "deactivate_timeline",
    "timeline_session",
]

#: Schema version stamped into :meth:`TimelineRecorder.to_dict`.
TIMELINE_VERSION = 1

#: Default row budget: decimation doubles the sampling stride above this.
DEFAULT_ROW_BUDGET = 1024

#: Default skew-field width: above this many nodes the field is recorded
#: at a deterministic ``linspace`` subset of the sorted node ids.
DEFAULT_FIELD_BUDGET = 128

#: Default cap on stored topology events (further events are counted).
DEFAULT_EVENT_BUDGET = 2048

#: Scalar row columns, in storage order.
_COLUMNS = (
    "t",
    "global_skew",
    "lmax_spread",
    "local_skew",
    "envelope_bound",
    "envelope_margin",
    "violations",
)


def _jsonify_column(values: npt.NDArray[np.float64]) -> list[float | None]:
    """NaN-free JSON form (``NaN`` is not valid JSON; JS must parse this)."""
    return [None if math.isnan(x) else float(x) for x in values.tolist()]


class TimelineRecorder:
    """Accumulate one run's skew timeline in bounded memory.

    The recorder is reusable across runs: :meth:`bind` (called by the
    oracle at attach time) resets all captured state, so under a sweep or
    a ``--fuzz`` loop the *last bound run* wins -- bundle assembly happens
    per run, immediately after it, so nothing is lost.
    """

    def __init__(
        self,
        *,
        row_budget: int = DEFAULT_ROW_BUDGET,
        field_budget: int = DEFAULT_FIELD_BUDGET,
        event_budget: int = DEFAULT_EVENT_BUDGET,
    ) -> None:
        if row_budget < 4:
            raise ValueError(f"row_budget must be >= 4; got {row_budget!r}")
        if row_budget % 2:
            raise ValueError(f"row_budget must be even; got {row_budget!r}")
        if field_budget < 1:
            raise ValueError(f"field_budget must be >= 1; got {field_budget!r}")
        self.row_budget = int(row_budget)
        self.field_budget = int(field_budget)
        self.event_budget = int(event_budget)
        self._bound = False
        self._node_ids: list[int] = []
        self._field_sel: npt.NDArray[np.intp] = np.empty(0, dtype=np.intp)
        self._rows: npt.NDArray[np.float64] = np.empty(
            (self.row_budget, len(_COLUMNS)), dtype=np.float64
        )
        self._field: npt.NDArray[np.float64] = np.empty((0, 0), dtype=np.float64)
        self._count = 0
        #: Every stride-th oracle sample is recorded (doubles on overflow).
        self.stride = 1
        self._tick = 0
        self.events: list[tuple[float, int, int, int]] = []
        self.events_dropped = 0

    # ------------------------------------------------------------------ #
    # Wiring (called by StreamingOracle)
    # ------------------------------------------------------------------ #

    def bind(self, node_ids: list[int]) -> None:
        """Attach run context and reset all captured state (last run wins)."""
        self._bound = True
        self._node_ids = list(node_ids)
        n = len(self._node_ids)
        if n > self.field_budget:
            self._field_sel = np.unique(
                np.linspace(0, n - 1, self.field_budget).round().astype(np.intp)
            )
        else:
            self._field_sel = np.arange(n, dtype=np.intp)
        self._field = np.empty(
            (self.row_budget, len(self._field_sel)), dtype=np.float64
        )
        self._count = 0
        self.stride = 1
        self._tick = 0
        self.events = []
        self.events_dropped = 0

    @property
    def bound(self) -> bool:
        """Whether an oracle has bound run context yet."""
        return self._bound

    @property
    def rows(self) -> int:
        """Recorded (post-decimation) row count."""
        return self._count

    # ------------------------------------------------------------------ #
    # Capture hooks (oracle cadence; no RNG, nothing scheduled)
    # ------------------------------------------------------------------ #

    def edge_event(self, time: float, u: int, v: int, added: bool) -> None:
        """Log one topology mutation (same key convention as monitors)."""
        key = (u, v) if u <= v else (v, u)
        if len(self.events) < self.event_budget:
            self.events.append((time, key[0], key[1], 1 if added else 0))
        else:
            self.events_dropped += 1

    def seed_edges(self, edges: list[tuple[int, int]]) -> None:
        """:meth:`edge_event` of an add at ``t = 0`` per edge, in one pass."""
        room = max(self.event_budget - len(self.events), 0)
        self.events.extend(
            (0.0, min(u, v), max(u, v), 1) for u, v in edges[:room]
        )
        self.events_dropped += max(len(edges) - room, 0)

    def _decimate(self) -> None:
        """Halve resolution: keep every 2nd row, double the stride."""
        keep = self.row_budget // 2
        self._rows[:keep] = self._rows[0 : self.row_budget : 2]
        self._field[:keep] = self._field[0 : self.row_budget : 2]
        self._count = keep
        self.stride *= 2

    def record(
        self,
        t: float,
        clocks: npt.NDArray[np.float64],
        estimates: npt.NDArray[np.float64] | None,
        *,
        violations: int = 0,
        envelope: EnvelopePass | None = None,
    ) -> None:
        """Append one sample row (called by the oracle after its monitors).

        ``clocks``/``estimates`` are the oracle's already-computed dense
        columns in sorted-node-id order; ``violations`` is the cumulative
        oracle violation count at this sample; ``envelope`` is the
        envelope monitor's pass over the live edges at this sample
        (``None``: no such monitor, or no live edge).
        """
        tick = self._tick
        self._tick = tick + 1
        if tick % self.stride:
            return
        if self._count == self.row_budget:
            self._decimate()
            if tick % self.stride:
                return
        lo = float(clocks.min())
        hi = float(clocks.max())
        if estimates is not None and len(estimates):
            lmax_spread = float(estimates.max()) - float(estimates.min())
        else:
            lmax_spread = math.nan
        local = math.nan
        bound = math.nan
        margin = math.nan
        if envelope is not None:
            observed, bounds, margins, k = envelope
            local = float(observed.max())
            bound = float(bounds[k])
            margin = float(margins[k])
        row = self._rows[self._count]
        row[0] = t
        row[1] = hi - lo
        row[2] = lmax_spread
        row[3] = local
        row[4] = bound
        row[5] = margin
        row[6] = float(violations)
        self._field[self._count] = clocks[self._field_sel] - lo
        self._count += 1

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON-safe form (embedded into run bundles)."""
        count = self._count
        columns = {
            name: _jsonify_column(self._rows[:count, j])
            for j, name in enumerate(_COLUMNS)
        }
        field_nodes = [self._node_ids[int(i)] for i in self._field_sel]
        return {
            "v": TIMELINE_VERSION,
            "rows": count,
            "stride": self.stride,
            "sample_ticks": self._tick,
            "field_nodes": field_nodes,
            "columns": columns,
            "field": [
                [float(x) for x in self._field[i].tolist()] for i in range(count)
            ],
            "events": [list(e) for e in self.events],
            "events_dropped": self.events_dropped,
        }


# --------------------------------------------------------------------- #
# Ambient activation (mirrors repro.tracing.context)
# --------------------------------------------------------------------- #

_ACTIVE: TimelineRecorder | None = None


def activate_timeline(
    *,
    row_budget: int = DEFAULT_ROW_BUDGET,
    field_budget: int = DEFAULT_FIELD_BUDGET,
    event_budget: int = DEFAULT_EVENT_BUDGET,
) -> TimelineRecorder:
    """Install a fresh ambient recorder; oracles pick it up at attach time."""
    global _ACTIVE
    _ACTIVE = TimelineRecorder(
        row_budget=row_budget,
        field_budget=field_budget,
        event_budget=event_budget,
    )
    return _ACTIVE


def deactivate_timeline() -> None:
    """Drop the ambient recorder (subsequent runs capture nothing)."""
    global _ACTIVE
    _ACTIVE = None


def active_timeline() -> TimelineRecorder | None:
    """The ambient recorder, or ``None`` when capture is off."""
    return _ACTIVE


@contextmanager
def timeline_session(
    *,
    row_budget: int = DEFAULT_ROW_BUDGET,
    field_budget: int = DEFAULT_FIELD_BUDGET,
    event_budget: int = DEFAULT_EVENT_BUDGET,
) -> Iterator[TimelineRecorder]:
    """Scoped activation: ``with timeline_session() as tl: run_experiment(...)``."""
    recorder = activate_timeline(
        row_budget=row_budget,
        field_budget=field_budget,
        event_budget=event_budget,
    )
    try:
        yield recorder
    finally:
        deactivate_timeline()
