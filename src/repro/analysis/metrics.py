"""Skew metrics computed from recorded runs.

All functions operate on :class:`~repro.analysis.recorder.RunRecord` (and,
where topology matters, the :class:`~repro.network.graph.DynamicGraph` the
run used).  They are deliberately pure so they can be unit-tested on
synthetic records.

The metric vocabulary follows the paper:

* **global skew** -- ``max_u L_u(t) - min_v L_v(t)`` (Definition 3.2);
* **local skew** -- ``|L_u(t) - L_v(t)|`` across *current* edges;
* **gradient profile** -- max skew between node pairs as a function of
  their hop distance, the "gradient" the problem is named after.

These are readings of the recorded history, not verdicts: the theorems
(the envelope of Corollary 6.13, the stable-edge skew of Theorem 6.12, the
estimate lag of Lemma 6.8, ...) are judged by the streaming oracle's
monitors, :mod:`repro.oracle.monitors`.
"""

from __future__ import annotations

import numpy as np

from ..network.graph import DynamicGraph
from .recorder import RunRecord

__all__ = [
    "global_skew_series",
    "max_global_skew",
    "max_local_skew",
    "gradient_profile",
]


# ---------------------------------------------------------------------- #
# Global skew
# ---------------------------------------------------------------------- #


def global_skew_series(record: RunRecord) -> np.ndarray:
    """Per-sample global skew ``max - min`` over all logical clocks."""
    if record.samples == 0:
        return np.empty(0)
    return record.clocks.max(axis=1) - record.clocks.min(axis=1)


def max_global_skew(record: RunRecord) -> float:
    """Peak global skew over the whole run (0.0 for empty records)."""
    series = global_skew_series(record)
    return float(series.max()) if series.size else 0.0


# ---------------------------------------------------------------------- #
# Local skew
# ---------------------------------------------------------------------- #


def max_local_skew(record: RunRecord) -> float:
    """Peak skew across any live edge at any sample."""
    best = 0.0
    for ep in record.episodes:
        if ep.skews.size:
            best = max(best, float(ep.skews.max()))
    return best


# ---------------------------------------------------------------------- #
# Gradient profile
# ---------------------------------------------------------------------- #


def gradient_profile(
    record: RunRecord, graph: DynamicGraph, t: float
) -> dict[int, float]:
    """Maximum skew between node pairs at each hop distance, at time ``t``.

    Distances are computed in the graph snapshot ``E(t)``.  Returns
    ``{distance: max |L_u - L_v|}`` for every realised distance; pairs
    disconnected at ``t`` are skipped.  This is the skew-vs-distance
    "gradient" curve; gradient algorithms keep it growing (sub)linearly with
    a small slope at distance 1.
    """
    i = int(np.argmin(np.abs(record.times - t)))
    clocks = record.clocks[i]
    index = {nid: k for k, nid in enumerate(record.node_ids)}
    profile: dict[int, float] = {}
    for src_pos, src in enumerate(record.node_ids):
        dist = graph.distances_from(src, t)
        for other, d in dist.items():
            if d == 0 or index[other] <= src_pos:
                continue
            skew = abs(float(clocks[src_pos] - clocks[index[other]]))
            if skew > profile.get(d, 0.0):
                profile[d] = skew
    return profile
