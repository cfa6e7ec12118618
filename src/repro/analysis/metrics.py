"""Skew metrics computed from recorded runs.

All functions operate on :class:`~repro.analysis.recorder.RunRecord` (and,
where topology matters, the :class:`~repro.network.graph.DynamicGraph` the
run used).  They are deliberately pure so they can be unit-tested on
synthetic records.

The metric vocabulary follows the paper:

* **global skew** -- ``max_u L_u(t) - min_v L_v(t)`` (Definition 3.2);
* **local skew** -- ``|L_u(t) - L_v(t)|`` across *current* edges;
* **stable local skew** -- local skew restricted to edges older than the
  stabilization time (the ``t -> inf`` limit of Definition 3.4);
* **gradient profile** -- max skew between node pairs as a function of
  their hop distance, the "gradient" the problem is named after;
* **envelope violations** -- samples where an edge's skew exceeds the
  dynamic local skew function ``s(n, I, edge age)`` of Corollary 6.13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import skew_bounds
from ..network.graph import DynamicGraph
from ..params import SystemParams
from .recorder import EdgeEpisode, RunRecord

__all__ = [
    "global_skew_series",
    "max_global_skew",
    "max_local_skew",
    "stable_local_skew_measured",
    "gradient_profile",
    "envelope_violations",
    "EnvelopeCheck",
    "stabilization_age",
    "max_estimate_lag",
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


def stable_local_skew_measured(
    record: RunRecord, params: SystemParams, *, age_floor: float | None = None
) -> float:
    """Peak skew across edges older than ``age_floor``.

    ``age_floor`` defaults to the theory's stabilization time
    (:func:`repro.core.skew_bounds.stabilization_time`); the result is the
    measured counterpart of the stable local skew
    :math:`\\bar s(n) = B_0 + 2\\rho W`.
    """
    floor = (
        skew_bounds.stabilization_time(params) if age_floor is None else age_floor
    )
    best = 0.0
    for ep in record.episodes:
        mask = ep.ages >= floor
        if mask.any():
            best = max(best, float(ep.skews[mask].max()))
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


# ---------------------------------------------------------------------- #
# Envelope checking (Corollary 6.13)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of checking a run against the dynamic local skew envelope.

    ``worst_ratio`` is the max of ``skew / s(n, age)`` over all edge
    samples; a compliant algorithm keeps it at or below 1.  ``violations``
    counts samples strictly above the envelope beyond ``tolerance``.
    """

    samples_checked: int
    violations: int
    worst_ratio: float
    worst_edge: tuple[int, int] | None
    worst_age: float

    @property
    def compliant(self) -> bool:
        """Whether no sample exceeded the envelope."""
        return self.violations == 0


def envelope_violations(
    record: RunRecord,
    params: SystemParams,
    *,
    grace: float = 0.0,
) -> EnvelopeCheck:
    """Check every edge-episode sample against ``s(n, I, age)`` (Cor 6.13),
    with the oracle's slack of ``1e-9``.

    ``grace`` discounts the first ``grace`` time units of each episode
    (useful when comparing baselines that violate instantly -- the DCSA
    needs no grace).  The envelope is evaluated at the sample's edge age;
    the corollary's bound is independent of the initial skew ``I``.
    """
    checked = 0
    violations = 0
    worst_ratio = 0.0
    worst_edge: tuple[int, int] | None = None
    worst_age = 0.0
    for ep in record.episodes:
        for age, skew in zip(ep.ages, ep.skews):
            if age < grace:
                continue
            bound = skew_bounds.dynamic_local_skew(params, float(age))
            checked += 1
            ratio = skew / bound if bound > 0 else np.inf
            if ratio > worst_ratio:
                worst_ratio = float(ratio)
                worst_edge = (ep.u, ep.v)
                worst_age = float(age)
            if skew > bound + 1e-9:
                violations += 1
    return EnvelopeCheck(
        samples_checked=checked,
        violations=violations,
        worst_ratio=worst_ratio,
        worst_edge=worst_edge,
        worst_age=worst_age,
    )


# ---------------------------------------------------------------------- #
# Episode-level metrics
# ---------------------------------------------------------------------- #


def stabilization_age(
    episode: EdgeEpisode, threshold: float
) -> float | None:
    """First age after which the episode's skew stays ``<= threshold``.

    Returns ``None`` when the episode never settles (or has no samples).
    This is the measured counterpart of the adaptation time of
    Corollary 6.14 / the lower-bound time of Theorem 4.1.
    """
    if episode.skews.size == 0:
        return None
    above = episode.skews > threshold
    if not above.any():
        return float(episode.ages[0])
    last_above = int(np.nonzero(above)[0][-1])
    if last_above == len(episode.ages) - 1:
        return None  # still above threshold at the final sample
    return float(episode.ages[last_above + 1])


# ---------------------------------------------------------------------- #
# Max-estimate propagation (Lemma 6.8)
# ---------------------------------------------------------------------- #


def max_estimate_lag(record: RunRecord) -> np.ndarray:
    """Per-sample ``Lmax(t) - min_u Lmax_u(t)`` (requires tracked estimates).

    ``Lmax(t)`` is the largest estimate in the network, so this is exactly
    the quantity Lemma 6.8 bounds by ``((1+rho)T + 2 rho D)(n-1)``.
    """
    if record.max_estimates is None:
        raise ValueError("run was not recorded with track_max_estimates=True")
    est = record.max_estimates
    return est.max(axis=1) - est.min(axis=1)


# ---------------------------------------------------------------------- #
# Sanity metrics
# ---------------------------------------------------------------------- #
