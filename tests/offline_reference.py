"""The offline reference for the oracle's theorem verdicts.

The streaming monitors (:mod:`repro.oracle.monitors`) are the one judge the
library has; these functions judge the same claims a second, independent
way -- a Python loop over the recorder's edge episodes and sampled columns
(:class:`~repro.analysis.recorder.RunRecord`) -- so the online/offline
agreement tests (``test_oracle_agreement.py``) and the invariant tests can
compare the two:

* :func:`envelope_violations` -- Corollary 6.13, every edge sample against
  the dynamic local skew envelope ``s(n, I, edge age)``;
* :func:`stable_local_skew_measured` -- Theorem 6.12's quantity, the peak
  skew over edges older than the stabilization time;
* :func:`max_estimate_lag` -- Lemma 6.8's quantity, the per-sample spread
  of the ``Lmax`` estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.recorder import RunRecord
from repro.core import skew_bounds
from repro.params import SystemParams


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


def max_estimate_lag(record: RunRecord) -> np.ndarray:
    """Per-sample ``Lmax(t) - min_u Lmax_u(t)`` (requires tracked estimates).

    ``Lmax(t)`` is the largest estimate in the network, so this is exactly
    the quantity Lemma 6.8 bounds by ``((1+rho)T + 2 rho D)(n-1)``.
    """
    if record.max_estimates is None:
        raise ValueError("run was not recorded with track_max_estimates=True")
    est = record.max_estimates
    return est.max(axis=1) - est.min(axis=1)
