"""Closed-form skew bounds and trade-offs proved in the paper.

The bounds the paper's experiments and the conformance oracle check have a
function here (the window ``W`` of Lemma 6.10 is ``SystemParams.w_window``);
the paper runner evaluates them side by side with measured skews, and the
property-based tests assert the algorithm never violates the upper bounds.

===========================  ==========================================
paper result                 function
===========================  ==========================================
Theorem 6.9 (global skew)    :func:`global_skew_bound`
Lemma 6.8 (max propagation)  :func:`max_propagation_bound`
Corollary 6.13 (dynamic)     :func:`dynamic_local_skew`
-- its limit                 :func:`stable_local_skew`
-- convergence time          :func:`stabilization_time`
Lemma 4.2 (masking)          :func:`masking_skew_floor`
Theorem 4.1 (lower bound)    :func:`lb_reduction_time`
===========================  ==========================================
"""

from __future__ import annotations

import math

import numpy as np

from ..params import SystemParams

__all__ = [
    "global_skew_bound",
    "max_propagation_bound",
    "dynamic_local_skew",
    "dynamic_local_skew_batch",
    "stable_local_skew",
    "stabilization_time",
    "masking_skew_floor",
    "lb_reduction_time",
]


# ---------------------------------------------------------------------- #
# Upper bounds (Section 6)
# ---------------------------------------------------------------------- #


def global_skew_bound(params: SystemParams, n: int | None = None) -> float:
    """Theorem 6.9: :math:`G(n) = ((1+\\rho)\\mathcal{T} + 2\\rho\\mathcal{D})(n-1)`.

    Holds in every execution whose dynamic graph is
    :math:`(\\mathcal{T}+\\mathcal{D})`-interval connected.
    """
    nn = params.n if n is None else n
    return params.global_skew_rate * (nn - 1)


def max_propagation_bound(params: SystemParams, n: int | None = None) -> float:
    """Lemma 6.8: bound on ``Lmax(t) - Lmax_u(t)`` under interval connectivity.

    Identical in value to :func:`global_skew_bound`; exposed separately
    because the max-propagation experiment measures estimate lag, not clock
    skew.
    """
    return global_skew_bound(params, n)


def dynamic_local_skew(params: SystemParams, edge_age_real: float) -> float:
    """Corollary 6.13: the dynamic local skew function ``s(n, I, Delta t)``.

    .. math::
       s(n, I, \\Delta t) = B\\bigl(\\max\\{(1-\\rho)(\\Delta t - \\Delta T
       - \\mathcal{D} - W),\\, 0\\}\\bigr) + 2\\rho W

    Notably **independent of the initial skew** ``I`` -- reducing a small
    initial skew takes as long as reducing a large one (the paper's second
    headline trade-off).  ``edge_age_real`` is how long the edge has existed.
    """
    if edge_age_real < 0.0:
        raise ValueError(f"edge age must be >= 0; got {edge_age_real!r}")
    w = params.w_window
    subjective = max(
        (1.0 - params.rho)
        * (edge_age_real - params.delta_t - params.discovery_bound - w),
        0.0,
    )
    return params.b_function(subjective) + 2.0 * params.rho * w


def dynamic_local_skew_batch(
    params: SystemParams, edge_ages_real: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`dynamic_local_skew` over an array of edge ages.

    Element-wise bit-identical to the scalar form (every arithmetic step is
    performed in the same order on the same IEEE doubles), which is what
    lets the streaming oracle's incremental envelope monitor check
    thousands of live edges per sample without a Python-level loop while
    agreeing exactly with the offline metrics.
    """
    ages = np.asarray(edge_ages_real, dtype=float)
    if ages.size and float(ages.min()) < 0.0:
        raise ValueError("edge ages must be >= 0")
    w = params.w_window
    subjective = np.maximum(
        (1.0 - params.rho)
        * (ages - params.delta_t - params.discovery_bound - w),
        0.0,
    )
    b = np.maximum(params.b0, params.b_intercept - params.b_slope * subjective)
    result: np.ndarray = b + 2.0 * params.rho * w
    return result


def stable_local_skew(params: SystemParams) -> float:
    """The limit :math:`\\bar s(n) = B_0 + 2\\rho W` of Corollary 6.13."""
    return params.b0 + 2.0 * params.rho * params.w_window


def stabilization_time(params: SystemParams) -> float:
    """Real edge age at which :func:`dynamic_local_skew` reaches its limit.

    Solves ``(1-rho)(dt - Delta T - D - W) = settle_age(B)``; total is
    ``Delta T + D + W + settle/(1-rho)`` = :math:`\\Theta(n/B_0)` for fixed
    model constants (Corollary 6.14's adaptation time).
    """
    return (
        params.delta_t
        + params.discovery_bound
        + params.w_window
        + params.b_settle_subjective / (1.0 - params.rho)
    )


# ---------------------------------------------------------------------- #
# The trade-off (Corollary 6.14)
# ---------------------------------------------------------------------- #


# ---------------------------------------------------------------------- #
# Lower bounds (Section 4)
# ---------------------------------------------------------------------- #


def masking_skew_floor(params: SystemParams, flexible_distance: int) -> float:
    """Lemma 4.2: adversary forces ``|L_u - L_v| >= T * dist_M(u, v) / 4``.

    Valid at any time ``t > T * dist_M * (1 + 1/rho)`` in one of the two
    indistinguishable executions alpha / beta.
    """
    if flexible_distance < 0:
        raise ValueError("flexible distance must be >= 0")
    return 0.25 * params.max_delay * flexible_distance


def lb_reduction_time(params: SystemParams, stable_skew: float | None = None) -> float:
    """Theorem 4.1's time scale :math:`\\lambda\\, n/\\bar s(n)`.

    From the proof, ``lambda = T^2 / (128 (1 + rho))`` and the argument of
    ``s`` is ``(T / (128 (1+rho))) * (n / s_bar) * T``: the time within
    which the dynamic local skew function must still retain a constant
    fraction of the initial skew.
    """
    s_bar = stable_local_skew(params) if stable_skew is None else stable_skew
    t = params.max_delay
    return (t * t / (128.0 * (1.0 + params.rho))) * (params.n / s_bar)
