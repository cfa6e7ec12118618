"""The per-edge tolerance function ``B`` (Section 5).

``B`` maps the *subjective age* of an edge (how long ago, on the local
hardware clock, the neighbour entered Gamma) to the amount of perceived skew
the node tolerates on that edge before it refuses to raise its own logical
clock past the neighbour:

.. math::

   B(\\Delta t) = \\max\\Bigl\\{B_0,\\;
       5G(n) + (1+\\rho)\\tau + B_0
       - \\frac{B_0}{(1+\\rho)\\tau}\\,\\Delta t\\Bigr\\}

The intercept exceeds the global skew bound by design, so a brand-new edge
imposes *no effective constraint* -- its tolerance decays linearly (slope
:math:`B_0/((1+\\rho)\\tau)`) until it reaches the stable budget
:math:`B_0` after :math:`\\Theta(G(n)\\tau/B_0) = \\Theta(n/B_0)` subjective
time.  This linear-decay "weight" on new edges is the paper's central
mechanism (Section 7 calls it the weighted-graph approach).

:class:`BFunction` is a standalone value object so the lower-bound and
analysis code can evaluate envelopes without instantiating nodes; nodes
normally use :meth:`repro.params.SystemParams.b_function`, which matches
this class exactly (tested).
"""

from __future__ import annotations

import numpy as np

from ..params import SystemParams

__all__ = ["BFunction"]


class BFunction:
    """Concrete ``B`` with explicit coefficients.

    Attributes
    ----------
    b0:
        The floor (stable per-edge budget).
    intercept:
        ``B(0) = 5 G(n) + (1 + rho) tau + B0``.
    slope:
        Decay rate ``B0 / ((1 + rho) tau)`` per subjective time unit.
    """

    __slots__ = ("b0", "intercept", "slope")

    def __init__(self, b0: float, intercept: float, slope: float) -> None:
        if b0 <= 0.0:
            raise ValueError(f"b0 must be positive; got {b0!r}")
        if intercept < b0:
            raise ValueError(
                f"intercept {intercept!r} must be >= floor b0={b0!r}"
            )
        if slope <= 0.0:
            raise ValueError(f"slope must be positive; got {slope!r}")
        self.b0 = float(b0)
        self.intercept = float(intercept)
        self.slope = float(slope)

    @classmethod
    def from_params(cls, params: SystemParams) -> "BFunction":
        """Build the paper's ``B`` for the given parameters (validated)."""
        params.validate()
        return cls(params.b0, params.b_intercept, params.b_slope)

    def __call__(self, subjective_age: float) -> float:
        """Evaluate ``B`` at one subjective age (clamps below at ``b0``)."""
        if subjective_age < 0.0:
            raise ValueError(f"edge age must be >= 0; got {subjective_age!r}")
        return max(self.b0, self.intercept - self.slope * subjective_age)

    def evaluate(self, ages: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an array of subjective ages."""
        ages = np.asarray(ages, dtype=float)
        if np.any(ages < 0.0):
            raise ValueError("edge ages must be >= 0")
        return np.maximum(self.b0, self.intercept - self.slope * ages)

    @property
    def settle_age(self) -> float:
        """Subjective age at which ``B`` first equals ``b0``."""
        return (self.intercept - self.b0) / self.slope

    def __repr__(self) -> str:
        return (
            f"BFunction(b0={self.b0:.6g}, intercept={self.intercept:.6g}, "
            f"slope={self.slope:.6g})"
        )
