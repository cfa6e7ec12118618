"""Executable lower-bound machinery (Section 4 of the paper).

* :mod:`repro.lowerbound.mask` -- delay masks ``M = (E_C, P)`` and flexible
  distances (Definitions 4.1-4.3);
* :mod:`repro.lowerbound.executions` -- the indistinguishable alpha/beta
  execution pair of Lemma 4.2 (layered clock schedules, disguised delays);
* :mod:`repro.lowerbound.subsequence` -- Lemma 4.3;
* :mod:`repro.lowerbound.scenario` -- the orchestrated Masking-Lemma and
  Figure 1 / Theorem 4.1 experiments.
"""

from .executions import (
    BetaDelayPolicy,
    ExecutionPair,
    beta_clock,
    beta_clock_map,
    build_execution_pair,
)
from .mask import AlphaDelayPolicy, DelayMask, flexible_distances
from .scenario import (
    Figure1Result,
    MaskingResult,
    masked_experiment,
    run_figure1_experiment,
    run_masking_experiment,
    settle_age,
)
from .subsequence import select_subsequence

__all__ = [
    "AlphaDelayPolicy",
    "BetaDelayPolicy",
    "DelayMask",
    "ExecutionPair",
    "Figure1Result",
    "MaskingResult",
    "beta_clock",
    "beta_clock_map",
    "build_execution_pair",
    "flexible_distances",
    "masked_experiment",
    "run_figure1_experiment",
    "run_masking_experiment",
    "select_subsequence",
    "settle_age",
]
