"""Adaptive, simulator-coupled adversaries and connectivity certification.

The paper's model quantifies over an adversary choosing clock drifts,
message delays and topology changes jointly, constrained only by the drift
envelope, the delay bound and T-interval connectivity.  This package makes
that adversary executable and *adaptive* (it observes the running
execution), plus the certifier that keeps it honest:

* :class:`~repro.adversary.base.Adversary` /
  :class:`~repro.adversary.base.PeriodicAdversary` -- the protocol;
* :class:`~repro.adversary.drift.DriftAdversary` -- two-sided extremal
  rate steering within ``[1 - rho, 1 + rho]``;
* :class:`~repro.adversary.delay.DelayAdversary` -- adaptive skew-masking
  message delays in ``[0, T]`` (the shifting technique, online);
* :class:`~repro.adversary.topology.GreedyTopologyAdversary` -- greedy
  churn that removes the least-useful edge and inserts the worst legal one;
* :func:`~repro.adversary.connectivity.scan_interval_connectivity` --
  exact Definition-3.1 certification of any emitted schedule.

Configs reference adversaries through
:class:`~repro.harness.registry.AdversaryRef`, so adversarial workloads
serialize, cache and sweep like any other
(:mod:`repro.sweep`, ``python -m repro sweep``).
"""

from .base import Adversary, CombinedAdversary, PeriodicAdversary
from .connectivity import (
    CertificationReport,
    ConnectivityGuard,
    WindowViolation,
    scan_interval_connectivity,
)
from .delay import AdaptiveMaskingDelayPolicy, DelayAdversary
from .drift import DriftAdversary
from .topology import GreedyTopologyAdversary

__all__ = [
    "AdaptiveMaskingDelayPolicy",
    "Adversary",
    "CertificationReport",
    "CombinedAdversary",
    "ConnectivityGuard",
    "DelayAdversary",
    "DriftAdversary",
    "GreedyTopologyAdversary",
    "PeriodicAdversary",
    "WindowViolation",
    "scan_interval_connectivity",
]
