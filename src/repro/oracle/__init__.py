"""Streaming conformance oracle: the paper's theorems checked *online*.

The offline invariant suite (``tests/test_invariants.py``) replays a full
:class:`~repro.analysis.recorder.RunRecord`, which costs O(samples x n)
memory and caps how long and how large a checked run can be.  This package
turns every simulation into a *self-checking execution*: a
:class:`StreamingOracle` samples the run periodically with O(n) state -- no
recorder required -- and a set of :class:`~repro.oracle.monitors.Monitor`
objects check the paper's guarantees sample by sample:

* strict clock progress at rate >= 1/2 (Section 3.3) --
  :class:`~repro.oracle.monitors.ProgressMonitor`;
* ``Lmax_u >= L_u`` (Property 6.3) --
  :class:`~repro.oracle.monitors.LmaxDominanceMonitor`;
* global skew <= G(n) (Theorem 6.9) --
  :class:`~repro.oracle.monitors.GlobalSkewMonitor`;
* max-estimate lag <= Lemma 6.8's bound --
  :class:`~repro.oracle.monitors.EstimateLagMonitor`;
* the per-edge dynamic envelope of Corollary 6.13 --
  :class:`~repro.oracle.monitors.EnvelopeMonitor`.

Violations surface as structured :class:`~repro.oracle.monitors.Violation`
records (monitor, time, nodes, bound, observed); the final
:class:`~repro.oracle.oracle.OracleReport` feeds the ``oracle_*`` sweep
metrics and the ``repro check`` CLI exit code.
"""

from .monitors import (
    MONITOR_FACTORIES,
    EnvelopeMonitor,
    EstimateLagMonitor,
    GlobalSkewMonitor,
    LmaxDominanceMonitor,
    Monitor,
    MonitorSummary,
    ProgressMonitor,
    Violation,
)
from .oracle import OracleError, OracleReport, StreamingOracle

__all__ = [
    "MONITOR_FACTORIES",
    "EnvelopeMonitor",
    "EstimateLagMonitor",
    "GlobalSkewMonitor",
    "LmaxDominanceMonitor",
    "Monitor",
    "MonitorSummary",
    "OracleError",
    "OracleReport",
    "ProgressMonitor",
    "StreamingOracle",
    "Violation",
]
