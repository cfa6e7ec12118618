"""repro -- Gradient Clock Synchronization in Dynamic Networks.

A from-scratch Python reproduction of Kuhn, Locher & Oshman, *Gradient Clock
Synchronization in Dynamic Networks* (SPAA 2009 / MIT-CSAIL-TR-2009-022):

* :mod:`repro.core` -- the dynamic gradient clock synchronization algorithm
  (Algorithm 2), the max-sync, static-gradient and free-running baselines
  it is compared against, and the paper's closed-form skew bounds;
* :mod:`repro.sim` -- a Timed-I/O-Automata-style discrete-event simulator
  with exact drifting hardware clocks;
* :mod:`repro.network` -- dynamic graphs, bounded-delay FIFO channels,
  discovery with latency :math:`\\mathcal{D}`, churn processes;
* :mod:`repro.lowerbound` -- the executable Section 4 constructions (delay
  masks, the alpha/beta executions of Lemma 4.2, the Figure 1 scenario);
* :mod:`repro.adversary` -- adaptive drift/delay/topology adversaries and
  the T-interval connectivity certifier that keeps them legal;
* :mod:`repro.analysis` -- skew recording, metrics and paper-style reports;
* :mod:`repro.oracle` -- streaming conformance oracle: the theorems
  checked online in O(n) memory;
* :mod:`repro.testing` -- the shared property-testing strategy library;
* :mod:`repro.harness` -- one-call experiment runner and canned configs;
* :mod:`repro.sweep` -- cached, parallel experiment sweeps (also via the
  ``python -m repro`` CLI, whose ``check`` subcommand runs any workload
  under full conformance monitoring).

Quickstart::

    from repro import SystemParams
    from repro.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig.ring(n=12, horizon=200.0, seed=1)
    result = run_experiment(cfg)
    print(result.summary())
"""

from ._version import __version__
from .params import ParameterError, SystemParams
from .core import BFunction, ClockSyncNode, skew_bounds

__all__ = [
    "BFunction",
    "ClockSyncNode",
    "ParameterError",
    "SystemParams",
    "__version__",
    "skew_bounds",
]
