"""Parallel experiment sweeps with a content-addressed result cache.

The sweep subsystem turns "loop over configs and rerun everything" into a
declarative, cached, parallel pipeline:

* :mod:`repro.sweep.spec` -- :class:`SweepSpec` plus the :func:`grid`,
  :func:`zip_` and :func:`seeds` combinators expand into concrete
  :class:`~repro.harness.runner.ExperimentConfig` lists;
* :mod:`repro.sweep.engine` -- :class:`SweepEngine` executes them on a
  process pool (or serially, bit-identically) with progress callbacks;
* :mod:`repro.sweep.store` -- :class:`ResultStore` caches summary metrics
  keyed by the SHA-256 of each config, so reruns and interrupted sweeps
  only pay for what changed;
* :mod:`repro.sweep.aggregate` -- tidy per-config rows, text tables, CSV.

Three lines run a cached parallel sweep::

    from repro.sweep import ResultStore, SweepEngine, SweepSpec, grid, seeds

    spec = SweepSpec("static_path", axes=[grid(n=[8, 16, 32]), seeds(4)])
    result = SweepEngine(processes=4, store=ResultStore(".sweep-cache")).run(spec)

The same sweeps are scriptable from the shell via ``python -m repro``.
"""

from .aggregate import DEFAULT_COORDS, sweep_csv, sweep_table, tidy_rows
from .engine import SweepEngine, SweepResult, SweepRow, summarize_run
from .spec import Axis, SweepSpec, grid, seeds, zip_
from .store import ResultStore, config_hash

__all__ = [
    "Axis",
    "DEFAULT_COORDS",
    "ResultStore",
    "SweepEngine",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "config_hash",
    "grid",
    "seeds",
    "summarize_run",
    "sweep_csv",
    "sweep_table",
    "tidy_rows",
    "zip_",
]
