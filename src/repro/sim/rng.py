"""Deterministic random-stream management.

Every stochastic component (channel delays, discovery latency, churn, clock
schedules, topology generation) draws from its *own* ``numpy`` Generator,
derived from a single root seed via ``SeedSequence.spawn``.  This gives:

* reproducibility -- one integer seed pins the whole execution;
* isolation -- adding draws in one subsystem does not perturb another,
  so experiments stay comparable across code changes;
* independence -- spawned streams are statistically independent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngFactory"]


class RngFactory:
    """Spawns named, independent ``numpy.random.Generator`` streams.

    Streams are keyed by name: requesting the same name twice returns
    *different* spawned streams (each call consumes a child seed), so
    components should request their stream once and keep it.  The sequence
    of spawn calls is what determines the streams, hence construction order
    of components must be deterministic -- which it is, because the harness
    builds everything in a fixed order.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self.seed = seed

    def spawn(self, name: str = "") -> np.random.Generator:
        """Return a fresh independent Generator (``name`` is for debugging)."""
        (child,) = self._root.spawn(1)
        return np.random.Generator(np.random.PCG64(child))
