"""Wall-clock hardware clocks with configurable artificial drift.

In the live runtime (:mod:`repro.live.runtime`) there is no virtual time:
``t`` is real elapsed seconds since the session epoch (a shared
``time.monotonic`` origin).  Each node's *hardware clock* is modelled as a
constant-rate scaling of that shared monotonic time,

.. code-block:: text

   H_u(t) = rate_u * t,        rate_u in [1 - rho, 1 + rho]

which realises the paper's drift model (Section 3.3) on real hardware: the
runtime injects *artificial* per-node drift so that an 8-node laptop
session exhibits the same rate asymmetries a real deployment of
independent oscillators would, at a magnitude of the operator's choosing.
Constant rates keep both the forward map and the subjective-delay inverse
exact -- the live analogue of :class:`repro.sim.clocks.ConstantRateClock`.

The rates are a config's ``clock_spec`` drawn through its entry of
:data:`repro.harness.registry.CLOCK`, the rate column a simulated run
draws (:func:`repro.live.driver.build_live_runtime`); ``random_walk``
draws as ``uniform``, its stationary constant-rate analogue.
"""

from __future__ import annotations

__all__ = ["LiveClock"]


class LiveClock:
    """A drifted view of the shared session clock (``H(t) = rate * t``)."""

    __slots__ = ("rate",)

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0.0:
            raise ValueError(f"clock rate must be positive; got {rate!r}")
        self.rate = float(rate)

    def h_at(self, t: float) -> float:
        """Hardware reading at session time ``t`` (seconds since epoch)."""
        return self.rate * t

    def real_delay(self, delta_h: float) -> float:
        """Real seconds until the hardware clock advances by ``delta_h``."""
        return delta_h / self.rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LiveClock(rate={self.rate!r})"

