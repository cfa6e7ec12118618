"""Adaptive drift adversary: steer hardware rates to widen logical skew.

The lower-bound constructions of the paper (Lemma 4.2 and Theorem 4.1) run
clocks at the *edges* of the drift envelope -- a two-sided extremal schedule
in which nodes that should get ahead run at ``1 + rho`` and nodes that
should fall behind run at ``1 - rho``.  Those schedules are fixed in
advance; :class:`DriftAdversary` makes the same move *adaptively*: every
``period`` it ranks nodes by their current logical clocks and pins the
leading half to the fast edge and the trailing half to the slow edge of the
envelope, continuously re-widening whatever gap the algorithm has failed to
close.

Mechanics: at install (``t = 0``, before nodes start) every node's hardware
clock is replaced with a :class:`~repro.sim.clocks.SteerableClock` bound to
the same ``rho`` envelope, which is exactly the freedom the model grants
the adversary (Section 3.3).  Replacing the clock at ``t = 0`` is lossless:
both old and new clocks satisfy ``H(0) = 0`` and no lazy node state or
timer exists yet.

One approximation is inherited from the event kernel: a subjective timer
armed *before* a rate change fires at the real time computed under the old
rate, so its subjective error is bounded by ``2 rho`` per unit of remaining
wait (at most ``2 rho * max(tick_interval, delta_t_prime)``, i.e. well
under 1% of the interval for realistic ``rho``).  The error only jitters
*when* nodes act, never corrupts clock values -- every read re-derives
``H(t)`` from the true schedule -- and it is the same slack a real
oscillator has between arming and firing a hardware timer.
"""

from __future__ import annotations

from ..sim.clocks import SteerableClock
from .base import PeriodicAdversary

__all__ = ["DriftAdversary"]


class DriftAdversary(PeriodicAdversary):
    """Steers each node's rate within ``[1 - rho, 1 + rho]`` adaptively.

    Parameters
    ----------
    rho:
        The drift envelope (use ``params.rho``; the runner's
        drift check holds by construction).
    period:
        Real time between re-ranking rounds.
    strength:
        Fraction of the envelope actually used, in ``[0, 1]`` -- the
        sweepable "adversary strength" knob.  ``1.0`` pins rates to the
        envelope edges; ``0.0`` degenerates to perfect clocks.
    horizon:
        Stop acting after this time (``None`` = forever).
    """

    def __init__(
        self,
        rho: float,
        period: float,
        *,
        strength: float = 1.0,
        horizon: float | None = None,
    ) -> None:
        super().__init__(period, horizon=horizon)
        if rho < 0.0:
            raise ValueError(f"rho must be >= 0; got {rho!r}")
        if not (0.0 <= strength <= 1.0):
            raise ValueError(f"strength must be in [0, 1]; got {strength!r}")
        self.rho = float(rho)
        self.strength = float(strength)
        self._clocks: dict[int, SteerableClock] = {}

    def on_install(self) -> None:
        if self.sim is None or self.sim.now != 0.0:
            raise RuntimeError("DriftAdversary must be installed at t = 0")
        for u, node in self.nodes.items():
            clock = SteerableClock(1.0, rho=self.rho)
            node.clock = clock
            self._clocks[u] = clock

    def observe_and_act(self, t: float) -> None:
        clocks = self.logical_snapshot(self.nodes)
        order = sorted(clocks, key=lambda u: (clocks[u], u))
        half = len(order) // 2
        fast = 1.0 + self.strength * self.rho
        slow = 1.0 - self.strength * self.rho
        for rank, u in enumerate(order):
            # Trailing half runs slow, leading half fast: the two-sided
            # extremal schedule, re-targeted at the current leaders.
            self._clocks[u].set_rate(t, slow if rank < half else fast)
