"""The indistinguishable executions alpha and beta of Lemma 4.2.

The Masking Lemma constructs two executions of the *same* algorithm on the
same static network:

* **alpha** -- all hardware clocks run at rate 1; message delays follow
  :class:`~repro.lowerbound.mask.AlphaDelayPolicy` (constrained edges carry
  ``P(e)``, unconstrained edges carry ``max_delay`` away from the reference
  node and ``0`` toward it).

* **beta** -- the hardware clock of a node at flexible distance ``d`` from
  the reference follows the closed form of Eq. (1),

  .. math:: H_x(t) = t + \\min\\{\\rho t,\\; \\mathcal{T} d\\},

  i.e. rate ``1 + rho`` until its layer's skew target ``T d`` is reached and
  rate 1 afterwards (:func:`beta_clock`).  Message delays are *disguised*
  so that every node observes the exact same subjective history as in
  alpha: a message sent at beta-time ``t`` on ``x -> y`` is delivered at

  .. math:: t_r^\\beta = H_y^{-1}\\bigl(H_x(t) + d_\\alpha(x\\to y)\\bigr)

  (:class:`BetaDelayPolicy`).  Part II of the lemma proves these delays are
  always legal (in ``[0, max_delay]``, and inside
  ``[P(e)/(1+rho), P(e)]`` on constrained edges); the property-based tests
  re-verify this numerically for random masks.

Because the subjective histories coincide, ``L^beta_w(t) =
L^alpha_w(H^beta_w(t))`` for every node ``w`` -- which
:func:`verify_indistinguishability` checks *empirically* against the real
algorithm implementation, making the proof's central device an executable
test.  In beta the reference node's clock stays at real time while a node at
flexible distance ``d`` ends up ``T d`` ahead, so in (at least) one of the
two executions the logical skew between the reference and that node is
``>= T d / 4`` (Lemma 4.2) -- measured by
:func:`repro.lowerbound.scenario.run_masking_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..network.channels import DelayPolicy
from ..params import SystemParams
from ..sim.clocks import HardwareClock, PiecewiseRateClock, perfect_clock
from .mask import AlphaDelayPolicy, DelayMask, flexible_distances

__all__ = [
    "beta_clock",
    "beta_clock_map",
    "BetaDelayPolicy",
    "ExecutionPair",
    "build_execution_pair",
]

Edge = tuple[int, int]


def beta_clock(rho: float, max_delay: float, flexible_distance: int) -> HardwareClock:
    """The beta hardware clock for a node at the given flexible distance.

    Realises ``H(t) = t + min(rho t, max_delay * d)`` exactly: rate
    ``1 + rho`` until ``t* = max_delay * d / rho``, rate 1 afterwards.
    Distance 0 (the reference node) yields a perfect clock.
    """
    if flexible_distance < 0:
        raise ValueError("flexible distance must be >= 0")
    if flexible_distance == 0:
        return perfect_clock()
    switch = max_delay * flexible_distance / rho
    return PiecewiseRateClock([0.0, switch], [1.0 + rho, 1.0])


def beta_clock_map(
    dists: Mapping[int, int], rho: float, max_delay: float
) -> dict[int, HardwareClock]:
    """Beta clocks for every node given its flexible distance."""
    return {x: beta_clock(rho, max_delay, d) for x, d in dists.items()}


class BetaDelayPolicy(DelayPolicy):
    """Disguised message delays of execution beta.

    For edges of the masked static network the delay reproduces alpha's
    subjective timing through the clock mapping (see module docstring).
    Edges *outside* the static set (e.g. the new edges injected by the
    Figure 1 scenario -- the paper chooses their beta delays arbitrarily)
    fall back to a constant ``fallback`` delay.
    """

    def __init__(
        self,
        alpha: AlphaDelayPolicy,
        clocks: Mapping[int, HardwareClock],
        *,
        fallback: float | None = None,
    ) -> None:
        self.alpha = alpha
        self.clocks = dict(clocks)
        self.fallback = (
            0.5 * alpha.mask.max_delay if fallback is None else float(fallback)
        )
        if not (0.0 <= self.fallback <= alpha.mask.max_delay):
            raise ValueError("fallback delay must lie in [0, max_delay]")

    def delay(self, u: int, v: int, t: float) -> float:
        if not self.alpha.has_direction(u, v):
            return self.fallback
        d_alpha = self.alpha.directed_delay(u, v)
        h_send = self.clocks[u].value(t)
        t_recv = self.clocks[v].time_at(h_send + d_alpha)
        delay = t_recv - t
        # Part II of Lemma 4.2 proves legality; numerical slack only.
        if delay < -1e-9 or delay > self.alpha.mask.max_delay + 1e-9:
            raise AssertionError(
                f"disguised delay {delay!r} illegal for ({u}->{v}) at t={t!r}"
            )
        return min(max(delay, 0.0), self.alpha.mask.max_delay)

    def max_bound(self) -> float:
        return self.alpha.mask.max_delay


@dataclass
class ExecutionPair:
    """The matched alpha/beta ingredients for a masked static network.

    Feed these to the harness (or the scenario module) to run the same
    algorithm under both executions.
    """

    mask: DelayMask
    reference: int
    dists: dict[int, int]
    alpha_policy: AlphaDelayPolicy
    beta_policy: BetaDelayPolicy
    alpha_clocks: dict[int, HardwareClock]
    beta_clocks: dict[int, HardwareClock]

    def skew_target(self, node: int) -> float:
        """The hardware skew beta builds between the reference and ``node``:
        ``max_delay * dist_M(reference, node)``."""
        return self.mask.max_delay * self.dists[node]

    def full_skew_time(self, node: int, rho: float) -> float:
        """Real time needed for beta to finish building that skew
        (``> T d (1 + 1/rho)`` per Lemma 4.2's premise)."""
        return self.skew_target(node) * (1.0 + 1.0 / rho)


def build_execution_pair(
    nodes: Sequence[int],
    edges: Sequence[Edge],
    mask: DelayMask,
    reference: int,
    params: SystemParams,
) -> ExecutionPair:
    """Construct matched alpha/beta clocks and delay policies.

    ``reference`` is the layering origin ``u`` of Lemma 4.2 (layer ``L_0``).
    """
    dists = flexible_distances(nodes, edges, mask, reference)
    missing = [x for x in nodes if x not in dists]
    if missing:
        raise ValueError(f"nodes unreachable from reference: {missing}")
    alpha_policy = AlphaDelayPolicy(mask, dists, edges)
    alpha_clocks: dict[int, HardwareClock] = {x: perfect_clock() for x in nodes}
    b_clocks = beta_clock_map(dists, params.rho, params.max_delay)
    beta_policy = BetaDelayPolicy(alpha_policy, b_clocks)
    return ExecutionPair(
        mask=mask,
        reference=reference,
        dists=dists,
        alpha_policy=alpha_policy,
        beta_policy=beta_policy,
        alpha_clocks=alpha_clocks,
        beta_clocks=b_clocks,
    )
