"""The dynamic gradient clock synchronization algorithm (Algorithm 2).

This is the paper's primary contribution (Section 5): an event-based
algorithm in which every node ``u`` maintains

* a logical clock ``L_u`` that always advances at least at its hardware
  rate and may make non-negative discrete jumps;
* an estimate ``Lmax_u`` of the largest logical clock in the network;
* the believed-neighbour set ``Upsilon_u`` and the tracked set ``Gamma_u``
  with per-neighbour variables ``C^v_u`` (hardware time of Gamma entry) and
  ``L^v_u`` (running estimate of ``v``'s logical clock).

Nodes exchange ``<L_u, Lmax_u>`` updates every ``Delta H`` subjective time
with everyone in ``Upsilon_u``; a neighbour not heard from for
``Delta T'`` subjective time is evicted from ``Gamma_u`` (the ``lost``
timer).  After every event the node runs ``AdjustClock``:

.. code-block:: text

   L_u <- max{ L_u, min{ Lmax_u, min_{v in Gamma_u}( L^v_u + B(H_u - C^v_u) ) } }

i.e. chase the global maximum, but never run more than ``B(edge age)`` ahead
of any tracked neighbour's estimated clock.  Because ``B`` starts above the
global skew bound and decays to ``B_0`` (see
:mod:`repro.core.bfunction`), new edges impose their constraint *gradually*
-- the mechanism that yields the dynamic local skew guarantee (Theorem 6.12 /
Corollary 6.13) while keeping the global skew bounded (Theorem 6.9).

Implementation interpretation (same heading in docs/reproduction.md):
``L^v_u`` and ``Lmax_u`` are refreshed on *every* message receipt (required
by Lemma 6.5), while ``C^v_u`` is only (re)set when ``v`` (re-)enters
``Gamma_u`` (required by Lemma 6.10).

The algorithm itself lives in :class:`~repro.core.protocol.DCSACore`, a
sans-IO state machine that also runs in real time under :mod:`repro.live`;
:class:`DCSANode` is its simulation-driver shell (see
:class:`~repro.core.node.ClockSyncNode`), re-exporting the core's state
for tests and analysis code.
"""

from __future__ import annotations

from collections.abc import MutableSet
from typing import Any, ClassVar

from ..params import SystemParams
from ..sim.clocks import HardwareClock
from ..sim.simulator import Simulator
from .estimates import NeighborTable
from .node import ClockSyncNode
from .protocol import DCSACore, ProtocolCore, Update

__all__ = ["DCSANode", "Update"]


class DCSANode(ClockSyncNode):
    """A node running the paper's dynamic clock synchronization algorithm.

    Parameters are shared :class:`~repro.params.SystemParams`; the node uses
    ``tick_interval`` (:math:`\\Delta H`), ``delta_t_prime``
    (:math:`\\Delta T'`) and the ``B`` function coefficients.

    ``tick_stagger`` offsets the first tick (subjective units) so large
    experiments can avoid a fully synchronised message burst at ``t = 0``;
    the algorithm's guarantees do not depend on it.
    """

    core_class: ClassVar[type[ProtocolCore] | None] = DCSACore
    core: DCSACore

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        clock: HardwareClock,
        transport: Any,
        params: SystemParams,
        *,
        tick_stagger: float = 0.0,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            clock,
            transport,
            params,
            tick_stagger=tick_stagger,
        )

    # ------------------------------------------------------------------ #
    # Algorithm state, re-exported from the core
    # ------------------------------------------------------------------ #

    @property
    def upsilon(self) -> MutableSet[int]:
        """``Upsilon_u`` -- nodes ``u`` believes it shares an edge with."""
        return self.core.upsilon

    @property
    def gamma(self) -> NeighborTable:
        """``Gamma_u`` with ``C^v_u`` and ``L^v_u``."""
        return self.core.gamma

    def perceived_skew(self, v: int) -> float | None:
        """``L_u - L^v_u`` for a tracked neighbour (``None`` if untracked)."""
        return self.core.perceived_skew(v)

    def tolerance(self, v: int) -> float | None:
        """Current ``B(H_u - C^v_u)`` for a tracked neighbour."""
        return self.core.tolerance(v)

    def _adjust_clock(self) -> None:
        """Run ``AdjustClock`` outside an event (test helper)."""
        self.run_core_action(self.core._adjust_clock)
