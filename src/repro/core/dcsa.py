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

Implementation interpretation (documented in DESIGN.md): ``L^v_u`` and
``Lmax_u`` are refreshed on *every* message receipt (required by Lemma 6.5),
while ``C^v_u`` is only (re)set when ``v`` (re-)enters ``Gamma_u``
(required by Lemma 6.10).

The algorithm itself lives in :class:`~repro.core.protocol.DCSACore`, a
sans-IO state machine that also runs in real time under :mod:`repro.live`;
:class:`DCSANode` is its simulation-driver shell (see
:class:`~repro.core.node.ClockSyncNode`), re-exporting the core's state
for tests and analysis code.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

import numpy as np

from ..params import SystemParams
from ..sim.clocks import HardwareClock
from ..sim.simulator import Simulator
from .estimates import NeighborTable
from .node import ClockSyncNode
from .protocol import DCSACore, ProtocolCore, Update

__all__ = ["DCSANode", "Update", "adjust_clocks_batch"]

#: Below this many cores the flattened-numpy AdjustClock path costs more in
#: array setup than it saves; the scalar loop is used instead.  Both paths
#: compute bit-identical results (see :func:`adjust_clocks_batch`).
_VECTOR_MIN = 48


def adjust_clocks_batch(cores: Sequence[DCSACore]) -> None:
    """Run ``AdjustClock`` on many cores at once, applying jumps directly.

    This is the vectorized core step of the batch kernel (see
    :mod:`repro.core.batch`): the per-row ``B``-function evaluation of
    :meth:`DCSACore._adjust_clock` is flattened across every core's Gamma
    table and evaluated with numpy, and the resulting jump -- normally a
    deferred :class:`~repro.core.protocol.JumpL` effect the driver applies
    via ``apply_jump`` -- is applied in place.

    **Parity contract.**  For each core this performs exactly the scalar
    arithmetic, in the scalar association order: ``b = intercept - slope *
    (h - added_h)`` is elementwise IEEE-754 (numpy evaluates the same two
    operations per element), ``max(b, b0)`` and ``l_est + b`` are
    elementwise, and the running ``min`` of the scalar loop is
    order-independent for floats (no NaNs here), so ``minimum.reduceat``
    yields the identical ceiling.  Results of the numpy path are cast back
    through ``float()`` so no ``np.float64`` leaks into payload tuples.
    Every core must share the caller-verified premise of the batch table:
    same ``params`` object (hence identical ``b0``/``intercept``/``slope``)
    and no pending jump.

    Callers must only use this outside driver effect dispatch (the batch
    kernel bypasses the effect list entirely); recording the jumps is the
    caller's responsibility -- at most one per core and call, so the batch
    tick phase reads them back as the change in ``L`` and writes one
    ``SPAN_JUMP`` row each when causal tracing is on.
    """
    n = len(cores)
    if n == 0:
        return
    c0 = cores[0]
    b0 = c0._b0
    intercept = c0._b_intercept
    slope = c0._b_slope
    counts: list[int] | None = None
    if n >= _VECTOR_MIN:
        counts = [len(core.gamma._rows) for core in cores]
    if counts is None or 0 in counts:
        # Small batches, and batches containing a core with an empty Gamma
        # (pre-discovery), take the reference scalar loop: below
        # ``_VECTOR_MIN`` the array setup costs more than it saves, and the
        # empty-table case is rare enough that splicing it out of the
        # flattened arrays is not worth the bookkeeping.
        for core in cores:
            ceiling = core._Lmax
            h = core.h_last
            for row in core.gamma.rows():
                b = intercept - slope * (h - row.added_h)
                if b < b0:
                    b = b0
                cand = row.l_est + b
                if cand < ceiling:
                    ceiling = cand
            if ceiling > core._L:
                core.total_jump += ceiling - core._L
                core.jumps += 1
                core._L = ceiling
        return
    # Flatten every Gamma row (list comprehensions beat append loops here);
    # the double attribute walk is cheaper than materialising pairs.
    flat_age = [
        core.h_last - row.added_h
        for core in cores
        for row in core.gamma._rows.values()
    ]
    flat_l = [
        row.l_est for core in cores for row in core.gamma._rows.values()
    ]
    b_arr = intercept - slope * np.asarray(flat_age)
    np.maximum(b_arr, b0, out=b_arr)
    cand_arr = np.asarray(flat_l)
    cand_arr += b_arr
    starts = np.empty(n, dtype=np.intp)
    starts[0] = 0
    np.cumsum(counts[:-1], out=starts[1:])
    # ``tolist`` converts to Python floats in one C pass (bit-identical to
    # a per-element ``float()`` cast).
    mins = np.minimum.reduceat(cand_arr, starts).tolist()
    for core, m in zip(cores, mins):
        ceiling = core._Lmax
        if m < ceiling:
            ceiling = m
        if ceiling > core._L:
            core.total_jump += ceiling - core._L
            core.jumps += 1
            core._L = ceiling


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
    def upsilon(self) -> set[int]:
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
