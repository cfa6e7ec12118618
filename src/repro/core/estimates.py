"""Neighbour-estimate bookkeeping (the sets Gamma and the per-neighbour vars).

Algorithm 2 keeps, per node ``u``:

* ``Upsilon_u`` -- nodes ``u`` believes it has an edge to (owned by the node
  class as a plain set);
* ``Gamma_u subseteq Upsilon_u`` -- nodes heard from within the last
  ``Delta T'`` subjective units; **only these constrain the logical clock**;
* ``C^v_u`` -- ``u``'s hardware reading when ``v`` last *entered* Gamma
  (drives the edge-age argument of the ``B`` function);
* ``L^v_u`` -- ``u``'s running estimate of ``v``'s logical clock, advanced at
  ``u``'s hardware rate between messages and refreshed on every receipt
  (Lemma 6.5's contract).

A core's Gamma is a ``dict`` from neighbour id to its
:class:`NeighborEstimate`.  The estimates are lazy in the same sense as the
node's ``L``: the core advances every ``L^v_u`` by the elapsed subjective
time ``dh`` when it syncs.

A population the batch table runs (:mod:`repro.core.batch`) keeps Gamma
and Upsilon in the table's per-slot columns instead, where
``L^v_u = +inf`` *is* "``v`` not in Gamma" (the identity of AdjustClock's
``min``).
"""

from __future__ import annotations

__all__ = ["NeighborEstimate"]


class NeighborEstimate:
    """Per-tracked-neighbour state (one row of the Gamma table)."""

    __slots__ = ("added_h", "l_est")

    def __init__(self, added_h: float, l_est: float) -> None:
        #: Owner's hardware reading when the neighbour entered Gamma (C^v_u).
        self.added_h = added_h
        #: Estimate of the neighbour's logical clock (L^v_u), lazy.
        self.l_est = l_est

    def __repr__(self) -> str:
        return f"NeighborEstimate(added_h={self.added_h!r}, l_est={self.l_est!r})"
