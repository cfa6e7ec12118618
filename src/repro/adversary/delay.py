"""Adaptive delay adversary: assign per-message delays that hide skew.

The shifting technique behind the paper's lower bounds (Lemma 4.2 here;
the reference-broadcast variant in Kuhn-Oshman, arXiv:0905.3454) hides
clock skew by delaying messages *from* ahead nodes by the full bound
:math:`\\mathcal{T}` and delivering messages *from* behind nodes instantly:
a receiver cannot distinguish "fast neighbour, maximally stale message"
from "slow neighbour, fresh message", so it under-corrects by up to
:math:`\\mathcal{T}` per hop.

:mod:`repro.lowerbound.mask` plays that trick with a delay pattern fixed
from a static flexible-distance layering (the one-shot Figure-1 scenario).
:class:`AdaptiveMaskingDelayPolicy` generalises it into a reusable online
policy: at every send it compares the *current* logical clocks of sender
and receiver -- the adversary is omniscient -- and picks the masking
extreme for that direction.  Under churn the layering implied by "who is
ahead of whom" shifts continuously, and the adaptive policy re-aims the
mask at each message, which a precomputed pattern cannot do.

The policy is deterministic (a pure function of simulator state), keeps
every delay inside ``[0, max_delay]``, and can be restricted to a masked
edge set (unmasked edges fall through to the run's configured policy).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.node import ClockSyncNode
from ..network.channels import DelayPolicy
from ..network.graph import DynamicGraph, edge_key
from ..sim.simulator import Simulator
from .base import Adversary

__all__ = ["AdaptiveMaskingDelayPolicy", "DelayAdversary"]

Edge = tuple[int, int]


class AdaptiveMaskingDelayPolicy(DelayPolicy):
    """Per-message masking delays computed from live node state."""

    def __init__(
        self,
        nodes: Mapping[int, ClockSyncNode],
        max_delay: float,
        *,
        edges: Iterable[Edge] | None = None,
        fallback: DelayPolicy | None = None,
    ) -> None:
        if max_delay < 0.0:
            raise ValueError(f"max_delay must be >= 0; got {max_delay!r}")
        self._nodes = nodes
        self.max_delay = float(max_delay)
        self._edges = None if edges is None else {edge_key(*e) for e in edges}
        self._fallback = fallback

    def masks(self, u: int, v: int) -> bool:
        """Whether messages on edge ``{u, v}`` are adversarially delayed."""
        return self._edges is None or edge_key(u, v) in self._edges

    def delay(self, u: int, v: int, t: float) -> float:
        if not self.masks(u, v):
            assert self._fallback is not None
            return self._fallback.delay(u, v, t)
        ahead = (
            self._nodes[u].logical_clock(t)
            >= self._nodes[v].logical_clock(t)
        )
        # Sender ahead: maximally stale (its lead looks smaller).  Sender
        # behind: instant (its deficit is advertised immediately, keeping
        # the receiver's B-constraint pinned to the laggard).
        return self.max_delay if ahead else 0.0


class DelayAdversary(Adversary):
    """Installs :class:`AdaptiveMaskingDelayPolicy` over the run's transport.

    Parameters
    ----------
    edges:
        Optional masked edge set; ``None`` masks every edge.  Messages on
        unmasked edges keep the delay policy the experiment was configured
        with.

    This adversary acts per message rather than per period, so it has no
    periodic callback: installing swaps the transport's delay policy (the
    original becomes the fallback for unmasked edges).
    """

    def __init__(self, *, edges: Iterable[Edge] | None = None) -> None:
        self.edges = None if edges is None else [edge_key(*e) for e in edges]
        self.policy: AdaptiveMaskingDelayPolicy | None = None

    def install(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, ClockSyncNode],
    ) -> None:
        if not nodes:
            raise ValueError("DelayAdversary needs at least one node")
        # Every node holds a reference to the one transport fabric.
        transport = nodes[min(nodes)].transport
        self.policy = AdaptiveMaskingDelayPolicy(
            nodes,
            transport.max_delay,
            edges=self.edges,
            fallback=transport.delay_policy,
        )
        transport.delay_policy = self.policy
