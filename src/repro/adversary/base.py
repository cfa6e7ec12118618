"""The adaptive adversary protocol.

The paper's bounds are worst-case over an *adversary* that jointly chooses
hardware clock rates (within ``[1 - rho, 1 + rho]``), message delays (within
``[0, T]``) and topology changes (subject only to T-interval connectivity).
The scripted and random churn processes in :mod:`repro.network.churn` sample
that space blindly; an :class:`Adversary` instead *observes* the running
execution and picks its next move to maximise skew -- turning the
reproduction into a stress harness for the gradient property.

The contract:

* :meth:`Adversary.install` is called by the harness runner **once, at
  ``t = 0``, after nodes are constructed but before any node has started**
  (so clocks may still be swapped and no timer is armed yet).  It receives
  the simulator, the dynamic graph and the node map -- the same omniscient
  view the paper's adversary has.
* Adaptive adversaries act through periodic callbacks scheduled at
  :data:`~repro.sim.events.PRIORITY_TOPOLOGY`, i.e. their moves take effect
  *before* message deliveries and node timers at the same timestamp,
  exactly like churn events.  :class:`PeriodicAdversary` packages that
  pattern: subclasses implement :meth:`PeriodicAdversary.observe_and_act`.

Adversaries never draw from global randomness: the constructor of an
entry of :data:`repro.harness.registry.ADVERSARY` receives a dedicated
spawned Generator, so adversarial runs are exactly reproducible (the
acceptance property the result store relies on).  A new adversary is one
entry of that table.
"""

from __future__ import annotations

from typing import Mapping

from ..core.node import ClockSyncNode
from ..network.graph import DynamicGraph
from ..sim.events import PRIORITY_TOPOLOGY
from ..sim.simulator import Simulator

__all__ = ["Adversary", "PeriodicAdversary", "CombinedAdversary"]


class Adversary:
    """Base class for simulator-coupled, state-observing adversaries."""

    def install(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, ClockSyncNode],
    ) -> None:
        """Couple this adversary to a wired, not-yet-started execution."""
        raise NotImplementedError

    @staticmethod
    def logical_snapshot(nodes: Mapping[int, ClockSyncNode]) -> dict[int, float]:
        """All current logical clocks ``{u: L_u(now)}`` (read-only)."""
        return {u: node.logical_clock() for u, node in nodes.items()}


class PeriodicAdversary(Adversary):
    """An adversary that observes and acts every ``period`` real time.

    Subclasses implement :meth:`observe_and_act`; the first action fires at
    ``period`` (not 0 -- at ``t = 0`` there is nothing to observe) and the
    callback re-arms itself until ``horizon``.  Callbacks run at
    :data:`~repro.sim.events.PRIORITY_TOPOLOGY`, before same-timestamp
    deliveries and timers.
    """

    def __init__(self, period: float, *, horizon: float | None = None) -> None:
        if period <= 0.0:
            raise ValueError(f"period must be positive; got {period!r}")
        self.period = float(period)
        self.horizon = None if horizon is None else float(horizon)
        self.sim: Simulator | None = None
        self.graph: DynamicGraph | None = None
        self.nodes: Mapping[int, ClockSyncNode] = {}
        #: Number of observe/act rounds executed (exposed for tests).
        self.rounds = 0

    def install(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, ClockSyncNode],
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.nodes = nodes
        self.on_install()

        def act() -> None:
            self.rounds += 1
            self.observe_and_act(sim.now)
            nxt = sim.now + self.period
            if self.horizon is None or nxt <= self.horizon:
                sim.schedule_at(nxt, act, priority=PRIORITY_TOPOLOGY, label="adversary")

        if self.horizon is None or self.period <= self.horizon:
            sim.schedule_at(
                self.period, act, priority=PRIORITY_TOPOLOGY, label="adversary"
            )

    def on_install(self) -> None:
        """Hook: one-time setup at ``t = 0`` (clocks, seed edges, ...)."""

    def observe_and_act(self, t: float) -> None:
        """Observe the execution state at ``t`` and play the next move."""
        raise NotImplementedError


class CombinedAdversary(Adversary):
    """Runs several adversaries against the same execution.

    The paper's adversary controls drift, delays and topology *jointly*;
    this composite installs each part in the given order (order matters only
    for same-timestamp tie-breaks, which follow scheduling order).
    """

    def __init__(self, parts: list[Adversary]) -> None:
        if not parts:
            raise ValueError("CombinedAdversary needs at least one part")
        self.parts = list(parts)

    def install(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, ClockSyncNode],
    ) -> None:
        for part in self.parts:
            part.install(sim, graph, nodes)
