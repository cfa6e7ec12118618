"""Greedy topology adversary: rewire edges to maximise local skew.

The dynamic local skew guarantee (Corollary 6.13) is about exactly this
attack: a *new* edge may join two nodes whose clocks disagree by up to the
global skew bound, and the algorithm is only required to shrink that skew
gradually.  :class:`~repro.network.churn.RandomRewirer` samples such edges
blindly; :class:`GreedyTopologyAdversary` picks them:

* **remove** the extra edge whose endpoints' logical clocks disagree
  *least* -- the edge doing the least work for the adversary (its
  B-constraint binds nobody), freeing the budget;
* **insert** the absent edge whose endpoints disagree *most* -- the worst
  legal new edge, instantly re-exposing the largest skew the network holds
  as *local* skew.

A persistent worst edge is self-defeating: one delivered message over it
lets the lagging endpoint adopt the leader's ``Lmax`` and the gap collapses
(for realistic parameters ``B_0`` far exceeds attainable skews, so the
B-constraint never blocks the jump), after which the adversary has
*synchronised* the extremes it meant to stress.  The ``hold`` knob is the
adaptive counter-move: an inserted edge is retracted after ``hold`` real
time -- long enough to exist at recorder samples (local skew per
Definition 3.4 counts any edge present at ``t``), short enough that
usually no ``Lmax`` crosses before retraction (discovery plus one message
delay typically exceeds a small ``hold``).  Transient edges the endpoints
may not even detect are explicitly within the model (Section 3.2), and the
dynamic local skew envelope of Corollary 6.13 permits skew up to
``B(0) > G(n)`` on a fresh edge, so the attack probes exactly the regime
the gradient property leaves open.

Every removal is submitted to a
:class:`~repro.adversary.connectivity.ConnectivityGuard`; moves the guard
refuses (protected backbone, snapshot or trailing-window disconnection) are
skipped, so emitted schedules stay certifiably T-interval connected --
the adversary is strong but *legal*, as Definition 3.1 requires.
"""

from __future__ import annotations

from ..sim.events import PRIORITY_TOPOLOGY
from ..network.graph import edge_key
from .base import PeriodicAdversary
from .connectivity import ConnectivityGuard

__all__ = ["GreedyTopologyAdversary"]

Edge = tuple[int, int]


class GreedyTopologyAdversary(PeriodicAdversary):
    """Maintains ``k_extra`` adversarially chosen extra edges.

    Parameters
    ----------
    n:
        Number of nodes (candidate pairs are all ``{u, v}``, ``u < v``).
    k_extra:
        Extra-edge budget (the protected set is never counted or touched).
    period:
        Real time between greedy rewiring rounds.
    protected:
        Edges never removed (typically the initial spanning backbone).
    interval:
        T-interval connectivity target handed to the guard (``None`` =
        snapshot connectivity only, sufficient when ``protected`` spans).
    hold:
        Retract each inserted edge this long after insertion (the
        expose-and-retract attack; see module docstring).  ``None`` keeps
        extras until the per-window remove-least rule recycles them.
    horizon:
        Stop rewiring after this time.
    """

    def __init__(
        self,
        n: int,
        k_extra: int,
        period: float,
        *,
        protected: list[Edge] | tuple[Edge, ...] = (),
        interval: float | None = None,
        hold: float | None = None,
        horizon: float | None = None,
    ) -> None:
        super().__init__(period, horizon=horizon)
        if n < 2:
            raise ValueError(f"need n >= 2; got {n!r}")
        if k_extra < 1:
            raise ValueError(f"k_extra must be >= 1; got {k_extra!r}")
        if hold is not None and hold <= 0.0:
            raise ValueError(f"hold must be positive; got {hold!r}")
        self.n = int(n)
        self.k_extra = int(k_extra)
        self.protected = {edge_key(*e) for e in protected}
        self.interval = interval
        self.hold = None if hold is None else float(hold)
        self.guard: ConnectivityGuard | None = None
        self._extras: set[Edge] = set()
        #: Rewiring moves actually committed (exposed for tests).
        self.moves = 0

    # ------------------------------------------------------------------ #
    # Candidate scoring
    # ------------------------------------------------------------------ #

    def _gap(self, clocks: dict[int, float], e: Edge) -> float:
        return abs(clocks[e[0]] - clocks[e[1]])

    def _changed_at(self, e: Edge, t: float) -> bool:
        """Whether edge ``e`` already has an event at instant ``t``.

        The model forbids removing and re-adding an edge at the same
        instant, so a candidate retracted at ``t`` (e.g. by a ``hold``
        expiry that shares a timestamp with this round) is not insertable.
        """
        assert self.graph is not None
        history = self.graph.history(*e)
        return bool(history) and history[-1][0] == t

    def _best_insertion(
        self, clocks: dict[int, float], t: float, exclude: Edge | None
    ) -> Edge | None:
        """Absent, unprotected pair with the largest clock gap.

        ``exclude`` is the edge removed at this same instant by this round.
        """
        assert self.graph is not None
        best: Edge | None = None
        best_gap = -1.0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                e = (u, v)
                if (
                    e in self.protected
                    or e == exclude
                    or self.graph.has_edge(u, v)
                    or self._changed_at(e, t)
                ):
                    continue
                gap = self._gap(clocks, e)
                # Deterministic tie-break: lexicographically smallest pair.
                if gap > best_gap + 1e-15:
                    best, best_gap = e, gap
        return best

    # ------------------------------------------------------------------ #
    # PeriodicAdversary hooks
    # ------------------------------------------------------------------ #

    def on_install(self) -> None:
        assert self.sim is not None and self.graph is not None
        self.guard = ConnectivityGuard(
            self.graph, interval=self.interval, protected=self.protected
        )
        # Seed the extra budget at t = 0.  All clocks are 0, so "largest
        # gap" is degenerate; spread the extras across the diameter instead
        # (deterministically): pair up far-apart ids.
        for i in range(self.k_extra):
            u, v = i, self.n - 1 - i
            e = edge_key(u, v)
            if u == v or e in self.protected or self.graph.has_edge(*e):
                continue
            self.graph.add_edge(e[0], e[1], self.sim.now)
            self._extras.add(e)
            if self.hold is not None:
                self._schedule_retraction(e, self.sim.now + self.hold)

    def observe_and_act(self, t: float) -> None:
        assert self.graph is not None and self.guard is not None
        clocks = self.logical_snapshot(self.nodes)
        removed: Edge | None = None
        # Removal: drop the least-disagreeing extra the guard admits.
        live_extras = [e for e in sorted(self._extras) if self.graph.has_edge(*e)]
        if len(live_extras) >= self.k_extra:
            for e in sorted(live_extras, key=lambda e: (self._gap(clocks, e), e)):
                if self.guard.allows_removal(e[0], e[1], t):
                    self.graph.remove_edge(e[0], e[1], t)
                    self._extras.discard(e)
                    removed = e
                    self.moves += 1
                    break
        # Insertion: spend the freed budget on the worst legal new edge.
        if len(self._extras) < self.k_extra:
            fresh = self._best_insertion(clocks, t, exclude=removed)
            if fresh is not None:
                self.graph.add_edge(fresh[0], fresh[1], t)
                self._extras.add(fresh)
                self.moves += 1
                if self.hold is not None:
                    self._schedule_retraction(fresh, t + self.hold)

    def _schedule_retraction(self, e: Edge, when: float) -> None:
        assert self.sim is not None and self.graph is not None

        def retract() -> None:
            assert self.graph is not None and self.guard is not None
            if e not in self._extras or not self.graph.has_edge(*e):
                return  # already recycled by a remove-least round
            if self.guard.allows_removal(e[0], e[1], self.sim.now):
                self.graph.remove_edge(e[0], e[1], self.sim.now)
                self._extras.discard(e)
                self.moves += 1

        self.sim.schedule_at(
            when, retract, priority=PRIORITY_TOPOLOGY, label="adversary_retract"
        )
