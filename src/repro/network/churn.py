"""Dynamic-topology (churn) processes.

A :class:`ChurnProcess` drives add/remove events into a
:class:`~repro.network.graph.DynamicGraph` through the simulator.  The paper
allows *arbitrary* churn subject only to T-interval connectivity
(Definition 3.1); the processes here span that spectrum:

* :class:`ScriptedChurn` -- replay an explicit event list (used by the
  lower-bound scenarios, which inject specific edges at specific times);
* :class:`EdgeFlapper` -- periodic up/down toggling of chosen edges
  (exercises transient-change discovery semantics);
* :class:`RandomRewirer` -- maintains ``k`` random "extra" edges, rewiring
  one every interval while never touching a protected backbone;
* :class:`MobileGeometricChurn` -- random-waypoint mobility with a
  unit-disk connectivity graph, the TDMA/ad-hoc motivation of the intro;
* :class:`RotatingBackboneChurn` -- holds a (possibly different) random
  spanning path alive in each overlapping time window, guaranteeing
  ``L``-interval connectivity for any ``L <= overlap`` *without* any edge
  being stable forever -- the adversarially dynamic-but-connected regime the
  global skew theorem is proved for.

All processes are installed before the run starts: ``install(sim, graph)``
schedules their activity; they never mutate the graph outside scheduled
events (except seeding initial edges at ``t = 0`` during install).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..sim.events import KIND_TOPOLOGY, PRIORITY_TOPOLOGY
from ..sim.simulator import Simulator
from .graph import DynamicGraph, edge_key

__all__ = [
    "ChurnProcess",
    "ScriptedChurn",
    "EdgeFlapper",
    "RandomRewirer",
    "MobileGeometricChurn",
    "RotatingBackboneChurn",
]

Edge = tuple[int, int]


class ChurnProcess:
    """Base class for topology-change drivers."""

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        """Schedule this process's activity on ``sim`` against ``graph``."""
        raise NotImplementedError


class ScriptedChurn(ChurnProcess):
    """Replays an explicit, time-ordered list of edge events.

    ``events`` is an iterable of ``(time, op, u, v)`` with ``op`` one of
    ``"add"`` / ``"remove"``.  Events at the same time fire in list order.
    Idempotence guard: an add of a present edge or a remove of an absent
    edge raises at fire time (scripts are meant to be exact).
    """

    def __init__(self, events: Iterable[tuple[float, str, int, int]]) -> None:
        self.events = sorted(events, key=lambda e: e[0])
        for t, op, _u, _v in self.events:
            if op not in ("add", "remove"):
                raise ValueError(f"bad op {op!r}")
            if t < 0.0:
                raise ValueError(f"negative event time {t!r}")

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        # Typed KIND_TOPOLOGY records (a=graph, b=added, c=u, d=v): the
        # kernel's built-in handler applies the mutation at sim.now, so no
        # closure is allocated per scripted event.
        for time, op, u, v in self.events:
            added = op == "add"
            sim.schedule_typed(
                time, PRIORITY_TOPOLOGY, KIND_TOPOLOGY, graph, added, u, v,
                None, "churn_add" if added else "churn_remove",
            )


class EdgeFlapper(ChurnProcess):
    """Periodically toggles a set of edges up and down.

    Each flapped edge cycles: present for ``up`` time, absent for ``down``
    time, starting in the absent state offset by a per-edge phase drawn
    uniformly from one full period.  Short ``up`` values (< discovery bound)
    exercise the transient-discovery semantics.
    """

    def __init__(
        self,
        edges: Sequence[Edge],
        up: float,
        down: float,
        rng: np.random.Generator,
        *,
        horizon: float | None = None,
    ) -> None:
        if up <= 0.0 or down <= 0.0:
            raise ValueError("up and down durations must be positive")
        self.edges = [edge_key(*e) for e in edges]
        self.up = float(up)
        self.down = float(down)
        self.horizon = horizon
        self._rng = rng

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        period = self.up + self.down
        for u, v in self.edges:
            phase = float(self._rng.uniform(0.0, period))

            def schedule_cycle(t_add: float, uu: int = u, vv: int = v) -> None:
                if self.horizon is not None and t_add > self.horizon:
                    return
                t_rem = t_add + self.up

                def do_add() -> None:
                    if not graph.has_edge(uu, vv):
                        graph.add_edge(uu, vv, sim.now)

                def do_remove() -> None:
                    if graph.has_edge(uu, vv):
                        graph.remove_edge(uu, vv, sim.now)
                    schedule_cycle(t_rem + self.down)

                sim.schedule_at(t_add, do_add, priority=PRIORITY_TOPOLOGY, label="flap_add")
                sim.schedule_at(t_rem, do_remove, priority=PRIORITY_TOPOLOGY, label="flap_rem")

            schedule_cycle(phase)


class RandomRewirer(ChurnProcess):
    """Maintains ``k`` random extra edges, rewiring one per interval.

    The ``protected`` edge set (typically a spanning backbone held in the
    initial edge set) is never added or removed by this process, so overall
    connectivity is preserved while the rest of the topology churns
    arbitrarily.  Initial extras are added at ``t = 0`` during install.
    """

    def __init__(
        self,
        n: int,
        k_extra: int,
        interval: float,
        rng: np.random.Generator,
        *,
        protected: Iterable[Edge] = (),
        horizon: float | None = None,
    ) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        if k_extra < 1:
            raise ValueError("k_extra must be >= 1")
        self.n = n
        self.k_extra = k_extra
        self.interval = float(interval)
        self.horizon = horizon
        self.protected = {edge_key(*e) for e in protected}
        self._rng = rng
        self._extras: set[Edge] = set()

    def _sample_new_edge(
        self, graph: DynamicGraph, exclude: Edge | None = None
    ) -> Edge | None:
        for _ in range(64):
            u = int(self._rng.integers(self.n))
            v = int(self._rng.integers(self.n))
            if u == v:
                continue
            e = edge_key(u, v)
            if e in self.protected or graph.has_edge(*e) or e == exclude:
                # ``exclude`` is the edge removed at this same instant; the
                # model forbids removing and re-adding an edge simultaneously.
                continue
            return e
        return None

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        # Seed initial extras at t = 0.
        for _ in range(self.k_extra):
            e = self._sample_new_edge(graph)
            if e is not None:
                graph.add_edge(e[0], e[1], sim.now)
                self._extras.add(e)

        def rewire() -> None:
            victim = None
            if self._extras:
                victim = sorted(self._extras)[int(self._rng.integers(len(self._extras)))]
                if graph.has_edge(*victim):
                    graph.remove_edge(victim[0], victim[1], sim.now)
                self._extras.discard(victim)
            fresh = self._sample_new_edge(graph, exclude=victim)
            if fresh is not None:
                graph.add_edge(fresh[0], fresh[1], sim.now)
                self._extras.add(fresh)
            nxt = sim.now + self.interval
            if self.horizon is None or nxt <= self.horizon:
                sim.schedule_at(nxt, rewire, priority=PRIORITY_TOPOLOGY, label="rewire")

        sim.schedule_at(self.interval, rewire, priority=PRIORITY_TOPOLOGY, label="rewire")


class MobileGeometricChurn(ChurnProcess):
    """Random-waypoint mobility with unit-disk connectivity.

    Nodes move in the unit square toward random waypoints at ``speed``;
    every ``update_interval`` the connectivity graph (pairs within
    ``radius``) is recomputed and diffed against the graph's current
    non-protected edges.  A ``protected`` backbone can be supplied to keep
    the analysis' connectivity premise while nodes roam.

    This is the paper's motivating scenario: mobile wireless ad-hoc networks
    whose topology is "highly dynamic even if the set of participating nodes
    remains stable" (Section 1).
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        speed: float,
        update_interval: float,
        rng: np.random.Generator,
        *,
        protected: Iterable[Edge] = (),
        horizon: float | None = None,
    ) -> None:
        if radius <= 0.0 or speed < 0.0 or update_interval <= 0.0:
            raise ValueError("radius/update_interval must be positive, speed >= 0")
        self.pos = np.array(positions, dtype=float, copy=True)
        if self.pos.ndim != 2 or self.pos.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        self.radius = float(radius)
        self.speed = float(speed)
        self.update_interval = float(update_interval)
        self.protected = {edge_key(*e) for e in protected}
        self.horizon = horizon
        self._rng = rng
        self._targets = rng.random(self.pos.shape)

    def _step_positions(self, dt: float) -> None:
        delta = self._targets - self.pos
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        arrive = dist <= self.speed * dt + 1e-12
        move = ~arrive & (dist > 0)
        self.pos[arrive] = self._targets[arrive]
        if np.any(move):
            step = (self.speed * dt) / dist[move]
            self.pos[move] += delta[move] * step[:, None]
        if np.any(arrive):
            self._targets[arrive] = self._rng.random((int(arrive.sum()), 2))

    def _desired_edges(self) -> set[Edge]:
        n = self.pos.shape[0]
        diff = self.pos[:, None, :] - self.pos[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        iu, ju = np.triu_indices(n, k=1)
        mask = d2[iu, ju] <= self.radius * self.radius
        return {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        def update() -> None:
            self._step_positions(self.update_interval)
            desired = self._desired_edges() | self.protected
            current = set(graph.edges())
            for e in sorted(current - desired):
                if e not in self.protected:
                    graph.remove_edge(e[0], e[1], sim.now)
            for e in sorted(desired - current):
                graph.add_edge(e[0], e[1], sim.now)
            nxt = sim.now + self.update_interval
            if self.horizon is None or nxt <= self.horizon:
                sim.schedule_at(nxt, update, priority=PRIORITY_TOPOLOGY, label="mobility")

        sim.schedule_at(
            self.update_interval, update, priority=PRIORITY_TOPOLOGY, label="mobility"
        )


class RotatingBackboneChurn(ChurnProcess):
    """Holds a different random spanning path alive in each time window.

    Window ``i`` covers ``[i * window, (i+1) * window)``; its path ``P_i`` is
    added at ``max(0, i*window - overlap)`` and removed at
    ``(i+1)*window + overlap``.  Consequently every interval of length
    ``<= overlap`` is fully contained in some path's lifetime, giving
    ``overlap``-interval connectivity (Definition 3.1) even though *no* edge
    survives more than ``window + 2*overlap``.

    Edge claims are reference-counted so consecutive paths sharing an edge
    do not double-add/remove it.  Pair with processes that only touch
    disjoint edges (e.g. :class:`RandomRewirer` with these edges protected is
    not supported -- paths are random; instead run this alone or with
    flappers on a known-disjoint edge set).
    """

    def __init__(
        self,
        n: int,
        window: float,
        overlap: float,
        rng: np.random.Generator,
        *,
        horizon: float,
    ) -> None:
        if window <= 0.0 or overlap <= 0.0:
            raise ValueError("window and overlap must be positive")
        if overlap >= window:
            raise ValueError("overlap must be < window (else paths pile up)")
        self.n = n
        self.window = float(window)
        self.overlap = float(overlap)
        self.horizon = float(horizon)
        self._rng = rng
        self._claims: dict[Edge, int] = {}

    def _random_path(self) -> list[Edge]:
        perm = self._rng.permutation(self.n)
        return [edge_key(int(perm[i]), int(perm[i + 1])) for i in range(self.n - 1)]

    def _claim(self, graph: DynamicGraph, sim: Simulator, e: Edge) -> None:
        c = self._claims.get(e, 0)
        if c == 0 and not graph.has_edge(*e):
            graph.add_edge(e[0], e[1], sim.now)
        self._claims[e] = c + 1

    def _release(self, graph: DynamicGraph, sim: Simulator, e: Edge) -> None:
        c = self._claims[e]
        if c == 1 and graph.has_edge(*e):
            graph.remove_edge(e[0], e[1], sim.now)
        self._claims[e] = c - 1

    def install(self, sim: Simulator, graph: DynamicGraph) -> None:
        i = 0
        while i * self.window <= self.horizon:
            path = self._random_path()
            t_add = max(0.0, i * self.window - self.overlap)
            t_rem = (i + 1) * self.window + self.overlap

            def do_add(p: list[Edge] = path) -> None:
                for e in p:
                    self._claim(graph, sim, e)

            def do_remove(p: list[Edge] = path) -> None:
                for e in p:
                    self._release(graph, sim, e)

            if t_add == 0.0:
                do_add()  # seed immediately so E_0 includes P_0
            else:
                sim.schedule_at(t_add, do_add, priority=PRIORITY_TOPOLOGY, label="bb_add")
            sim.schedule_at(t_rem, do_remove, priority=PRIORITY_TOPOLOGY, label="bb_rem")
            i += 1
