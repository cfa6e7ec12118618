"""Sampling logical clocks and per-edge skews during a run.

:class:`SkewRecorder` installs a periodic measurement callback (fired with
:data:`~repro.sim.events.PRIORITY_SAMPLE`, i.e. *after* all model activity
at each timestamp) that snapshots every node's logical clock.  With
``track_edges=True`` it additionally follows each *edge episode* -- one
contiguous lifetime of an edge, keyed by ``(u, v, add_time)`` -- recording
the skew across the edge against the edge's age.  Edge episodes are the raw
material for the dynamic-local-skew envelope experiments (Corollary 6.13)
and the new-edge stabilization measurements (Corollary 6.14 / Theorem 4.1).

The recorder is algorithm-agnostic: it only needs ``logical_clock(t)`` and
optionally ``max_estimate(t)`` from nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..core.batch import PopulationReader
from ..network.graph import DynamicGraph
from ..sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.transport import Transport

__all__ = ["SkewRecorder", "RunRecord", "EdgeEpisode"]


@dataclass
class EdgeEpisode:
    """Skew samples across one contiguous lifetime of an edge.

    ``ages[i]`` is the time since the episode's add event at the ``i``-th
    sample; ``skews[i]`` the absolute logical-clock difference across the
    edge at that sample.  ``end_time`` is set when the edge is removed
    (``None`` if it survived to the end of the run).
    """

    u: int
    v: int
    add_time: float
    ages: np.ndarray
    skews: np.ndarray
    end_time: float | None = None

    @property
    def key(self) -> tuple[int, int, float]:
        """Stable identifier ``(u, v, add_time)``."""
        return (self.u, self.v, self.add_time)


@dataclass
class RunRecord:
    """Immutable result of a recorded run.

    Attributes
    ----------
    node_ids:
        Sorted node ids; columns of :attr:`clocks`.
    times:
        Sample times, shape ``(m,)``.
    clocks:
        Logical clock matrix, shape ``(m, n)``.
    max_estimates:
        ``Lmax`` estimate matrix (same shape) when the algorithm exposes it,
        else ``None``.
    episodes:
        Edge episodes (only when ``track_edges`` was enabled).
    """

    node_ids: list[int]
    times: np.ndarray
    clocks: np.ndarray
    max_estimates: np.ndarray | None = None
    episodes: list[EdgeEpisode] = field(default_factory=list)

    @classmethod
    def empty(cls, node_ids: Iterable[int]) -> "RunRecord":
        """The record of a run that was not recorded (no samples)."""
        ids = sorted(node_ids)
        return cls(ids, np.empty(0), np.empty((0, len(ids))))

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.node_ids)

    @property
    def samples(self) -> int:
        """Number of samples taken."""
        return len(self.times)

    def column(self, node_id: int) -> np.ndarray:
        """The clock series of one node."""
        return self.clocks[:, self.node_ids.index(node_id)]

    def episodes_for(self, u: int, v: int) -> list[EdgeEpisode]:
        """All episodes of a given (unordered) edge, in time order."""
        a, b = (u, v) if u <= v else (v, u)
        eps = [e for e in self.episodes if (e.u, e.v) == (a, b)]
        return sorted(eps, key=lambda e: e.add_time)


class SkewRecorder:
    """Periodic sampler of logical clocks and edge skews.

    Parameters
    ----------
    sim, graph, nodes:
        The kernel, the dynamic graph and the node map being observed.
    interval:
        Sampling period (real time).
    track_edges:
        Record per-edge-episode skew series (costs O(edges) per sample).
    track_max_estimates:
        Also snapshot ``Lmax_u`` (requires nodes to expose
        ``max_estimate``); used by the max-propagation experiment.
    start / end:
        Sampling window (defaults: from now until the run's end).
    transport:
        The transport whose registered nodes are exactly ``nodes``, if
        there is one (see :class:`~repro.core.batch.PopulationReader`).
    """

    def __init__(
        self,
        sim: Simulator,
        graph: DynamicGraph,
        nodes: Mapping[int, object],
        interval: float,
        *,
        track_edges: bool = False,
        track_max_estimates: bool = False,
        start: float | None = None,
        end: float | None = None,
        transport: "Transport | None" = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.nodes = nodes
        self.node_ids = sorted(nodes)
        self._read = PopulationReader(
            self.nodes, estimates=track_max_estimates, transport=transport
        )
        self._dense_index = {nid: k for k, nid in enumerate(self.node_ids)}
        self.interval = float(interval)
        self.track_edges = track_edges
        self.track_max_estimates = track_max_estimates
        self.start = start
        self.end = end
        self._times: list[float] = []
        self._clocks: list[np.ndarray] = []
        self._lmax: list[np.ndarray] = []
        # Live episodes keyed by (u, v); closed ones accumulate in _closed.
        self._live: dict[tuple[int, int], _LiveEpisode] = {}
        self._closed: list[EdgeEpisode] = []
        if track_edges:
            graph.subscribe(self._on_edge_event)
            for u, v in graph.edges():
                self._live[(u, v)] = _LiveEpisode(u, v, 0.0)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Arm the periodic sampling callback."""
        self.sim.every(self.interval, self._sample, start=self.start, end=self.end)

    def _on_edge_event(self, time: float, u: int, v: int, added: bool) -> None:
        key = (u, v)
        if added:
            self._live[key] = _LiveEpisode(u, v, time)
        else:
            ep = self._live.pop(key, None)
            if ep is not None:
                self._closed.append(ep.finish(end_time=time))

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _sample(self, t: float) -> None:
        clocks, estimates = self._read(t)
        self._times.append(t)
        self._clocks.append(clocks)
        if estimates is not None:
            self._lmax.append(estimates)
        if self.track_edges and self._live:
            index = self._dense_index
            for (u, v), ep in self._live.items():
                skew = abs(clocks[index[u]] - clocks[index[v]])
                ep.ages.append(t - ep.add_time)
                ep.skews.append(skew)

    # ------------------------------------------------------------------ #
    # Result
    # ------------------------------------------------------------------ #

    def result(self) -> RunRecord:
        """Freeze collected samples into a :class:`RunRecord`."""
        episodes = list(self._closed)
        episodes.extend(ep.finish(end_time=None) for ep in self._live.values())
        episodes.sort(key=lambda e: (e.add_time, e.u, e.v))
        clocks = (
            np.vstack(self._clocks)
            if self._clocks
            else np.empty((0, len(self.node_ids)))
        )
        lmax = None
        if self.track_max_estimates and self._lmax:
            lmax = np.vstack(self._lmax)
        return RunRecord(
            node_ids=list(self.node_ids),
            times=np.asarray(self._times, dtype=float),
            clocks=clocks,
            max_estimates=lmax,
            episodes=episodes,
        )


class _LiveEpisode:
    """Mutable accumulation buffer for one edge episode."""

    __slots__ = ("u", "v", "add_time", "ages", "skews")

    def __init__(self, u: int, v: int, add_time: float) -> None:
        self.u = u
        self.v = v
        self.add_time = add_time
        self.ages: list[float] = []
        self.skews: list[float] = []

    def finish(self, end_time: float | None) -> EdgeEpisode:
        return EdgeEpisode(
            u=self.u,
            v=self.v,
            add_time=self.add_time,
            ages=np.asarray(self.ages, dtype=float),
            skews=np.asarray(self.skews, dtype=float),
            end_time=end_time,
        )
