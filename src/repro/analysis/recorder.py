"""Sampling logical clocks and per-edge skews during a run.

:class:`SkewRecorder` is a consumer of the run's one
:class:`~repro.core.batch.Sampler` (fired with
:data:`~repro.sim.events.PRIORITY_SAMPLE`, i.e. *after* all model activity
at each timestamp): it keeps every node's logical clock.  With
``track_edges=True`` its record also holds each *edge episode* -- one
contiguous lifetime of an edge, keyed by ``(u, v, add_time)`` -- with the
skew across the edge against the edge's age at every sample the episode
covers.  Edge episodes are the raw material for the dynamic-local-skew
envelope experiments (Corollary 6.13) and the new-edge stabilization
measurements (Corollary 6.14 / Theorem 4.1).  The recorder keeps no copy
of the topology: :meth:`SkewRecorder.result` reads the episodes off the
graph's history (:meth:`~repro.network.graph.DynamicGraph.episodes`) and
their series off the clock matrix.

The recorder is algorithm-agnostic: it only needs ``logical_clock(t)`` and
optionally ``max_estimate(t)`` from nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.batch import Sampler
from ..network.graph import DynamicGraph
from ..sim.simulator import Simulator

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
    def samples(self) -> int:
        """Number of samples taken."""
        return len(self.times)

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
        Record per-edge-episode skew series (derived once, at
        :meth:`result`, from the graph's history and the clock matrix).
    track_max_estimates:
        Also snapshot ``Lmax_u`` (requires nodes to expose
        ``max_estimate``); used by the max-propagation experiment.
    end:
        Last sample time (default: the run's end).
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
        end: float | None = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.nodes = nodes
        self.node_ids = sorted(nodes)
        self._dense_index = {nid: k for k, nid in enumerate(self.node_ids)}
        self.interval = float(interval)
        self.track_edges = track_edges
        self.track_max_estimates = track_max_estimates
        self.end = end
        self._times: list[float] = []
        self._clocks: list[np.ndarray] = []
        self._lmax: list[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def join(self, sampler: Sampler) -> None:
        """Take this recorder's samples from ``sampler``'s schedule."""
        sampler.add(self.interval, self.sample, end=self.end, estimates=self.track_max_estimates)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, t: float, clocks: np.ndarray, estimates: np.ndarray | None) -> None:
        self._times.append(t)
        self._clocks.append(clocks)
        if estimates is not None:  # the sampler hands them only if asked
            self._lmax.append(estimates)

    # ------------------------------------------------------------------ #
    # Result
    # ------------------------------------------------------------------ #

    def result(self) -> RunRecord:
        """Freeze collected samples into a :class:`RunRecord`.

        An episode covers the samples at ``add <= t < end``: topology
        events run before the samples of their instant (priority), and
        an edge never changes twice at one instant.
        """
        times = np.asarray(self._times, dtype=float)
        clocks = (
            np.vstack(self._clocks)
            if self._clocks
            else np.empty((0, len(self.node_ids)))
        )
        episodes: list[EdgeEpisode] = []
        if self.track_edges:
            index = self._dense_index
            spans = self.graph.episodes()
            adds = np.fromiter((add for _, _, add, _ in spans), float, len(spans))
            ends = np.fromiter(
                (np.inf if end is None else end for *_, end in spans), float, len(spans)
            )
            los = np.searchsorted(times, adds).tolist()
            his = np.searchsorted(times, ends).tolist()
            for (u, v, add, end), lo, hi in zip(spans, los, his):
                rows = clocks[lo:hi]
                skews = np.abs(rows[:, index[u]] - rows[:, index[v]])
                episodes.append(EdgeEpisode(u, v, add, times[lo:hi] - add, skews, end))
        lmax = np.vstack(self._lmax) if self._lmax else None
        return RunRecord(
            node_ids=list(self.node_ids),
            times=times,
            clocks=clocks,
            max_estimates=lmax,
            episodes=episodes,
        )
