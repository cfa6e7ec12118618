"""The graph subscribers the observers used to be, kept as reference models.

Before the graph answered for its own history, the envelope monitor, the
skew recorder and the timeline each subscribed to the graph's mutations and
rebuilt their copy of it.  :class:`ListenerModel` is that copy, fed the same
events: the monitor's live-edge table -- the edges present when it
subscribed, in canonical order at age 0 (a removal clears a live flag),
then an insertion-ordered overlay of the later adds -- and the recorder's
edge episodes.  :class:`ListenerRecorder` adds the recorder's per-sample
loop: each open episode appends its age and ``|dL|`` at every sample.
``DynamicGraph.live_edges`` / ``episodes`` and ``RunRecord.episodes`` must
equal what these build.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.graph import DynamicGraph

Edge = tuple[int, int]


class ListenerModel:
    """Live edges and edge episodes, rebuilt from mutation events alone."""

    def __init__(self, graph: DynamicGraph) -> None:
        self.seeds: list[Edge] = list(graph.edges())
        self.seed_live = [True] * len(self.seeds)
        self.overlay: dict[Edge, float] = {}
        self.open: dict[Edge, float] = {edge: 0.0 for edge in self.seeds}
        self.closed: list[tuple[int, int, float, float]] = []
        graph.subscribe(self.on_edge_event)

    def on_edge_event(self, time: float, u: int, v: int, added: bool) -> None:
        key = (u, v)
        if added:
            self.overlay[key] = time
            self.open[key] = time
            return
        if self.overlay.pop(key, None) is None:  # a seeded edge
            self.seed_live[self.seeds.index(key)] = False
        self.closed.append((u, v, self.open.pop(key), time))

    def live_edges(self) -> list[tuple[int, int, float]]:
        """``(u, v, since)`` in table order: live seeds, then the overlay."""
        rows = [(u, v, 0.0) for (u, v), live in zip(self.seeds, self.seed_live) if live]
        return rows + [(u, v, t) for (u, v), t in self.overlay.items()]

    def episodes(self) -> list[tuple[int, int, float, float | None]]:
        """``(u, v, add, end)``, sorted by ``(add, u, v)``."""
        still = [(u, v, add, None) for (u, v), add in self.open.items()]
        return sorted([*self.closed, *still], key=lambda e: (e[2], e[0], e[1]))


class ListenerRecorder(ListenerModel):
    """:class:`ListenerModel` plus the recorder's per-sample episode loop."""

    def __init__(self, graph: DynamicGraph, node_ids: Sequence[int]) -> None:
        super().__init__(graph)
        self.index = {nid: k for k, nid in enumerate(sorted(node_ids))}
        self.series: dict[tuple[int, int, float], tuple[list[float], list[float]]] = {}

    def sample(self, t: float, clocks: np.ndarray) -> None:
        index = self.index
        for (u, v), add in self.open.items():
            ages, skews = self.series.setdefault((u, v, add), ([], []))
            ages.append(t - add)
            skews.append(abs(clocks[index[u]] - clocks[index[v]]))

    def record(self) -> list[tuple[int, int, float, float | None, bytes, bytes]]:
        """Every episode with its series' bytes, in ``RunRecord`` order."""
        out = []
        for u, v, add, end in self.episodes():
            ages, skews = self.series.get((u, v, add), ([], []))
            out.append((
                u, v, add, end,
                np.asarray(ages, dtype=float).tobytes(),
                np.asarray(skews, dtype=float).tobytes(),
            ))
        return out
