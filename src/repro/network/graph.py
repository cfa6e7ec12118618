"""Event-sourced dynamic graph.

The paper models a dynamic network over a static node set ``V`` as a function
``E(t)`` from time to edge sets, induced by ``add``/``remove`` events
(Section 3.2).  :class:`DynamicGraph` implements exactly that: it keeps the
*current* adjacency for O(1) queries plus a full per-edge event history so the
model-level predicates the analysis needs are answerable after the fact:

* ``exists_at(u, v, t)`` -- membership in ``E(t)``;
* ``exists_throughout(u, v, t1, t2)`` -- the premise of the dynamic local
  skew definition (Definition 3.4);
* ``removed_during(u, v, t1, t2)`` -- used by the transport to decide whether
  an in-flight message crossed a removed edge (``never_removed(us, vs)`` is
  its bulk pre-filter);
* ``edges_existing_throughout(t1, t2)`` -- the static subgraph
  ``G[t1,t2]`` of Definition 3.1 (T-interval connectivity).

Time must be fed in non-decreasing order (it comes from the simulator), and
an edge must not be added and removed at the same instant (the model forbids
it); both are enforced.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

import numpy as np
import numpy.typing as npt

__all__ = ["DynamicGraph", "GraphError", "edge_key"]

Edge = tuple[int, int]

#: The history every edge of E_0 shares until it first changes: added at 0.
_E0_T: tuple[float, ...] = (0.0,)
_E0_A: tuple[bool, ...] = (True,)


class GraphError(ValueError):
    """Raised on invalid graph mutations (unknown node, double add, ...)."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical undirected edge key (sorted pair)."""
    return (u, v) if u <= v else (v, u)


class DynamicGraph:
    """A dynamic graph over a fixed node set with full event history.

    Parameters
    ----------
    nodes:
        The static node set ``V`` (hashable ids; ints in practice).
    initial_edges:
        Edges present at time 0 (``E_0`` in the paper); recorded as add
        events at ``t = 0``.

    Listeners registered via :meth:`subscribe` are invoked synchronously on
    every mutation with ``(time, u, v, added)``; the transport uses this to
    drive discovery, recorders use it to track edge lifetimes.
    """

    def __init__(self, nodes: Iterable[int], initial_edges: Iterable[Edge] = ()) -> None:
        self._nodes: list[int] = list(nodes)
        node_set = set(self._nodes)
        if len(node_set) != len(self._nodes):
            raise GraphError("duplicate node ids")
        self._node_set = node_set
        self._adj: dict[int, set[int]] = {u: set() for u in self._nodes}
        # Per-edge history: key -> (times, added flags), parallel.  An edge
        # of E_0 shares the immutable ``_E0_T`` / ``_E0_A`` until its first
        # mutation turns them into two lists (:meth:`_history_lists`).
        self._hist_t: dict[Edge, Sequence[float]] = {}
        self._hist_a: dict[Edge, Sequence[bool]] = {}
        # Edges that have ever seen a remove event: the delivery hot path
        # asks removed_during() once per message, and on stable topologies
        # the answer is decided by this set without touching the history.
        self._ever_removed: set[Edge] = set()
        self._listeners: list[Callable[[float, int, int, bool], None]] = []
        self._last_time = 0.0
        # E_0 in one loop: ``add_edge(u, v, 0.0)`` minus what is vacuous
        # here (no listener, no time order).  Same errors in the same
        # order and the same adjacency insertion order: ``edges()``, hence
        # E_0's discovery order and every digest, follows it.
        adj = self._adj
        hist_t = self._hist_t
        hist_a = self._hist_a
        for u, v in initial_edges:
            nbrs = adj.get(u)
            if nbrs is not None and v in nbrs:
                raise GraphError(f"edge ({u!r}, {v!r}) already present")
            if u == v:
                raise GraphError(f"self-loop on node {u!r}")
            if nbrs is None or v not in adj:
                raise GraphError(f"unknown node in edge ({u!r}, {v!r})")
            key = (u, v) if u <= v else (v, u)
            nbrs.add(v)
            adj[v].add(u)
            hist_t[key] = _E0_T
            hist_a[key] = _E0_A
        self.edge_events = len(hist_t)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> list[int]:
        """The static node set (copy not taken; do not mutate)."""
        return self._nodes

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def has_node(self, u: int) -> bool:
        """Whether ``u`` belongs to the static node set."""
        return u in self._node_set

    def neighbors(self, u: int) -> set[int]:
        """Current neighbours of ``u`` (live set; do not mutate)."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        """Current degree of ``u``."""
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is currently present."""
        return v in self._adj.get(u, ())

    def edges(self) -> Iterator[Edge]:
        """Iterate over current edges (canonical orientation)."""
        for u in self._nodes:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def adjacency(
        self, nodes: Sequence[int] | None = None
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """The current adjacency of ``nodes`` (default: every node) as two
        id columns, one entry per (node, neighbour): the nodes in order,
        each one's neighbours in its set's iteration order -- the walk
        :meth:`edges` makes."""
        if nodes is None:
            nodes = self._nodes
        rows = [self._adj[u] for u in nodes]
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        peers = np.fromiter(chain.from_iterable(rows), np.int64, int(counts.sum()))
        return np.repeat(np.asarray(nodes, np.int64), counts), peers

    def edge_count(self) -> int:
        """Number of current edges."""
        return sum(len(s) for s in self._adj.values()) // 2

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def subscribe(self, listener: Callable[[float, int, int, bool], None]) -> None:
        """Register a mutation listener ``(time, u, v, added) -> None``."""
        self._listeners.append(listener)

    def _check_mutation(self, u: int, v: int, time: float) -> Edge:
        if u == v:
            raise GraphError(f"self-loop on node {u!r}")
        if u not in self._node_set or v not in self._node_set:
            raise GraphError(f"unknown node in edge ({u!r}, {v!r})")
        if time < self._last_time:
            raise GraphError(
                f"graph mutations must be time-ordered: {time!r} < {self._last_time!r}"
            )
        key = edge_key(u, v)
        ts = self._hist_t.get(key)
        if ts and ts[-1] == time:
            # The model forbids adding and removing the same edge at the
            # same instant; a same-time duplicate of the same operation is
            # caught by the has_edge checks in add/remove.
            raise GraphError(
                f"edge {key} already changed at t={time!r}; "
                "simultaneous add+remove is not allowed"
            )
        return key

    def add_edge(self, u: int, v: int, time: float) -> None:
        """Insert edge ``{u, v}`` at ``time`` (must not be present)."""
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) already present")
        key = self._check_mutation(u, v, time)
        self._adj[u].add(v)
        self._adj[v].add(u)
        ts, flags = self._history_lists(key)
        ts.append(time)
        flags.append(True)
        self._last_time = time
        self.edge_events += 1
        for fn in self._listeners:
            fn(time, key[0], key[1], True)

    def remove_edge(self, u: int, v: int, time: float) -> None:
        """Remove edge ``{u, v}`` at ``time`` (must be present)."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        key = self._check_mutation(u, v, time)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        ts, flags = self._history_lists(key)
        ts.append(time)
        flags.append(False)
        self._ever_removed.add(key)
        self._last_time = time
        self.edge_events += 1
        for fn in self._listeners:
            fn(time, key[0], key[1], False)

    def _history_lists(self, key: Edge) -> tuple[list[float], list[bool]]:
        """Edge ``key``'s history as two lists to append to (an E_0 edge's
        shared history is copied once, at its first mutation)."""
        ts = self._hist_t.get(key)
        flags = self._hist_a.get(key)
        if type(ts) is list and type(flags) is list:
            return ts, flags
        ts = self._hist_t[key] = list(ts or ())
        flags = self._hist_a[key] = list(flags or ())
        return ts, flags

    # ------------------------------------------------------------------ #
    # Historical queries
    # ------------------------------------------------------------------ #

    def history(self, u: int, v: int) -> list[tuple[float, bool]]:
        """Full event history for an edge as ``[(time, added), ...]``."""
        key = edge_key(u, v)
        ts = self._hist_t.get(key, [])
        return list(zip(ts, self._hist_a.get(key, [])))

    def event_times(self) -> list[float]:
        """All distinct mutation times, sorted (used by window scans)."""
        times: set[float] = set()
        for ts in self._hist_t.values():
            times.update(ts)
        return sorted(times)

    def event_history(self) -> list[tuple[float, int, int, bool]]:
        """Every mutation ever applied, as ``(time, u, v, added)``.

        Sorted by ``(time, u, v)``; same-instant events on *different*
        edges keep a deterministic order (an edge cannot change twice at
        one instant, so the order within a timestamp is immaterial for
        replay).
        """
        events = [
            (t, key[0], key[1], added)
            for key, ts in self._hist_t.items()
            for t, added in zip(ts, self._hist_a[key])
        ]
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events

    def exists_at(self, u: int, v: int, t: float) -> bool:
        """Whether the edge is in ``E(t)``.

        Per the paper: added no later than ``t`` and not removed between the
        last add and ``t`` inclusive -- i.e. the state after the last event
        with time ``<= t``.
        """
        key = edge_key(u, v)
        ts = self._hist_t.get(key)
        if not ts:
            return False
        i = bisect_right(ts, t) - 1
        if i < 0:
            return False
        return self._hist_a[key][i]

    def removed_during(self, u: int, v: int, t1: float, t2: float) -> bool:
        """Whether any remove event hit the edge in the window ``(t1, t2]``."""
        key = (u, v) if u <= v else (v, u)
        if key not in self._ever_removed:
            return False
        ts = self._hist_t.get(key)
        if not ts:
            return False
        flags = self._hist_a[key]
        lo = bisect_right(ts, t1)
        hi = bisect_right(ts, t2)
        for i in range(lo, hi):
            if not flags[i]:
                return True
        return False

    @property
    def ever_removed(self) -> AbstractSet[Edge]:
        """Canonical edges that have ever seen a remove event (a live view).

        Empty on a topology that only ever grew: every message sent over a
        present edge then provably arrives, and the transport's singleton
        delivery path skips the per-message drop predicate on that test.
        """
        return self._ever_removed

    def never_removed(self, us: Sequence[int], vs: Sequence[int]) -> bool:
        """Whether no edge ``{us[i], vs[i]}`` has ever seen a remove event.

        Two C-level set scans, one per orientation of the canonical key.
        An edge that was present at some earlier time and has never been
        removed is still present, so the transport clears a whole delivery
        burst with this one call and falls back to per-message
        :meth:`removed_during` checks only when it answers ``False``.
        """
        ever = self._ever_removed
        return not ever or (
            ever.isdisjoint(zip(us, vs)) and ever.isdisjoint(zip(vs, us))
        )

    def exists_throughout(self, u: int, v: int, t1: float, t2: float) -> bool:
        """Whether the edge exists at ``t1`` and is never removed in ``[t1, t2]``.

        This is the premise of Definition 3.4 (dynamic local skew).
        """
        if t2 < t1:
            raise ValueError(f"bad interval [{t1!r}, {t2!r}]")
        return self.exists_at(u, v, t1) and not self.removed_during(u, v, t1, t2)

    def edges_at(self, t: float) -> list[Edge]:
        """The edge set ``E(t)`` (historical reconstruction)."""
        out = []
        for key, ts in self._hist_t.items():
            i = bisect_right(ts, t) - 1
            if i >= 0 and self._hist_a[key][i]:
                out.append(key)
        return out

    def edges_existing_throughout(self, t1: float, t2: float) -> list[Edge]:
        """Edges of the static subgraph ``G[t1, t2]`` (Definition 3.1)."""
        return [
            key
            for key in self._hist_t
            if self.exists_throughout(key[0], key[1], t1, t2)
        ]

    # ------------------------------------------------------------------ #
    # Connectivity
    # ------------------------------------------------------------------ #

    @staticmethod
    def _connected(nodes: list[int], edges: Iterable[Edge]) -> bool:
        if len(nodes) <= 1:
            return True
        adj: dict[int, list[int]] = {u: [] for u in nodes}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(nodes)

    def is_connected_now(self) -> bool:
        """Whether the current graph is connected."""
        return self._connected(self._nodes, self.edges())

    def is_connected_throughout(self, t1: float, t2: float) -> bool:
        """Whether ``G[t1, t2]`` is connected (one window of Definition 3.1)."""
        return self._connected(self._nodes, self.edges_existing_throughout(t1, t2))

    def window_anchors(self, interval: float, t_end: float) -> list[float]:
        """Sufficient anchor times for ``interval``-window checks on ``[0, t_end]``.

        Definition 3.1 quantifies over all real ``t``, but the content of
        ``G[t, t + interval]`` changes only when an edge event enters or
        leaves the window: at every event time (existence at ``t`` flips,
        and a removal stops counting once ``t`` passes it) and at every
        ``event time - interval`` (a removal starts counting once the
        window's right end reaches it).  Checking windows anchored at 0, at
        those times, and just after each event time is therefore
        exhaustive.  Windows are truncated at ``t_end``, so events beyond
        ``t_end`` cannot affect certification and contribute no anchors.
        """
        anchors: set[float] = {0.0}
        for t in self.event_times():
            if t <= t_end:
                anchors.add(t)
                anchors.add(min(t_end, t + 1e-9))
                if t - interval > 0.0:
                    anchors.add(t - interval)
        return sorted(anchors)

    def check_interval_connectivity(
        self, interval: float, t_end: float, *, step: float | None = None
    ) -> bool:
        """Check ``interval``-interval connectivity over ``[0, t_end]``.

        Windows are anchored at :meth:`window_anchors`; ``step`` adds extra
        sample anchors for belt-and-braces testing.  For violation details
        use :func:`repro.adversary.connectivity.scan_interval_connectivity`,
        which walks the same anchors.
        """
        anchors: set[float] = set(self.window_anchors(interval, t_end))
        if step is not None:
            k = 0
            while k * step <= t_end:
                anchors.add(k * step)
                k += 1
        for t in sorted(anchors):
            if not self.is_connected_throughout(t, min(t + interval, t_end)):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Distances (static snapshot)
    # ------------------------------------------------------------------ #

    def distances_from(self, source: int, t: float | None = None) -> dict[int, int]:
        """BFS hop distances from ``source`` in the graph at time ``t``
        (current graph when ``t`` is None).  Unreachable nodes are absent."""
        edges = list(self.edges()) if t is None else self.edges_at(t)
        adj: dict[int, list[int]] = {u: [] for u in self._nodes}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        return dist
