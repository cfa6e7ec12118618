"""Event-sourced dynamic graph.

The paper models a dynamic network over a static node set ``V`` as a function
``E(t)`` from time to edge sets, induced by ``add``/``remove`` events
(Section 3.2).  Almost all of a run's graph is ``E_0`` plus a short edit log,
so :class:`DynamicGraph` keeps ``E_0`` as columns -- a CSR (``row_start``,
``peer``: each node's row in ``E_0`` insertion order) and the sorted
canonical ``edge_keys`` -- and the history of the edges that changed since
(an ``E_0`` edge's is implicit: added at 0).  A node's adjacency set, for
O(1) ``neighbors`` / ``has_edge``, is built from its row when one of those
or a mutation first reaches it, in the insertion order (hence iteration
order) one ``add_edge`` per ``E_0`` edge would have given it.  The
model-level predicates the analysis needs stay answerable after the fact:

* ``exists_at(u, v, t)`` -- membership in ``E(t)``;
* ``exists_throughout(u, v, t1, t2)`` -- the premise of the dynamic local
  skew definition (Definition 3.4);
* ``removed_during(u, v, t1, t2)`` -- whether an in-flight message crossed
  a removed edge (the reference delivery path's test; the batch table reads
  the same answer off its slot columns);
* ``edges_existing_throughout(t1, t2)`` -- the static subgraph
  ``G[t1,t2]`` of Definition 3.1 (T-interval connectivity; the window
  scan is :func:`repro.adversary.connectivity.scan_interval_connectivity`).

The history is the one record of the topology: the observers read it
instead of keeping their own copy.  ``live_edges`` gives the current edges
with the time their current episode began (the envelope monitor's ages,
Corollary 6.13), ``episodes`` every lifetime of every edge (the recorder's
edge episodes, Corollary 6.14), and ``event_history`` every mutation (the
skew timeline's event list, a replayable schedule).

Readers of the current edge set take columns in canonical (sorted) order
(``edge_columns``, ``pair_keys``, ``edges``); the one reader whose order is
observable, ``Transport._announce_each`` (a random discovery latency drawn
per endpoint), walks the sets.  Node ids are non-negative ints.  Time must
be fed in non-decreasing order (it comes from the simulator), and an edge
must not be added and removed at the same instant (the model forbids it);
both are enforced.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import merge
from itertools import chain, islice, zip_longest
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import numpy.typing as npt

__all__ = ["DynamicGraph", "GraphError", "edge_key"]

Edge = tuple[int, int]
_I64 = npt.NDArray[np.int64]


class GraphError(ValueError):
    """Raised on invalid graph mutations (unknown node, double add, ...)."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical undirected edge key (sorted pair)."""
    return (u, v) if u <= v else (v, u)


class _Rows(dict[int, set[int]]):
    """Node id -> its adjacency set, built from its ``E_0`` row on the first
    lookup (``KeyError`` for an id outside the node set)."""

    __slots__ = ("node_set", "row_start", "peer")

    def __init__(
        self, node_set: AbstractSet[int] | range, row_start: _I64, peer: _I64
    ) -> None:
        super().__init__()
        self.node_set = node_set
        self.row_start = row_start
        self.peer = peer

    def __missing__(self, u: int) -> set[int]:
        if u not in self.node_set:
            raise KeyError(u)
        row = self[u] = set(self.peer[self.row_start[u] : self.row_start[u + 1]].tolist())
        return row

    def fill(self) -> None:
        """Build every set not built yet, in one pass over the columns."""
        peer, start = self.peer.tolist(), self.row_start.tolist()
        for u in self.node_set:
            if u not in self:
                self[u] = set(peer[start[u] : start[u + 1]])


class DynamicGraph:
    """A dynamic graph over a fixed node set with full event history.

    Parameters
    ----------
    nodes:
        The static node set ``V`` (non-negative int ids).
    initial_edges:
        Edges present at time 0 (``E_0`` in the paper), each an add event
        at ``t = 0``; an invalid one raises what :meth:`add_edge` would.

    Listeners registered via :meth:`subscribe` are invoked synchronously on
    every mutation with ``(time, u, v, added)``; the transport uses this to
    drive discovery, and the oracle to mark its view of the edges stale.
    """

    def __init__(self, nodes: Iterable[int], initial_edges: Iterable[Edge] = ()) -> None:
        # A range is its own node set (C-level membership, nothing built).
        if isinstance(nodes, range):
            self._nodes: Sequence[int] = nodes
            node_set: AbstractSet[int] | range = nodes
            ids = np.arange(nodes.start, nodes.stop, nodes.step)
        else:
            self._nodes = list(nodes)
            node_set = set(self._nodes)
            ids = np.array(self._nodes, np.int64)
        if len(node_set) != len(self._nodes):
            raise GraphError("duplicate node ids")
        self._node_set = node_set
        #: One past the largest node id: the base of the int edge keys.
        size = self.size = int(ids.max(initial=-1)) + 1
        edges = initial_edges if isinstance(initial_edges, Sequence) else list(initial_edges)
        m = len(edges)
        ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * m)
        us, vs = ends[0::2], ends[1::2]
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        valid = (lo >= 0) & (hi < size) & (lo != hi)
        if len(node_set) < size:  # gaps in the ids: not every id below size is a node
            valid &= np.isin(lo, ids) & np.isin(hi, ids)
        keys = lo * size + hi  # distinct over valid edges
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        repeat = np.zeros(m, bool)  # a later occurrence of a key
        repeat[order[1:][sorted_keys[1:] == sorted_keys[:-1]]] = True
        bad = np.flatnonzero(~valid | repeat)
        if len(bad):  # add_edge's checks, in its order, on the first bad edge
            u, v = edges[int(bad[0])]
            if valid[bad[0]]:
                raise GraphError(f"edge ({u!r}, {v!r}) already present")
            if u == v:
                raise GraphError(f"self-loop on node {u!r}")
            raise GraphError(f"unknown node in edge ({u!r}, {v!r})")
        #: ``E_0`` as canonical keys ``u * size + v`` (``u < v``), sorted.
        self.edge_keys: _I64 = sorted_keys
        # E_0's CSR: each edge enters both end rows, a row in edge order.
        by_owner = np.argsort(ends, kind="stable")
        #: Row ``u`` of ``E_0`` is ``peer[row_start[u]:row_start[u + 1]]``.
        self.row_start: _I64 = np.zeros(size + 1, np.int64)
        np.cumsum(np.bincount(ends, minlength=size), out=self.row_start[1:])
        self.peer: _I64 = ends.reshape(-1, 2)[:, ::-1].ravel()[by_owner]
        self._adj = _Rows(node_set, self.row_start, self.peer)
        # Per-edge history of the edges that changed since E_0: key ->
        # (times, added flags), parallel.  An E_0 edge's starts (0.0, True).
        self._hist_t: dict[Edge, list[float]] = {}
        self._hist_a: dict[Edge, list[bool]] = {}
        # Indexes over it: the changed edges present now -> their latest
        # add time, in the order of those adds; which E_0 edges (parallel
        # to edge_keys) changed, and the keys of those that never did
        # (None: to recompute).
        self._since: dict[Edge, float] = {}
        self._touched = np.zeros(m, bool)
        self._untouched_keys: _I64 | None = sorted_keys
        self._listeners: list[Callable[[float, int, int, bool], None]] = []
        self._last_time = 0.0
        self.edge_events = m

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Sequence[int]:
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

    def neighbor_sets(self) -> Mapping[int, set[int]]:
        """Every node's current neighbours (each set built now if it was
        not yet; live sets, do not mutate): for a reader of every row."""
        self._adj.fill()
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is currently present."""
        try:
            return v in self._adj[u]
        except KeyError:
            return False

    def edge_columns(self) -> tuple[_I64, _I64]:
        """The current edges as two id columns ``(u, v)``, ``u < v``, in
        canonical (sorted) order: ``E_0``'s keys with the changed edges'
        current state laid over them."""
        keys = self._untouched()
        if self._since:
            changed = self._keys(self._since, len(self._since))
            keys = np.sort(np.concatenate((keys, changed)))
        return self._decode(keys)

    def edges(self) -> Iterator[Edge]:
        """Iterate over current edges (canonical orientation and order)."""
        us, vs = self.edge_columns()
        return zip(us.tolist(), vs.tolist())

    def pair_keys(self) -> _I64:
        """Every directed pair ``(u, v)`` of the current graph as the key
        ``u * size + v``, sorted: each node's neighbours, node by node."""
        us, vs = self.edge_columns()
        return np.sort(np.concatenate((us * self.size + vs, vs * self.size + us)))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def subscribe(self, listener: Callable[[float, int, int, bool], None]) -> None:
        """Register a mutation listener ``(time, u, v, added) -> None``."""
        self._listeners.append(listener)

    def _check_mutation(self, u: int, v: int, time: float, added: bool) -> Edge:
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
        # Unchanged since E_0, an edge being removed is an E_0 edge: added at 0.
        last = ts[-1] if ts else None if added else 0.0
        if last == time:
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
        key = self._check_mutation(u, v, time, True)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._record(key, time, True)

    def remove_edge(self, u: int, v: int, time: float) -> None:
        """Remove edge ``{u, v}`` at ``time`` (must be present)."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        key = self._check_mutation(u, v, time, False)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._record(key, time, False)

    def _record(self, key: Edge, time: float, added: bool) -> None:
        """Append a mutation to ``key``'s history and tell the listeners."""
        ts = self._hist_t.get(key)
        if ts is None:  # its first change; a removed one was an E_0 edge
            ts = self._hist_t[key] = [] if added else [0.0]
            flags = self._hist_a[key] = [] if added else [True]
            if not added:
                k = key[0] * self.size + key[1]
                self._touched[np.searchsorted(self.edge_keys, k)] = True
                self._untouched_keys = None
        else:
            flags = self._hist_a[key]
        ts.append(time)
        flags.append(added)
        if added:
            self._since[key] = time
        else:
            self._since.pop(key, None)
        self._last_time = time
        self.edge_events += 1
        for fn in self._listeners:
            fn(time, key[0], key[1], added)

    # ------------------------------------------------------------------ #
    # Historical queries
    # ------------------------------------------------------------------ #

    def _keys(self, edges: Iterable[Edge], count: int) -> _I64:
        """``count`` canonical ``edges`` as int keys."""
        size = self.size
        return np.fromiter((u * size + v for u, v in edges), np.int64, count)

    def _decode(self, keys: _I64) -> tuple[_I64, _I64]:
        """Int edge keys back to their two id columns."""
        us = keys // self.size
        return us, keys - us * self.size

    def _untouched(self) -> _I64:
        """The keys of the ``E_0`` edges that never changed (present
        throughout ``[0, now]``), sorted."""
        keys = self._untouched_keys
        if keys is None:
            keys = self._untouched_keys = self.edge_keys[~self._touched]
        return keys

    def _edges(self, keys: _I64, changed: Iterable[Edge]) -> list[Edge]:
        """The untouched ``keys`` and the ``changed`` edges, sorted."""
        us, vs = self._decode(keys)
        return sorted([*zip(us.tolist(), vs.tolist()), *changed])

    def _history(self, key: Edge) -> tuple[Sequence[float], Sequence[bool]]:
        """``key``'s event times and added flags (an unchanged ``E_0``
        edge's: one add at 0)."""
        if key in self._hist_t:
            return self._hist_t[key], self._hist_a[key]
        k = key[0] * self.size + key[1]
        i = int(np.searchsorted(self.edge_keys, k))
        return ((0.0,), (True,)) if k in self.edge_keys[i : i + 1] else ((), ())

    def history(self, u: int, v: int) -> list[tuple[float, bool]]:
        """Full event history for an edge as ``[(time, added), ...]``."""
        return list(zip(*self._history(edge_key(u, v))))

    def event_times(self) -> list[float]:
        """All distinct mutation times, sorted (used by window scans)."""
        times = set(chain.from_iterable(self._hist_t.values()))
        if len(self.edge_keys):
            times.add(0.0)
        return sorted(times)

    def event_history(self, limit: int | None = None) -> list[tuple[float, int, int, bool]]:
        """Every mutation ever applied, as ``(time, u, v, added)``, or the
        first ``limit`` of them (``edge_events`` counts them all).

        Sorted by ``(time, u, v)``; same-instant events on *different*
        edges keep a deterministic order (an edge cannot change twice at
        one instant, so the order within a timestamp is immaterial for
        replay).
        """
        # The untouched E_0 edges are sorted already: only the first
        # ``limit`` of them can make the cut.
        us, vs = self._decode(self._untouched()[:limit])
        changed = sorted(
            (t, key[0], key[1], added)
            for key, ts in self._hist_t.items()
            for t, added in zip(ts, self._hist_a[key])
        )
        seeds = [(0.0, u, v, True) for u, v in zip(us.tolist(), vs.tolist())]
        return list(islice(merge(seeds, changed), limit))

    def live_edges(self) -> tuple[_I64, _I64, npt.NDArray[np.float64]]:
        """The current edges as columns ``(u, v, since)``, ``u < v``.

        First the ``E_0`` edges that never changed, in canonical order,
        since 0; then every other current edge, since its latest add, in
        the order of those adds (the order its current episode began).
        """
        since = self._since
        us, vs = self._decode(self._untouched())
        ends = np.fromiter(chain.from_iterable(since), np.int64, 2 * len(since))
        times = np.fromiter(since.values(), float, len(since))
        return (
            np.concatenate((us, ends[0::2])),
            np.concatenate((vs, ends[1::2])),
            np.concatenate((np.zeros(len(us)), times)),
        )

    def episodes(self) -> list[tuple[int, int, float, float | None]]:
        """Every edge episode -- one contiguous lifetime of an edge -- as
        ``(u, v, add, end)`` (``end`` is ``None`` while it lasts), sorted
        by ``(add, u, v)``."""
        us, vs = self._decode(self._untouched())
        out: list[tuple[int, int, float, float | None]] = [
            (u, v, 0.0, None) for u, v in zip(us.tolist(), vs.tolist())
        ]
        for (u, v), ts in self._hist_t.items():
            # A history alternates add, remove, add, ... from its first add.
            out += [(u, v, add, end) for add, end in zip_longest(ts[0::2], ts[1::2])]
        out.sort(key=itemgetter(2, 0, 1))
        return out

    def exists_at(self, u: int, v: int, t: float) -> bool:
        """Whether the edge is in ``E(t)``.

        Per the paper: added no later than ``t`` and not removed between the
        last add and ``t`` inclusive -- i.e. the state after the last event
        with time ``<= t``.
        """
        ts, flags = self._history(edge_key(u, v))
        i = bisect_right(ts, t) - 1
        return i >= 0 and flags[i]

    def removed_during(self, u: int, v: int, t1: float, t2: float) -> bool:
        """Whether any remove event hit the edge in the window ``(t1, t2]``."""
        key = (u, v) if u <= v else (v, u)
        ts = self._hist_t.get(key)
        if ts is None:
            return False
        flags = self._hist_a[key]
        return not all(flags[bisect_right(ts, t1) : bisect_right(ts, t2)])

    def exists_throughout(self, u: int, v: int, t1: float, t2: float) -> bool:
        """Whether the edge exists at ``t1`` and is never removed in ``[t1, t2]``.

        This is the premise of Definition 3.4 (dynamic local skew).
        """
        if t2 < t1:
            raise ValueError(f"bad interval [{t1!r}, {t2!r}]")
        return self.exists_at(u, v, t1) and not self.removed_during(u, v, t1, t2)

    def edges_at(self, t: float) -> list[Edge]:
        """The edge set ``E(t)`` (historical reconstruction), sorted."""
        keys = self._untouched() if t >= 0.0 else self.edge_keys[:0]
        return self._edges(keys, (e for e in self._hist_t if self.exists_at(*e, t)))

    def edges_existing_throughout(self, t1: float, t2: float) -> list[Edge]:
        """Edges of the static subgraph ``G[t1, t2]`` (Definition 3.1), sorted."""
        keys = self._untouched() if t1 >= 0.0 else self.edge_keys[:0]
        return self._edges(
            keys, (e for e in self._hist_t if self.exists_throughout(*e, t1, t2))
        )

    # ------------------------------------------------------------------ #
    # Connectivity windows
    # ------------------------------------------------------------------ #

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
