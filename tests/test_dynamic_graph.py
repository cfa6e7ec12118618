"""Tests for the event-sourced dynamic graph and interval connectivity."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from graph_listeners import ListenerModel

from repro.adversary import scan_interval_connectivity
from repro.harness import configs
from repro.harness.runner import Experiment
from repro.network.graph import DynamicGraph, GraphError, edge_key
from repro.network.topology import path_edges, ring_edges


class TestBasics:
    def test_initial_edges(self):
        g = DynamicGraph(range(4), [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert g.edge_count() == 2

    def test_edge_key_canonical(self):
        assert edge_key(3, 1) == (1, 3) == edge_key(1, 3)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            DynamicGraph([1, 1, 2])

    def test_ids_with_gaps(self):
        g = DynamicGraph([5, 0, 2], [(5, 2), (0, 2)])
        assert g.neighbors(2) == {0, 5} and list(g.edges()) == [(0, 2), (2, 5)]
        assert not g.has_node(1) and not g.has_edge(1, 2)
        with pytest.raises(GraphError, match="unknown node in edge"):
            DynamicGraph([0, 2, 5], [(0, 1)])

    def test_self_loop_rejected(self):
        g = DynamicGraph(range(3))
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 0.0)

    def test_unknown_node_rejected(self):
        g = DynamicGraph(range(3))
        with pytest.raises(GraphError):
            g.add_edge(0, 99, 0.0)

    def test_double_add_rejected(self):
        g = DynamicGraph(range(3), [(0, 1)])
        with pytest.raises(GraphError):
            g.add_edge(1, 0, 1.0)

    def test_remove_absent_rejected(self):
        g = DynamicGraph(range(3))
        with pytest.raises(GraphError):
            g.remove_edge(0, 1, 1.0)

    def test_time_ordering_enforced(self):
        g = DynamicGraph(range(3))
        g.add_edge(0, 1, 5.0)
        with pytest.raises(GraphError):
            g.add_edge(1, 2, 4.0)

    def test_same_instant_same_edge_rejected(self):
        g = DynamicGraph(range(3))
        g.add_edge(0, 1, 5.0)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1, 5.0)

    def test_neighbors_and_degree(self):
        g = DynamicGraph(range(4), ring_edges(4))
        assert g.degree(0) == 2
        assert g.neighbors(0) == {1, 3}

    def test_listeners_invoked(self):
        g = DynamicGraph(range(3))
        events = []
        g.subscribe(lambda t, u, v, a: events.append((t, u, v, a)))
        g.add_edge(2, 0, 1.0)
        g.remove_edge(0, 2, 2.0)
        assert events == [(1.0, 0, 2, True), (2.0, 0, 2, False)]


class TestHistory:
    def _flappy(self):
        g = DynamicGraph(range(2))
        g.add_edge(0, 1, 1.0)
        g.remove_edge(0, 1, 3.0)
        g.add_edge(0, 1, 5.0)
        return g

    def test_exists_at(self):
        g = self._flappy()
        assert not g.exists_at(0, 1, 0.5)
        assert g.exists_at(0, 1, 1.0)   # state after the event at t=1
        assert g.exists_at(0, 1, 2.9)
        assert not g.exists_at(0, 1, 3.0)  # removed at t=3 inclusive
        assert not g.exists_at(0, 1, 4.9)
        assert g.exists_at(0, 1, 5.0)

    def test_removed_during(self):
        g = self._flappy()
        assert g.removed_during(0, 1, 2.0, 4.0)
        assert g.removed_during(0, 1, 2.9, 3.0)  # window is (t1, t2]
        assert not g.removed_during(0, 1, 3.0, 4.0)
        assert not g.removed_during(0, 1, 0.0, 0.9)

    def test_exists_throughout(self):
        g = self._flappy()
        assert g.exists_throughout(0, 1, 1.0, 2.5)
        assert not g.exists_throughout(0, 1, 1.0, 3.0)
        assert g.exists_throughout(0, 1, 5.0, 100.0)
        with pytest.raises(ValueError):
            g.exists_throughout(0, 1, 2.0, 1.0)

    def test_edges_at(self):
        g = self._flappy()
        assert g.edges_at(2.0) == [(0, 1)]
        assert g.edges_at(4.0) == []

    def test_history_list(self):
        g = self._flappy()
        assert g.history(1, 0) == [(1.0, True), (3.0, False), (5.0, True)]

    def test_live_edges_and_episodes(self):
        g = DynamicGraph(range(4), [(2, 3), (0, 1), (1, 2)])
        g.add_edge(0, 3, 1.0)
        g.remove_edge(0, 1, 2.0)
        g.add_edge(0, 2, 3.0)
        g.add_edge(0, 1, 4.0)  # a re-added E_0 edge joins at its re-add
        g.remove_edge(0, 3, 5.0)
        g.add_edge(0, 3, 6.0)  # a re-add moves to the end
        us, vs, since = g.live_edges()
        assert us.dtype == vs.dtype == np.int64 and since.dtype == np.float64
        assert list(zip(us.tolist(), vs.tolist(), since.tolist())) == [
            (1, 2, 0.0), (2, 3, 0.0), (0, 2, 3.0), (0, 1, 4.0), (0, 3, 6.0)
        ]
        assert g.episodes() == [
            (0, 1, 0.0, 2.0), (1, 2, 0.0, None), (2, 3, 0.0, None),
            (0, 3, 1.0, 5.0), (0, 2, 3.0, None), (0, 1, 4.0, None), (0, 3, 6.0, None),
        ]

    def test_event_history_limit(self):
        g = DynamicGraph(range(4), [(2, 3), (0, 1)])
        g.add_edge(0, 2, 0.0)  # a t = 0 add sorts among E_0 by (u, v)
        g.remove_edge(0, 1, 1.0)
        full = g.event_history()
        assert full == [
            (0.0, 0, 1, True), (0.0, 0, 2, True), (0.0, 2, 3, True), (1.0, 0, 1, False)
        ]
        assert len(full) == g.edge_events
        assert [g.event_history(k) for k in range(6)] == [full[:k] for k in range(6)]


class TestConnectivity:
    def test_connected_now(self):
        g = DynamicGraph(range(4), path_edges(4))
        assert scan_interval_connectivity(g, 1.0, 1.0).ok
        g.remove_edge(1, 2, 1.0)
        report = scan_interval_connectivity(g, 0.5, 2.0)
        assert not report.ok and report.violations[-1].t1 > 1.0  # after the cut

    def test_single_node_connected(self):
        assert scan_interval_connectivity(DynamicGraph([7]), 1.0, 5.0).ok

    def test_connected_throughout_window(self):
        g = DynamicGraph(range(3), path_edges(3))
        g.remove_edge(0, 1, 5.0)
        g.add_edge(0, 2, 6.0)
        # During [0, 4] the original path exists throughout.
        assert scan_interval_connectivity(g, 4.0, 4.0).ok
        # A window over [5, 6] loses (0, 1) and gains (0, 2) late: neither
        # exists *throughout*, so the static subgraph is disconnected.
        # After 6, the new topology is stable.
        report = scan_interval_connectivity(g, 3.0, 10.0)
        assert report.violations and not report.truncated
        assert all(v.t1 <= 6.0 and v.t2 >= 5.0 for v in report.violations)
        assert report.windows_checked > len(report.violations)

    def test_interval_connectivity_holds_for_stable_backbone(self):
        g = DynamicGraph(range(5), path_edges(5))
        g.add_edge(0, 2, 1.0)
        g.remove_edge(0, 2, 4.0)
        g.add_edge(1, 4, 6.0)
        assert scan_interval_connectivity(g, 2.0, 10.0).ok

    def test_interval_connectivity_detects_gap(self):
        g = DynamicGraph(range(3), path_edges(3))
        g.remove_edge(0, 1, 5.0)  # permanently disconnects node 0
        assert not scan_interval_connectivity(g, 2.0, 10.0).ok

    def test_distances(self):
        g = DynamicGraph(range(5), path_edges(5))
        d = g.distances_from(0)
        assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distances_historic(self):
        g = DynamicGraph(range(4), path_edges(4))
        g.add_edge(0, 3, 2.0)
        assert g.distances_from(0, t=1.0)[3] == 3
        assert g.distances_from(0, t=2.5)[3] == 1


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
        max_size=40,
    )
)
def test_property_exists_at_matches_replay(script):
    """exists_at(t) agrees with a naive forward replay of the history."""
    g = DynamicGraph(range(6))
    applied = []  # (time, u, v, added)
    t = 1.0
    for u, v, want_add in script:
        if u == v:
            continue
        if want_add and not g.has_edge(u, v):
            g.add_edge(u, v, t)
            applied.append((t, *edge_key(u, v), True))
        elif not want_add and g.has_edge(u, v):
            g.remove_edge(u, v, t)
            applied.append((t, *edge_key(u, v), False))
        t += 1.0
    # Naive replay check at half-integer probe times.
    probe = 0.5
    while probe < t + 1:
        state: dict[tuple[int, int], bool] = {}
        for et, u, v, added in applied:
            if et <= probe:
                state[(u, v)] = added
        for (u, v), present in state.items():
            assert g.exists_at(u, v, probe) == present
        probe += 1.0


@st.composite
def _scripts(draw):
    """A node set, an E_0 (distinct pairs, either orientation) and a
    time-ordered script of adds, removes and reads (``touch``: build a
    node's set early), some of them invalid."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    e0, seen = [], set()
    for u, v in draw(st.lists(pairs, max_size=20)):
        if u != v and edge_key(u, v) not in seen:
            seen.add(edge_key(u, v))
            e0.append((u, v))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["add", "remove", "touch"]), pairs, st.sampled_from([0.0, 0.0, 0.5, 1.0])),
        max_size=30,
    ))
    return n, e0, steps


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_property_columns_graph_equals_a_set_model(script):
    """The columns graph answers every query as a plain model does: one set
    per node, filled in insertion order (E_0, then the script), and every
    edge's history from an add at 0 -- whenever a node's set is built.
    After every mutation (re-adds and t = 0 adds included) its live edges
    and episodes are what a mutation listener builds."""
    n, e0, steps = script
    g = DynamicGraph(range(n), e0)
    listener = ListenerModel(g)
    adj = {u: set() for u in range(n)}
    hist: dict[tuple[int, int], list[tuple[float, bool]]] = {}
    for u, v in e0:
        adj[u].add(v)
        adj[v].add(u)
        hist[edge_key(u, v)] = [(0.0, True)]
    t = 0.0
    for op, (u, v), dt in steps:
        t += dt
        if op == "touch":
            g.neighbors(u)
            continue
        key = edge_key(u, v)
        valid = u != v and (v in adj[u]) == (op == "remove") and (
            not hist.get(key) or hist[key][-1][0] != t
        )
        if not valid:
            with pytest.raises(GraphError):
                (g.add_edge if op == "add" else g.remove_edge)(u, v, t)
            continue
        (g.add_edge if op == "add" else g.remove_edge)(u, v, t)
        (adj[u].add if op == "add" else adj[u].discard)(v)
        (adj[v].add if op == "add" else adj[v].discard)(u)
        hist.setdefault(key, []).append((t, op == "add"))
        # What a subscriber built, read off the history: ids, order, ages.
        us, vs, since = g.live_edges()
        assert list(zip(us.tolist(), vs.tolist(), since.tolist())) == listener.live_edges()
        assert g.episodes() == listener.episodes()
    model_edges = {(u, v) for u in adj for v in adj[u] if u < v}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for u in range(n):
        assert list(g.neighbors(u)) == list(adj[u])  # same set, same order
        assert g.degree(u) == len(adj[u])
    assert all(g.has_edge(u, v) == (v in adj[u]) for u, v in pairs)
    assert g.edge_count() == len(model_edges)
    assert list(g.edges()) == sorted(model_edges)
    owners, peers = g.adjacency()
    assert Counter(zip(owners.tolist(), peers.tolist())) == Counter(
        (u, v) for u in adj for v in adj[u]
    )
    for u, v in pairs:
        assert g.history(u, v) == hist.get(edge_key(u, v), [])
    times = sorted({s for h in hist.values() for s, _ in h})
    assert g.event_times() == times
    assert g.event_history() == sorted(
        (s, *key, added) for key, h in hist.items() for s, added in h
    )
    for probe in (-1.0, *times, t + 1.0):
        state = {
            key for key, h in hist.items()
            if [a for s, a in h if s <= probe][-1:] == [True]
        }
        assert set(g.edges_at(probe)) == state
        for u, v in pairs:
            key = edge_key(u, v)
            assert g.exists_at(u, v, probe) == (key in state)
            assert g.removed_during(u, v, probe, t + 1.0) == any(
                not a for s, a in hist.get(key, []) if probe < s
            )


@settings(max_examples=100, deadline=None)
@given(_scripts())
def test_property_slot_columns_drop_what_the_graph_drops(script):
    """The batch table's in-flight drop rule -- ``live`` and ``cut``, the
    last removal's time, on the receiver's slot -- is the graph's Section
    3.2 predicate for every message a slotted pair can carry: one sent
    while the edge existed, at or after the pair took its slots (``touch``
    takes them here).  Re-adds, and pairs first slotted after a removal,
    included."""
    n, e0, steps = script
    exp = Experiment(replace(configs.huge_sync_ring(9, horizon=1.0), initial_edges=e0))
    g, table = exp.graph, exp.transport._store
    since = {pair: 0.0 for u, v in e0 for pair in ((u, v), (v, u))}
    t = 0.0
    for op, (u, v), dt in steps:
        t += dt
        if u == v:
            continue
        if op == "touch":
            table.slot(u, v)
            since.setdefault((u, v), t)
            since.setdefault((v, u), t)
        elif (op == "add") != g.has_edge(u, v) and all(s != t for s, _ in g.history(u, v)):
            (g.add_edge if op == "add" else g.remove_edge)(u, v, t)
    msgs = [
        (u, v, sent)
        for (u, v), first in since.items()
        for sent in (k / 4 for k in range(int(4 * t) + 1))
        if sent >= first and g.exists_at(u, v, sent)
    ]
    lost = [not g.has_edge(u, v) or g.removed_during(u, v, sent, t) for u, v, sent in msgs]
    assert [table.lost(u, v, sent) for u, v, sent in msgs] == lost
    for sent in {sent for *_, sent in msgs}:
        burst = [(i, u, v) for i, (u, v, s) in enumerate(msgs) if s == sent]
        at, us, vs = zip(*burst)
        assert table.lost_in_flight(us, vs, sent, None) == [
            j for j, i in enumerate(at) if lost[i]
        ]
    assert table.removals == sum(not added for *_, added in g.event_history())
