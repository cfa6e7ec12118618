"""Tests for delay masks, flexible distances, and the alpha delay policy."""

from __future__ import annotations

import pytest

from repro import SystemParams
from repro.lowerbound.mask import AlphaDelayPolicy, DelayMask, flexible_distances
from repro.network.topology import path_edges, two_chain_edges


class TestDelayMask:
    def test_constrained_lookup(self):
        m = DelayMask({(2, 1): 0.7}, max_delay=1.0)
        assert m.is_constrained(1, 2) and m.is_constrained(2, 1)
        assert m.pattern(1, 2) == 0.7
        assert not m.is_constrained(0, 1)

    def test_delay_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            DelayMask({(0, 1): 1.5}, max_delay=1.0)


class TestFlexibleDistances:
    def test_unmasked_path_equals_hops(self):
        edges = path_edges(6)
        m = DelayMask({}, 1.0)
        d = flexible_distances(range(6), edges, m, 0)
        assert d == {i: i for i in range(6)}

    def test_constrained_edges_cost_zero(self):
        edges = path_edges(6)
        m = DelayMask({(0, 1): 1.0, (1, 2): 1.0}, 1.0)
        d = flexible_distances(range(6), edges, m, 0)
        assert d == {0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3}

    def test_two_chain_distances(self):
        n = 16
        edges, chains = two_chain_edges(n)
        a = chains["A"]
        k = 2
        blocked = {}
        for i in range(k):
            blocked[(a[i], a[i + 1])] = 1.0
            blocked[(a[-1 - i], a[-2 - i])] = 1.0
        m = DelayMask(blocked, 1.0)
        d = flexible_distances(range(n), edges, m, a[k])
        # Reference layer: u, the blocked prefix and w0 are all at 0.
        assert d[a[k]] == 0 and d[a[0]] == 0
        # v and the blocked suffix share the same (maximal A) layer.
        assert d[a[-1 - k]] == d[a[-1]]
        assert d[a[-1 - k]] == len(a) - 1 - 2 * k
        # Adjacent nodes never differ by more than 1.
        for u, v in edges:
            assert abs(d[u] - d[v]) <= 1

    def test_unknown_source_rejected(self):
        m = DelayMask({}, 1.0)
        with pytest.raises(ValueError):
            flexible_distances(range(3), path_edges(3), m, 99)


class TestAlphaDelayPolicy:
    def _policy(self, n=5, constrained=None):
        edges = path_edges(n)
        m = DelayMask(constrained or {}, 1.0)
        d = flexible_distances(range(n), edges, m, 0)
        return AlphaDelayPolicy(m, d, edges), d

    def test_directional_delays(self):
        p, _ = self._policy()
        # Away from the reference: full delay; toward it: zero.
        assert p.delay(0, 1, 0.0) == 1.0
        assert p.delay(1, 0, 0.0) == 0.0
        assert p.delay(3, 4, 5.0) == 1.0
        assert p.delay(4, 3, 5.0) == 0.0

    def test_constrained_edges_symmetric(self):
        p, d = self._policy(constrained={(0, 1): 0.6})
        assert p.delay(0, 1, 0.0) == 0.6
        assert p.delay(1, 0, 0.0) == 0.6

    def test_same_layer_unconstrained_edge_gets_half_delay(self):
        # A 4-cycle from the reference has two same-layer nodes at the top.
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
        m = DelayMask({}, 1.0)
        d = flexible_distances(range(4), edges, m, 0)
        assert d == {0: 0, 1: 1, 2: 1, 3: 2}
        p = AlphaDelayPolicy(m, d, edges)
        assert p.delay(1, 2, 0.0) == 0.5
        assert p.delay(2, 1, 0.0) == 0.5

    @pytest.mark.parametrize(
        "constrained,dists,message",
        [
            ({(0, 1): 0.6}, {0: 0, 1: 1, 2: 2}, "constrained edge .0, 1. joins different layers"),
            ({}, {0: 0, 1: 2, 2: 3}, "unconstrained edge .0, 1. joins layers 0 and 2"),
        ],
    )
    def test_distances_the_edges_contradict_are_refused(self, constrained, dists, message):
        with pytest.raises(ValueError, match=message):
            AlphaDelayPolicy(DelayMask(constrained, 1.0), dists, path_edges(3))

    def test_mask_repr(self):
        assert repr(DelayMask({(0, 1): 0.6}, 1.0)) == "DelayMask(1 constrained edges, max_delay=1.0)"

    def test_unknown_direction_raises(self):
        p, _ = self._policy()
        with pytest.raises(KeyError):
            p.delay(0, 4, 0.0)

    def test_has_direction(self):
        p, _ = self._policy()
        assert p.has_direction(0, 1) and p.has_direction(1, 0)
        assert not p.has_direction(0, 4)

    def test_constrained_edge_must_join_same_layer(self):
        # Constraining (1,2) on a path rooted at 0 gives dist(1) == dist(2),
        # which is consistent; but a *mask* whose constrained edge ends up
        # spanning layers is impossible by construction (0-weight edges
        # collapse layers), so AlphaDelayPolicy accepts any valid BFS input.
        edges = path_edges(4)
        m = DelayMask({(1, 2): 1.0}, 1.0)
        d = flexible_distances(range(4), edges, m, 0)
        assert d[1] == d[2] == 1
        AlphaDelayPolicy(m, d, edges)  # must not raise
