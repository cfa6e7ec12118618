"""Tests for static topology builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.topology import (
    grid_edges,
    path_edges,
    random_geometric,
    ring_edges,
    star_edges,
    two_chain_edges,
)


def _is_connected(n, edges):
    adj = {u: [] for u in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


class TestBasicShapes:
    def test_path(self):
        e = path_edges(5)
        assert e == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_ring(self):
        e = ring_edges(6)
        assert len(e) == 6
        assert _is_connected(6, e)

    def test_star(self):
        e = star_edges(7)
        assert len(e) == 6
        assert all(0 in edge for edge in e)

    def test_grid(self):
        e = grid_edges(3, 4)
        assert len(e) == 3 * 3 + 2 * 4  # horizontal + vertical
        assert _is_connected(12, e)

    def test_validation(self):
        with pytest.raises(ValueError):
            path_edges(0)
        with pytest.raises(ValueError):
            ring_edges(2)
        with pytest.raises(ValueError):
            grid_edges(0, 3)


class TestRandomTopologies:
    def test_geometric_connected(self, rng):
        edges, pos = random_geometric(20, 0.3, rng)
        assert pos.shape == (20, 2)
        assert _is_connected(20, edges)

    def test_geometric_radius_respected(self, rng):
        edges, pos = random_geometric(15, 0.25, rng, ensure_connected=False)
        for u, v in edges:
            assert np.linalg.norm(pos[u] - pos[v]) <= 0.25 + 1e-12

    def test_geometric_bridging_fallback(self, rng):
        # A tiny radius cannot connect 12 random points; bridges must kick in.
        edges, pos = random_geometric(12, 0.01, rng, max_tries=2)
        assert _is_connected(12, edges)


class TestTwoChain:
    def test_structure(self):
        edges, chains = two_chain_edges(12)
        a, b = chains["A"], chains["B"]
        assert a[0] == b[0] == 0
        assert a[-1] == b[-1] == 11
        # Interior nodes are disjoint and cover everything.
        interior = set(a[1:-1]) | set(b[1:-1])
        assert interior == set(range(1, 11))
        assert not (set(a[1:-1]) & set(b[1:-1]))
        assert _is_connected(12, edges)

    def test_chain_lengths_match_paper(self):
        # |I_A| = floor(n/2) - 1 interior nodes, |I_B| = ceil(n/2) - 1.
        for n in (8, 9, 12, 17):
            _, chains = two_chain_edges(n)
            assert len(chains["A"]) - 2 == n // 2 - 1
            assert len(chains["B"]) - 2 == (n + 1) // 2 - 1

    def test_edge_count(self):
        edges, chains = two_chain_edges(10)
        assert len(edges) == (len(chains["A"]) - 1) + (len(chains["B"]) - 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            two_chain_edges(5)
