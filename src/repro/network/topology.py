"""Static topology builders.

Each builder returns a list of canonical edges over node ids ``0..n-1``;
geometric builders also return node positions.  These seed the initial edge
set ``E_0`` of an execution and provide the backbones churn processes keep
alive.

The paper's constructions use paths and two-chain networks (Figure 1);
wireless-flavoured experiments use random geometric graphs; scalability
benches use rings and grids.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "path_edges",
    "ring_edges",
    "star_edges",
    "grid_edges",
    "random_geometric",
    "two_chain_edges",
]

Edge = tuple[int, int]


def path_edges(n: int) -> list[Edge]:
    """Path ``0 - 1 - ... - (n-1)`` (diameter ``n - 1``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [(i, i + 1) for i in range(n - 1)]


def ring_edges(n: int) -> list[Edge]:
    """Cycle on ``n`` nodes (diameter ``n // 2``)."""
    if n < 3:
        raise ValueError("a ring needs n >= 3")
    return [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)]


def star_edges(n: int) -> list[Edge]:
    """Star with centre 0 (diameter 2)."""
    if n < 2:
        raise ValueError("a star needs n >= 2")
    return [(0, i) for i in range(1, n)]


def grid_edges(rows: int, cols: int) -> list[Edge]:
    """4-neighbour grid; node ``(r, c)`` has id ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return edges


def random_geometric(
    n: int,
    radius: float,
    rng: np.random.Generator,
    *,
    ensure_connected: bool = True,
    max_tries: int = 200,
) -> tuple[list[Edge], np.ndarray]:
    """Random geometric graph in the unit square.

    Nodes are i.i.d. uniform points; an edge joins any pair within
    ``radius``.  With ``ensure_connected`` the sampling is retried (and, as
    a last resort, nearest-neighbour bridges are added) so the result is
    connected -- required when the graph seeds an execution whose analysis
    assumes interval connectivity.

    Returns ``(edges, positions)`` with ``positions`` of shape ``(n, 2)``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    for _ in range(max_tries):
        pos = rng.random((n, 2))
        edges = edges_within_radius(pos, radius)
        if not ensure_connected or _is_connected(n, edges):
            return edges, pos
    # Fall back: connect components greedily by shortest bridge.
    pos = rng.random((n, 2))
    edges = edges_within_radius(pos, radius)
    edges = _bridge_components(n, edges, pos)
    return edges, pos


def edges_within_radius(pos: np.ndarray, radius: float) -> list[Edge]:
    """All pairs within Euclidean ``radius`` (vectorised O(n^2))."""
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu, ju = np.triu_indices(n, k=1)
    mask = d2[iu, ju] <= radius * radius
    return [(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])]


def two_chain_edges(n: int) -> tuple[list[Edge], dict[str, list[int]]]:
    """The two-chain network of the Figure 1 lower-bound construction.

    Nodes ``w_0`` (id 0) and ``w_n`` (id ``n - 1``) are joined by two
    disjoint chains: chain A through ids ``1 .. floor(n/2) - 1`` and chain B
    through the remaining ids.  Returns ``(edges, chains)`` where
    ``chains["A"]`` / ``chains["B"]`` list the node ids along each chain
    from ``w_0`` to ``w_n`` inclusive.
    """
    if n < 6:
        raise ValueError("the two-chain construction needs n >= 6")
    w0, wn = 0, n - 1
    n_a = n // 2 - 1          # |I_A| interior nodes on chain A
    n_b = (n + 1) // 2 - 1    # |I_B| interior nodes on chain B
    a_nodes = list(range(1, 1 + n_a))
    b_nodes = list(range(1 + n_a, 1 + n_a + n_b))
    chain_a = [w0, *a_nodes, wn]
    chain_b = [w0, *b_nodes, wn]
    edges = [
        *( (chain_a[i], chain_a[i + 1]) for i in range(len(chain_a) - 1) ),
        *( (chain_b[i], chain_b[i + 1]) for i in range(len(chain_b) - 1) ),
    ]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    return edges, {"A": chain_a, "B": chain_b}


def _is_connected(n: int, edges: Sequence[Edge]) -> bool:
    adj: dict[int, list[int]] = {u: [] for u in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _bridge_components(n: int, edges: list[Edge], pos: np.ndarray) -> list[Edge]:
    """Add shortest bridges between components until connected."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)
    out = list(edges)
    while True:
        roots = {find(x) for x in range(n)}
        if len(roots) == 1:
            return out
        # Find the globally shortest inter-component pair.
        best = None
        for u in range(n):
            for v in range(u + 1, n):
                if find(u) != find(v):
                    d = float(np.sum((pos[u] - pos[v]) ** 2))
                    if best is None or d < best[0]:
                        best = (d, u, v)
        assert best is not None
        _, u, v = best
        out.append((u, v))
        union(u, v)
