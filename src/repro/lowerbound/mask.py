"""Delay masks and flexible distances (Definitions 4.1-4.3).

A **delay mask** ``M = (E_C, P)`` pins the delay of every *constrained* edge
``e in E_C`` to (essentially) ``P(e)``, leaving the adversary free to play
the shifting technique only on the *unconstrained* edges.  The
**M-flexible distance** ``dist_M(u, v)`` is the minimum number of
unconstrained edges on any ``u``-``v`` path -- the currency in which the
Masking Lemma buys skew: the adversary can hide ``max_delay`` of clock shift
per unit of flexible distance.

This module provides the mask value object, 0/1-weight BFS for flexible
distances, and the *alpha-execution* delay policy of Lemma 4.2:

* constrained edge: delay ``P(e)`` in both directions;
* unconstrained edge ``{x, y}`` with ``x`` strictly closer to the reference
  node: ``x -> y`` takes ``max_delay``, ``y -> x`` takes ``0``.

The companion beta execution (drifted clocks, disguised delays) lives in
:mod:`repro.lowerbound.executions`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from ..network.channels import DelayPolicy
from ..network.graph import edge_key

__all__ = ["DelayMask", "flexible_distances", "AlphaDelayPolicy"]

Edge = tuple[int, int]


class DelayMask:
    """A delay mask ``M = (E_C, P)`` over a static edge set.

    Parameters
    ----------
    constrained:
        Mapping from constrained edges to their pinned delay ``P(e)``; all
        values must lie in ``[0, max_delay]``.
    max_delay:
        :math:`\\mathcal{T}`, used for validation and for the unconstrained
        directional delays.
    """

    def __init__(self, constrained: Mapping[Edge, float], max_delay: float) -> None:
        self.max_delay = float(max_delay)
        self.constrained: dict[Edge, float] = {}
        for e, p in constrained.items():
            p = float(p)
            if not (0.0 <= p <= self.max_delay + 1e-12):
                raise ValueError(
                    f"constrained delay {p!r} outside [0, {self.max_delay}] for {e}"
                )
            self.constrained[edge_key(*e)] = p

    def is_constrained(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` belongs to ``E_C``."""
        return edge_key(u, v) in self.constrained

    def pattern(self, u: int, v: int) -> float:
        """``P({u, v})`` (raises for unconstrained edges)."""
        return self.constrained[edge_key(u, v)]

    def __repr__(self) -> str:
        return (
            f"DelayMask({len(self.constrained)} constrained edges, "
            f"max_delay={self.max_delay})"
        )


def flexible_distances(
    nodes: Iterable[int],
    edges: Sequence[Edge],
    mask: DelayMask,
    source: int,
) -> dict[int, int]:
    """``dist_M(source, .)`` for every reachable node (Definition 4.3).

    0/1 BFS: constrained edges cost 0, unconstrained edges cost 1.
    """
    node_list = list(nodes)
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in node_list}
    for u, v in edges:
        w = 0 if mask.is_constrained(u, v) else 1
        adj[u].append((v, w))
        adj[v].append((u, w))
    if source not in adj:
        raise ValueError(f"unknown source node {source!r}")
    dist: dict[int, int] = {source: 0}
    dq: deque[int] = deque([source])
    while dq:
        x = dq.popleft()
        dx = dist[x]
        for y, w in adj[x]:
            nd = dx + w
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                if w == 0:
                    dq.appendleft(y)
                else:
                    dq.append(y)
    return dist


class AlphaDelayPolicy(DelayPolicy):
    """Delays of execution *alpha* in the proof of Lemma 4.2.

    Built from a mask and the flexible distances from the reference node:

    * constrained edges carry exactly ``P(e)``;
    * unconstrained edges between *adjacent* layers carry ``max_delay`` in
      the away-from-reference direction and ``0`` toward it;
    * unconstrained edges joining two nodes of the *same* layer (these occur
      at the peak of the flexible-distance profile on cycles, e.g. the
      two-chain network when the layer count is odd) carry a symmetric
      ``max_delay / 2``.  Same-layer endpoints share the same beta clock
      schedule, so the disguised beta delay stays within
      ``[max_delay/(2(1+rho)), max_delay/2]`` -- always legal.  The paper's
      case analysis only covers constrained same-layer edges; this is the
      natural extension (any symmetric constant works) and the legality
      property tests cover it.

    BFS guarantees adjacent flexible distances differ by at most 1, so the
    two unconstrained cases above are exhaustive.
    """

    def __init__(self, mask: DelayMask, dists: Mapping[int, int], edges: Sequence[Edge]) -> None:
        self.mask = mask
        self.dists = dict(dists)
        self._directed: dict[tuple[int, int], float] = {}
        for u, v in edges:
            key = edge_key(u, v)
            if mask.is_constrained(*key):
                p = mask.pattern(*key)
                self._directed[(key[0], key[1])] = p
                self._directed[(key[1], key[0])] = p
                if self.dists[key[0]] != self.dists[key[1]]:
                    raise ValueError(
                        f"constrained edge {key} joins different layers "
                        f"({self.dists[key[0]]} vs {self.dists[key[1]]}) -- "
                        "impossible for a 0-weight edge"
                    )
                continue
            du, dv = self.dists[key[0]], self.dists[key[1]]
            if du == dv:
                half = 0.5 * mask.max_delay
                self._directed[(key[0], key[1])] = half
                self._directed[(key[1], key[0])] = half
                continue
            if abs(du - dv) != 1:
                raise ValueError(
                    f"unconstrained edge {key} joins layers {du} and {dv}"
                )
            lo, hi = (key[0], key[1]) if du < dv else (key[1], key[0])
            self._directed[(lo, hi)] = mask.max_delay  # away from reference
            self._directed[(hi, lo)] = 0.0  # toward reference

    def delay(self, u: int, v: int, t: float) -> float:
        d = self._directed.get((u, v))
        if d is None:
            raise KeyError(f"no alpha delay defined for direction ({u}, {v})")
        return d

    def directed_delay(self, u: int, v: int) -> float:
        """The (constant) alpha delay for direction ``u -> v``."""
        return self._directed[(u, v)]

    def has_direction(self, u: int, v: int) -> bool:
        """Whether this policy covers direction ``u -> v``."""
        return (u, v) in self._directed
