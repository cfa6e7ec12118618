"""T-interval connectivity certification (Definition 3.1).

The paper's guarantees hold only for executions whose dynamic graph is
T-interval connected: for every ``t``, the static subgraph ``G[t, t+T]`` of
edges existing *throughout* ``[t, t+T]`` connects all nodes.  Scripted and
random schedules can be audited by eye; adversarially generated schedules
cannot, so this module provides the machinery to certify them:

* :func:`scan_interval_connectivity` reads a
  :class:`~repro.network.graph.DynamicGraph`'s history -- a finished run's,
  or a live one's as it stands -- and certifies, exactly, that every window
  of length ``interval`` within ``[0, t_end]`` is connected, returning the
  violating windows when it is not.  Window contents change only when an
  edge event enters or leaves the window, so checking windows anchored at
  0, at each event time (and just after it), and at each ``event time -
  interval`` (where a removal first enters a window's right end) is
  exhaustive -- see
  :meth:`~repro.network.graph.DynamicGraph.window_anchors`.

* :class:`ConnectivityGuard` is the *online* counterpart used by the
  topology adversary to refuse moves: removing edge ``e`` at time ``t`` is
  allowed only if ``e`` is not protected, the current snapshot stays
  connected without it, and the trailing window ``G[t - interval, t]``
  stays connected without it.  The guard is conservative (it cannot know
  future insertions), which is the right direction: every schedule it
  admits that also keeps a spanning protected set alive passes the exact
  scan, and the benchmark acceptance check runs the exact scan over every
  adversary-emitted schedule regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..network.graph import DynamicGraph, edge_key

__all__ = [
    "CertificationReport",
    "ConnectivityGuard",
    "WindowViolation",
    "scan_interval_connectivity",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class WindowViolation:
    """One disconnected window ``[t1, t2]`` found during certification."""

    t1: float
    t2: float
    #: Nodes reachable from the lowest node id in ``G[t1, t2]``.
    reachable: int
    #: Edge count of ``G[t1, t2]``.
    edges: int


@dataclass
class CertificationReport:
    """Outcome of one certification pass."""

    interval: float
    t_end: float
    windows_checked: int = 0
    violations: list[WindowViolation] = field(default_factory=list)
    #: Whether the scan stopped at its ``max_violations`` cap: one more
    #: window was disconnected, and the later ones went unchecked.
    truncated: bool = False

    @property
    def ok(self) -> bool:
        """Whether every window was checked and found connected."""
        return not self.violations and not self.truncated

    def summary(self) -> str:
        """One-line human-readable verdict."""
        more = "+" if self.truncated else ""
        verdict = "PASS" if self.ok else f"FAIL ({len(self.violations)}{more} windows)"
        return (
            f"{self.interval:g}-interval connectivity over [0, {self.t_end:g}]: "
            f"{verdict} ({self.windows_checked} windows checked)"
        )


def _reachable(nodes: Sequence[int], edges: Iterable[Edge]) -> int:
    """Size of the component containing ``nodes[0]``."""
    if not nodes:
        return 0
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = nodes[0]
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def scan_interval_connectivity(
    graph: DynamicGraph,
    interval: float,
    t_end: float,
    *,
    max_violations: int = 64,
) -> CertificationReport:
    """Exactly certify ``interval``-interval connectivity of a graph history.

    Same anchor set as
    :meth:`~repro.network.graph.DynamicGraph.window_anchors` (0, every
    event time and just after it, and every ``event time - interval`` --
    exhaustive because window contents change only when an event enters or
    leaves a window), and reports the violating windows.  The scan stops
    at the first disconnected window past ``max_violations`` recorded ones
    (the report is ``truncated``, hence failed, whatever the cap).
    """
    if interval <= 0.0:
        raise ValueError(f"interval must be positive; got {interval!r}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be >= 0; got {t_end!r}")
    report = CertificationReport(interval=float(interval), t_end=float(t_end))
    nodes = graph.nodes
    n = graph.n
    for t1 in graph.window_anchors(interval, t_end):
        t2 = min(t1 + interval, t_end)
        window_edges = graph.edges_existing_throughout(t1, t2)
        report.windows_checked += 1
        reach = _reachable(nodes, window_edges)
        if n > 1 and reach < n:
            if len(report.violations) >= max_violations:
                report.truncated = True
                break
            report.violations.append(
                WindowViolation(t1=t1, t2=t2, reachable=reach, edges=len(window_edges))
            )
    return report


class ConnectivityGuard:
    """Online admission control for adversarial topology moves.

    Parameters
    ----------
    graph:
        The live graph the adversary mutates.
    interval:
        The T-interval connectivity target (``None`` disables the trailing
        window check and guards snapshot connectivity only).
    protected:
        Edges the adversary must never remove (typically a spanning
        backbone, which by itself guarantees every window is connected).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        interval: float | None = None,
        protected: Iterable[Edge] = (),
    ) -> None:
        self.graph = graph
        self.interval = None if interval is None else float(interval)
        self.protected = {edge_key(*e) for e in protected}
        #: Moves refused so far (exposed for tests and reports).
        self.refusals = 0

    def allows_removal(self, u: int, v: int, t: float) -> bool:
        """Whether removing ``{u, v}`` at ``t`` is certifiably safe."""
        e = edge_key(u, v)
        if e in self.protected:
            self.refusals += 1
            return False
        if not self.graph.has_edge(*e):
            self.refusals += 1
            return False
        nodes = self.graph.nodes
        n = self.graph.n
        survivors = [other for other in self.graph.edges() if other != e]
        if n > 1 and _reachable(nodes, survivors) < n:
            self.refusals += 1
            return False
        if self.interval is not None:
            t1 = max(0.0, t - self.interval)
            window = [
                other
                for other in self.graph.edges_existing_throughout(t1, t)
                if other != e
            ]
            if n > 1 and _reachable(nodes, window) < n:
                self.refusals += 1
                return False
        return True
