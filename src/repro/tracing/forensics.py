"""Violation forensics: walk the span DAG backwards from a violation.

The paper's skew bounds are causal: a node's estimate of a neighbour is
only as fresh as the latest *time-respecting path* of message flights
that reached it (Lemma 6.4 ff.), so when the streaming oracle reports a
broken bound the question "why" is a graph question — which flights (and
their delays), which churn events and which jumps fed the stale
information that let the skew cross the envelope.

:func:`explain_violation` answers it with a backward latest-information
relaxation over delivered flights:

* start from the violating edge's *sink* endpoint with
  ``latest[sink] = T`` (the violation time);
* a delivered flight ``u -> v`` with arrival ``t1 <= latest[v]`` carries
  information sent at ``t0``, so it can improve ``latest[u]`` to ``t0``;
* iterating to a fixpoint yields, for the opposite endpoint *src*, the
  send time of the freshest information about *src* available at *sink*
  — and the ``pred`` edges reconstruct the **last-contact path**.

``staleness = T - latest[src]`` is exactly the quantity the adversary
maximizes (the Masking Lemma hides ``max_delay`` of drift per hop), so
the ranked causes decompose it: the causal chain itself, flights pinned
at the adversary's ``max_delay`` ("masked"), other slow flights, churn
in the window, and discrete jumps on the endpoints.  Scores are in time
units; the chain's score (staleness plus path flight time) dominates its
own components by construction, so the top cause is always the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .spans import (
    SPAN_EDGE,
    SPAN_FLIGHT,
    SPAN_JUMP,
    STATUS_DONE,
    SpanTable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from ..harness.runner import RunResult
    from ..oracle.monitors import Violation
    from ..params import SystemParams

__all__ = ["Cause", "CauseReport", "explain_result", "explain_violation"]

#: Tolerance when testing ``duration >= max_delay`` (the adaptive masking
#: policy returns exactly ``max_delay``; guard float round-off).
_MASK_EPS = 1e-9

#: Per-category cap on subordinate causes in one report.
_MAX_CAUSES_PER_KIND = 5

#: Relaxation passes before giving up (paths longer than this are absurd).
_MAX_PASSES = 64


@dataclass(frozen=True)
class Cause:
    """One ranked contribution to a violation.

    ``kind`` is a stable tag (``"causal_chain"``, ``"masked_flight"``,
    ``"slow_flight"``, ``"churn"``, ``"jump"``, ``"stale_information"``);
    ``score`` is in model-time units (bigger = more blame); ``spans``
    are span ids into the run's table; ``edge`` names the directed pair
    the cause acts on when that is meaningful.
    """

    kind: str
    score: float
    description: str
    spans: tuple[int, ...] = ()
    edge: tuple[int, int] | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "score": self.score,
            "description": self.description,
            "spans": list(self.spans),
            "edge": list(self.edge) if self.edge is not None else None,
            "data": self.data,
        }


@dataclass(frozen=True)
class CauseReport:
    """Ranked causes for one violation, plus the time window examined."""

    violation: "Violation"
    causes: tuple[Cause, ...]
    window: tuple[float, float]

    @property
    def top(self) -> Cause | None:
        """Highest-scored cause (``None`` only for an empty report)."""
        return self.causes[0] if self.causes else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "violation": self.violation.to_dict(),
            "window": list(self.window),
            "causes": [c.to_dict() for c in self.causes],
        }

    def describe(self) -> str:
        """Multi-line human-readable rendering (CLI `repro explain`)."""
        v = self.violation
        lines = [
            f"violation: {v.describe()}",
            f"window examined: [{self.window[0]:.3f}, {self.window[1]:.3f}]",
        ]
        if not self.causes:
            lines.append("  (no causes found in the trace)")
        for rank, cause in enumerate(self.causes, start=1):
            lines.append(
                f"  #{rank} [{cause.kind}] score={cause.score:.4f}  "
                f"{cause.description}"
            )
        return "\n".join(lines)


def _delivered_flights(table: SpanTable, horizon: float) -> list[int]:
    """Delivered flight span ids with arrival ``t1 <= horizon``, newest first."""
    kinds = table.kind
    status = table.status
    t1 = table.t1
    out = [
        i
        for i in range(len(kinds))
        if kinds[i] == SPAN_FLIGHT
        and status[i] == STATUS_DONE
        and t1[i] <= horizon + 1e-12
    ]
    out.sort(key=lambda i: t1[i], reverse=True)
    return out


def _latest_info(
    table: SpanTable, flights: list[int], sink: int, horizon: float
) -> tuple[dict[int, float], dict[int, int]]:
    """Backward latest-information relaxation from ``sink`` at ``horizon``.

    Returns ``latest`` (node -> send time of the freshest information
    about that node available at ``sink``) and ``pred`` (node -> span id
    of the first flight on the node's last-contact path toward ``sink``).
    """
    node = table.node
    peer = table.peer
    t0 = table.t0
    t1 = table.t1
    latest: dict[int, float] = {sink: horizon}
    pred: dict[int, int] = {}
    # Flights come newest-first, which is roughly reverse-topological for
    # time-respecting paths, so the fixpoint is usually 1-2 passes.
    for _ in range(_MAX_PASSES):
        changed = False
        for sid in flights:
            u, v = node[sid], peer[sid]
            lv = latest.get(v)
            if lv is None or t1[sid] > lv:
                continue
            if t0[sid] > latest.get(u, float("-inf")):
                latest[u] = t0[sid]
                pred[u] = sid
                changed = True
        if not changed:
            break
    return latest, pred


def _last_contact_path(
    table: SpanTable, pred: dict[int, int], src: int, sink: int
) -> tuple[int, ...]:
    """Reconstruct the last-contact path ``src -> ... -> sink`` as span ids."""
    peer = table.peer
    path: list[int] = []
    cur = src
    visited = {src}
    while cur != sink:
        sid = pred.get(cur)
        if sid is None:
            break
        path.append(sid)
        cur = peer[sid]
        if cur in visited:  # defensive: relaxation cannot really cycle
            break
        visited.add(cur)
    return tuple(path)


def _path_causes(
    table: SpanTable,
    path: tuple[int, ...],
    *,
    masked_delay: float | None,
) -> tuple[list[Cause], list[int]]:
    """Masked-flight and slow-flight causes for the flights on ``path``."""
    causes: list[Cause] = []
    masked: list[int] = []
    node = table.node
    peer = table.peer
    t0 = table.t0
    t1 = table.t1
    durations = [(t1[sid] - t0[sid], sid) for sid in path]
    if masked_delay is not None:
        threshold = masked_delay * (1.0 - _MASK_EPS)
        for dur, sid in durations:
            if dur >= threshold:
                masked.append(sid)
        for sid in masked[:_MAX_CAUSES_PER_KIND]:
            dur = t1[sid] - t0[sid]
            causes.append(
                Cause(
                    kind="masked_flight",
                    score=dur,
                    description=(
                        f"flight {node[sid]}->{peer[sid]} on the "
                        f"causal path was held at the adversary's maximum "
                        f"delay ({dur:.4f} ~= max_delay={masked_delay:.4f})"
                    ),
                    spans=(sid,),
                    edge=(node[sid], peer[sid]),
                    data={"duration": dur, "max_delay": masked_delay},
                )
            )
    masked_set = set(masked)
    slow = sorted(
        (d for d in durations if d[1] not in masked_set and d[0] > 0.0),
        reverse=True,
    )
    for dur, sid in slow[:_MAX_CAUSES_PER_KIND]:
        causes.append(
            Cause(
                kind="slow_flight",
                score=dur,
                description=(
                    f"flight {node[sid]}->{peer[sid]} on the "
                    f"causal path took {dur:.4f}"
                ),
                spans=(sid,),
                edge=(node[sid], peer[sid]),
                data={"duration": dur},
            )
        )
    return causes, masked


def _window_causes(
    table: SpanTable,
    nodes: tuple[int, ...],
    window: tuple[float, float],
) -> list[Cause]:
    """Churn and jump causes inside the examined window."""
    causes: list[Cause] = []
    w0, w1 = window
    node_set = set(nodes)
    flips: list[int] = []
    jumps: dict[int, tuple[float, list[int]]] = {}
    kinds = table.kind
    node = table.node
    t0 = table.t0
    detail = table.detail
    for i in range(len(kinds)):
        t = t0[i]
        if t < w0 or t > w1:
            continue
        kind = kinds[i]
        if kind == SPAN_EDGE:
            flips.append(i)
        elif kind == SPAN_JUMP and node[i] in node_set:
            total, ids = jumps.setdefault(node[i], (0.0, []))
            jumps[node[i]] = (total + detail[i], ids)
            ids.append(i)
    if flips:
        causes.append(
            Cause(
                kind="churn",
                score=float(len(flips)) * (w1 - w0) / max(len(flips) + 1, 1),
                description=(
                    f"{len(flips)} topology flip(s) inside the window "
                    f"reshaped the information paths"
                ),
                spans=tuple(flips[:_MAX_CAUSES_PER_KIND]),
                data={"flips": len(flips)},
            )
        )
    for node_id, (total, ids) in sorted(jumps.items()):
        causes.append(
            Cause(
                kind="jump",
                score=total,
                description=(
                    f"node {node_id} jumped its logical clock by {total:.4f} "
                    f"in total over {len(ids)} jump(s) inside the window"
                ),
                spans=tuple(ids[:_MAX_CAUSES_PER_KIND]),
                data={"node": node_id, "total_delta": total, "jumps": len(ids)},
            )
        )
    return causes


def explain_violation(
    table: SpanTable,
    violation: "Violation",
    params: "SystemParams",
    *,
    masked_delay: float | None = None,
) -> CauseReport:
    """Rank the causes of one violation against the run's span table.

    ``masked_delay`` enables adversary attribution: flights on the causal
    path whose duration reaches it are flagged ``masked_flight`` (pass
    ``params.max_delay`` when a :class:`DelayAdversary` was installed).
    """
    horizon = violation.time
    nodes = violation.nodes
    causes: list[Cause] = []
    window = (0.0, horizon)

    if len(nodes) >= 2:
        flights = _delivered_flights(table, horizon)
        # The violating pair, both directions: blame the staler one.
        best: tuple[float, int, int, dict[int, float], dict[int, int]] | None
        best = None
        for sink, src in ((nodes[0], nodes[1]), (nodes[1], nodes[0])):
            latest, pred = _latest_info(table, flights, sink, horizon)
            staleness = horizon - latest.get(src, 0.0)
            if best is None or staleness > best[0]:
                best = (staleness, src, sink, latest, pred)
        assert best is not None
        staleness, src, sink, latest, pred = best
        path = _last_contact_path(table, pred, src, sink)
        window = (min(latest.get(src, 0.0), horizon), horizon)
        path_causes, masked = _path_causes(
            table, path, masked_delay=masked_delay
        )
        t0_col = table.t0
        t1_col = table.t1
        chain_time = sum(t1_col[s] - t0_col[s] for s in path)
        reachable = src in latest
        desc = (
            f"freshest information about node {src} at node {sink} was "
            f"{staleness:.4f} old (sent t={latest.get(src, 0.0):.3f}, "
            f"violation t={horizon:.3f}) via a {len(path)}-hop "
            f"last-contact path spending {chain_time:.4f} in flight"
        )
        if masked:
            desc += f"; {len(masked)} flight(s) on it were adversary-masked"
        causes.append(
            Cause(
                kind="causal_chain",
                score=staleness + chain_time,
                description=desc,
                spans=path,
                edge=(src, sink),
                data={
                    "staleness": staleness,
                    "src": src,
                    "sink": sink,
                    "hops": len(path),
                    "chain_time": chain_time,
                    "masked_count": len(masked),
                    "masked": list(masked),
                    "reachable": reachable,
                },
            )
        )
        causes.extend(path_causes)
        if not reachable:
            causes.append(
                Cause(
                    kind="stale_information",
                    score=staleness,
                    description=(
                        f"no delivered flight chain from node {src} reached "
                        f"node {sink} before t={horizon:.3f}"
                    ),
                    edge=(src, sink),
                    data={"src": src, "sink": sink},
                )
            )

    causes.extend(_window_causes(table, nodes, window))

    causes.sort(key=lambda c: c.score, reverse=True)
    return CauseReport(
        violation=violation, causes=tuple(causes), window=window
    )


def explain_result(
    result: "RunResult", *, max_reports: int = 3
) -> list[CauseReport]:
    """Explain up to ``max_reports`` violations of a traced run.

    Requires ``result.spans`` (run with tracing active) and a bound
    oracle report; returns the reports and also stores them on
    ``result.cause_reports``.
    """
    table = result.spans
    report = result.oracle_report
    if table is None or report is None or not report.violations:
        result.cause_reports = []
        return []
    params = result.config.params
    masked_delay = (
        params.max_delay if result.config.adversary is not None else None
    )
    reports = [
        explain_violation(table, violation, params, masked_delay=masked_delay)
        for violation in report.violations[:max_reports]
    ]
    result.cause_reports = reports
    return reports
