"""Per-theorem streaming monitors and their structured violation records.

Each :class:`Monitor` checks one guarantee of the paper against a stream of
periodic samples, keeping O(n) state (plus a capped violation buffer): the
previous sample for rate checks, the live-edge columns for envelope checks
(read off the run's graph, :meth:`~repro.network.graph.DynamicGraph.live_edges`),
and scalar extrema.  Monitors never store sample history, which is what
lets the :class:`~repro.oracle.oracle.StreamingOracle` follow arbitrarily
long runs in bounded memory.

The monitors are the one place the paper's bounds are judged: the sweep
rows, the paper runner, ``repro check``, bundles and the ledger all read
their summaries.  They agree exactly with an independent offline reference
over the recorder's history (``tests/offline_reference.py``; the
online/offline agreement tests pin this): same sample times, same
tolerances, same edge-age convention (real time since the edge's add
event, initial edges aged from ``t = 0``).

``bound_scale`` scales every *upper* bound (global skew, estimate lag,
envelope) before comparison; passing a value < 1 deliberately breaks the
bounds, which is how tests assert that violations actually surface as
structured records.  The rate floor and the Lmax-dominance check are not
scaled -- loosening them could only mask bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..core import skew_bounds
from ..params import SystemParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.graph import DynamicGraph

__all__ = [
    "MONITOR_FACTORIES",
    "EnvelopeMonitor",
    "EstimateLagMonitor",
    "GlobalSkewMonitor",
    "LmaxDominanceMonitor",
    "Monitor",
    "MonitorSummary",
    "ProgressMonitor",
    "Violation",
]

#: Logical-clock progress floor of Section 3.3 (rate >= 1/2).
RATE_FLOOR = 0.5


@dataclass(frozen=True)
class Violation:
    """One observed breach of a paper guarantee.

    ``nodes`` identifies the offending node (one id) or edge (two ids);
    ``bound`` and ``observed`` are in skew units, with ``observed`` on the
    violating side of ``bound`` by more than the oracle tolerance.
    ``margin`` is the slack at the violation -- negative by construction,
    whichever side the bound sits on (``bound - observed`` for upper
    bounds, ``observed - bound`` for lower bounds like the rate floor).
    """

    monitor: str
    time: float
    nodes: tuple[int, ...]
    bound: float
    observed: float
    margin: float
    detail: str = ""
    #: Span id of this violation's anchor in the run's causal trace
    #: (``None`` when tracing was off); forensics walks back from it.
    anchor_span: int | None = None

    def describe(self) -> str:
        """One-line human-readable form."""
        where = ",".join(str(n) for n in self.nodes)
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{self.monitor}] t={self.time:.6g} nodes={where}: "
            f"observed {self.observed:.6g} vs bound {self.bound:.6g}{extra}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (CLI ``--json`` output, structured logs)."""
        return {
            "monitor": self.monitor,
            "time": self.time,
            "nodes": list(self.nodes),
            "bound": self.bound,
            "observed": self.observed,
            "margin": self.margin,
            "detail": self.detail,
            "anchor_span": self.anchor_span,
        }


@dataclass(frozen=True)
class MonitorSummary:
    """Scalar outcome of one monitor over a whole run.

    ``worst_margin`` is the minimum slack (in skew units, oriented so
    negative means violated) over every check; ``None`` when the monitor
    never checked anything.  ``worst_observed`` is the monitored quantity
    at that tightest check -- the run's max global skew for the
    global-skew monitor (its bound is constant, so the tightest check is
    the peak), the minimum per-node slack for the floor monitors -- which
    is what the online/offline agreement tests compare against the
    offline reference.
    """

    name: str
    checks: int
    violations: int
    worst_margin: float | None
    worst_observed: float | None
    #: Sample time of the tightest check (``None`` before any check) --
    #: the deep-link target dashboards and the ledger use to locate the
    #: worst moment on the captured timeline.
    worst_margin_time: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (run bundles, structured logs)."""
        return {
            "name": self.name,
            "checks": self.checks,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "worst_observed": self.worst_observed,
            "worst_margin_time": self.worst_margin_time,
            "extras": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.extras.items()
            },
        }


class Monitor:
    """Base class: violation accounting shared by all monitors.

    Subclasses set :attr:`name`, declare whether they need ``Lmax``
    estimates (:attr:`requires_estimates`) or the run's graph
    (:attr:`tracks_edges`), and implement :meth:`on_sample`.
    """

    name = "monitor"
    requires_estimates = False
    #: Whether the oracle hands this monitor the run's graph (``graph``)
    #: and marks it ``stale`` on every mutation.
    tracks_edges = False
    graph: "DynamicGraph | None" = None
    #: Whether the graph changed since the monitor last read it.
    stale = True
    #: Whether this monitor's margin joins the report-level aggregate.
    #: Floor monitors (rate floor, Lmax dominance) sit at ~0 slack on
    #: every compliant run by construction, so they would pin the
    #: aggregate to 0 and hide how close the run came to a real bound.
    aggregate_margin = True

    def __init__(self) -> None:
        self.checks = 0
        self.violation_count = 0
        self.violations: list[Violation] = []
        self.worst_margin = np.inf
        self.worst_observed: float | None = None
        self.worst_margin_time: float | None = None
        # Bound by bind().
        self.params: SystemParams | None = None
        self.node_ids: list[int] = []
        self.bound_scale = 1.0
        self.tolerance = 1e-9
        self.max_recorded = 100

    def bind(
        self,
        params: SystemParams,
        node_ids: list[int],
        *,
        bound_scale: float,
        tolerance: float,
        max_recorded: int,
    ) -> None:
        """Attach run context; called once by the oracle at install time."""
        self.params = params
        self.node_ids = node_ids
        self.bound_scale = bound_scale
        self.tolerance = tolerance
        self.max_recorded = max_recorded

    # ------------------------------------------------------------------ #
    # Accounting helpers
    # ------------------------------------------------------------------ #

    def _check(
        self, t: float, observed: float, bound: float, *, floor: bool = False
    ) -> float:
        """Count one comparison; returns the (orientation-aware) margin.

        ``floor=True`` treats ``bound`` as a lower bound on ``observed``.
        ``worst_observed``/``worst_margin_time`` track the observed value
        and sample time at the tightest check.
        """
        self.checks += 1
        margin = (observed - bound) if floor else (bound - observed)
        if margin < self.worst_margin:
            self.worst_margin = margin
            self.worst_observed = observed
            self.worst_margin_time = t
        return margin

    def _violate(
        self,
        time: float,
        nodes: tuple[int, ...],
        bound: float,
        observed: float,
        detail: str = "",
        *,
        lower_bound: bool = False,
    ) -> None:
        """Count (and, below the cap, record) one violation.

        ``lower_bound=True`` flips the margin orientation for monitors
        whose bound is a floor (``observed`` too small) rather than a
        ceiling.
        """
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            margin = (observed - bound) if lower_bound else (bound - observed)
            self.violations.append(
                Violation(self.name, time, nodes, bound, observed, margin, detail)
            )

    def summary(self) -> MonitorSummary:
        """Freeze the monitor's scalars into a :class:`MonitorSummary`."""
        return MonitorSummary(
            name=self.name,
            checks=self.checks,
            violations=self.violation_count,
            worst_margin=float(self.worst_margin) if self.checks else None,
            worst_observed=(
                float(self.worst_observed) if self.checks else None
            ),
            worst_margin_time=self.worst_margin_time,
            extras=self._extras(),
        )

    def _extras(self) -> dict[str, Any]:
        return {}

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        """Check one sample: ``clocks[i]`` is node ``node_ids[i]``'s ``L``."""
        raise NotImplementedError


class ProgressMonitor(Monitor):
    """Section 3.3: logical clocks never decrease and advance at rate >= 1/2.

    Checks ``dL >= RATE_FLOOR * dt`` between consecutive samples per node --
    exactly the offline ``check_rate_floor``/``check_monotone`` pair, in
    one comparison (the rate floor subsumes monotonicity for ``dt > 0``).
    State: the previous sample vector, O(n).
    """

    name = "progress"
    aggregate_margin = False

    def __init__(self) -> None:
        super().__init__()
        self._prev_t: float | None = None
        self._prev: np.ndarray | None = None

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        if self._prev is not None and t > self._prev_t:
            dt = t - self._prev_t
            dl = clocks - self._prev
            required = RATE_FLOOR * dt
            # One margin per node; aggregate extrema via the worst node.
            worst = int(np.argmin(dl))
            self.checks += len(dl) - 1  # the worst one goes through _check
            margin = self._check(t, float(dl[worst]), required, floor=True)
            if margin < -self.tolerance:
                for i in np.nonzero(dl < required - self.tolerance)[0]:
                    self._violate(
                        t,
                        (self.node_ids[int(i)],),
                        required,
                        float(dl[int(i)]),
                        detail=f"dt={dt:.6g}",
                        lower_bound=True,
                    )
        self._prev_t = t
        self._prev = clocks.copy()


class LmaxDominanceMonitor(Monitor):
    """Property 6.3: every node's max estimate dominates its own clock."""

    name = "lmax_dominates"
    requires_estimates = True
    aggregate_margin = False

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        assert estimates is not None
        slack = estimates - clocks
        worst = int(np.argmin(slack))
        self.checks += len(slack) - 1
        self._check(t, float(slack[worst]), 0.0, floor=True)
        if slack[worst] < -self.tolerance:
            for i in np.nonzero(slack < -self.tolerance)[0]:
                self._violate(
                    t,
                    (self.node_ids[int(i)],),
                    float(estimates[int(i)]),
                    float(clocks[int(i)]),
                    detail="L exceeds Lmax",
                )


class GlobalSkewMonitor(Monitor):
    """Theorem 6.9: ``max_u L_u - min_v L_v <= G(n)`` at every sample."""

    name = "global_skew"

    def bind(self, params, node_ids, **kwargs) -> None:
        super().bind(params, node_ids, **kwargs)
        self._bound = self.bound_scale * skew_bounds.global_skew_bound(params)

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        hi = int(np.argmax(clocks))
        lo = int(np.argmin(clocks))
        observed = float(clocks[hi] - clocks[lo])
        bound = self._bound
        self._check(t, observed, bound)
        if observed > bound + self.tolerance:
            self._violate(
                t, (self.node_ids[hi], self.node_ids[lo]), bound, observed
            )


class EstimateLagMonitor(Monitor):
    """Lemma 6.8: the spread of ``Lmax`` estimates stays within the bound.

    ``Lmax(t) - min_u Lmax_u(t)`` is what the lemma bounds; the largest
    estimate in the network is ``max_u Lmax_u(t)``, so the observed
    quantity is the estimate spread, and ``worst_observed`` is its peak.
    """

    name = "estimate_lag"
    requires_estimates = True

    def bind(self, params, node_ids, **kwargs) -> None:
        super().bind(params, node_ids, **kwargs)
        self._bound = self.bound_scale * skew_bounds.max_propagation_bound(params)

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        assert estimates is not None
        hi = int(np.argmax(estimates))
        lo = int(np.argmin(estimates))
        observed = float(estimates[hi] - estimates[lo])
        bound = self._bound
        self._check(t, observed, bound)
        if observed > bound + self.tolerance:
            self._violate(
                t, (self.node_ids[hi], self.node_ids[lo]), bound, observed
            )


#: One sample's envelope check over the live edges, in table order:
#: ``(observed |dL|, bounds, margins = bounds - observed, argmin(margins))``.
EnvelopePass = tuple[np.ndarray, np.ndarray, np.ndarray, int]


class EnvelopeMonitor(Monitor):
    """Corollary 6.13: every live edge respects ``s(n, I, edge age)``.

    Checks every live edge of the run's graph at every sample, aged from
    the add that began its current episode (``E_0`` edges from ``t = 0``,
    matching the recorder's episode convention).  State is O(current
    edges); nothing is kept per sample.

    Beside the checks it measures Theorem 6.12's quantity: ``stable_skew``
    is the peak ``|dL|`` over live edges at least
    :func:`~repro.core.skew_bounds.stabilization_time` old, the measured
    counterpart of ``s_bar(n)``.  It adds no check and is not scaled by
    ``bound_scale``.

    The per-sample check is fully vectorised over dense endpoint-index and
    add-time arrays, re-read from
    :meth:`~repro.network.graph.DynamicGraph.live_edges` only when the
    graph has changed since (the oracle marks the monitor ``stale``), so a
    sample costs one numpy pass over the live edges.  Their order -- the
    untouched ``E_0`` edges, then the others by their latest add -- is the
    order of one insertion-ordered table fed every add and remove, so check
    accounting, worst-case extrema and violation records are identical to
    the sequential formulation (the online/offline agreement tests pin
    this).
    """

    name = "envelope"
    tracks_edges = True

    def __init__(self) -> None:
        super().__init__()
        _ids = np.empty(0, dtype=np.int64)
        #: Node id -> its position in the sampled columns (-1: unsampled).
        self._position: np.ndarray = np.empty(0, dtype=np.intp)
        # Dense mirrors of the live edges (re-read when stale): their ids,
        # sampled positions and add times.
        self._edge_u, self._edge_v = _ids, _ids
        self._eu: np.ndarray = np.empty(0, dtype=np.intp)
        self._ev: np.ndarray = np.empty(0, dtype=np.intp)
        self._eadd: np.ndarray = np.empty(0, dtype=float)
        self.worst_ratio = 0.0
        self.worst_edge: tuple[int, int] | None = None
        self.worst_age = 0.0
        self.stable_skew = 0.0
        self._stable_age = np.inf
        #: The latest sample's pass (``None``: no live edge then), kept
        #: for the skew timeline, which records the same quantities.
        self.last_pass: EnvelopePass | None = None

    def bind(self, params, node_ids, **kwargs) -> None:
        super().bind(params, node_ids, **kwargs)
        ids = np.fromiter(node_ids, np.intp, len(node_ids))
        self._position = np.full(ids.max(initial=-1) + 1, -1, np.intp)
        self._position[ids] = np.arange(len(ids))
        self._stable_age = skew_bounds.stabilization_time(params)

    def _rebuild(self) -> None:
        """Re-read the live edges off the graph."""
        assert self.graph is not None
        self._edge_u, self._edge_v, self._eadd = self.graph.live_edges()
        eu = self._eu = self._position[self._edge_u]
        ev = self._ev = self._position[self._edge_v]
        if (eu < 0).any() or (ev < 0).any():  # an edge the samples do not cover
            i = int(np.argmax((eu < 0) | (ev < 0)))
            raise KeyError((int(self._edge_u[i]), int(self._edge_v[i])))
        self.stale = False

    def on_sample(
        self, t: float, clocks: np.ndarray, estimates: np.ndarray | None
    ) -> None:
        self.last_pass = None
        if self.stale and self.graph is not None:
            self._rebuild()
        m = len(self._eu)
        if not m:
            return
        ages = t - self._eadd
        bounds = self.bound_scale * skew_bounds.dynamic_local_skew_batch(
            self.params, ages
        )
        observed = np.abs(clocks[self._eu] - clocks[self._ev])
        if ages[0] >= self._stable_age:  # live_edges() lists the oldest first
            self.stable_skew = float(
                np.max(observed, where=ages >= self._stable_age, initial=self.stable_skew)
            )
        margins = bounds - observed
        # Accounting identical to m sequential _check calls: all checks
        # count, and the running worst updates to the first (in insertion
        # order) occurrence of this sample's minimum when it is strictly
        # smaller than the running value.
        self.checks += m
        k = int(np.argmin(margins))
        self.last_pass = (observed, bounds, margins, k)
        if margins[k] < self.worst_margin:
            self.worst_margin = float(margins[k])
            self.worst_observed = float(observed[k])
            self.worst_margin_time = t
        with np.errstate(divide="ignore"):
            ratios = np.where(bounds > 0, observed / bounds, np.inf)
        r = int(np.argmax(ratios))
        if ratios[r] > self.worst_ratio:
            self.worst_ratio = float(ratios[r])
            self.worst_edge = (int(self._edge_u[r]), int(self._edge_v[r]))
            self.worst_age = float(ages[r])
        violating = np.nonzero(observed > bounds + self.tolerance)[0]
        for i in violating:
            u, v = int(self._edge_u[i]), int(self._edge_v[i])
            self._violate(
                t,
                (u, v),
                float(bounds[int(i)]),
                float(observed[int(i)]),
                detail=f"edge age {float(ages[int(i)]):.6g}",
            )

    def _extras(self) -> dict[str, Any]:
        return {
            "worst_ratio": self.worst_ratio,
            "worst_edge": self.worst_edge,
            "worst_age": self.worst_age,
            "stable_skew": self.stable_skew,
        }


#: Named monitor factories, the vocabulary of ``OracleRef`` ``monitors=``
#: kwargs and the ``repro check --monitors`` flag.
MONITOR_FACTORIES: dict[str, Callable[[], Monitor]] = {
    ProgressMonitor.name: ProgressMonitor,
    LmaxDominanceMonitor.name: LmaxDominanceMonitor,
    GlobalSkewMonitor.name: GlobalSkewMonitor,
    EstimateLagMonitor.name: EstimateLagMonitor,
    EnvelopeMonitor.name: EnvelopeMonitor,
}
