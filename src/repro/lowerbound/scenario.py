"""Executable Section 4 experiments: the Masking Lemma and Figure 1.

Two orchestrated experiments:

* :func:`run_masking_experiment` -- Lemma 4.2 on a masked chain: run the
  *same* algorithm under executions alpha and beta, verify the executions
  are subjectively indistinguishable (the proof's core device, checked
  numerically against the real implementation), and measure the logical
  skew the adversary forced between the reference node and a far node.
  The lemma's floor is ``max(skew_alpha, skew_beta) >= T * dist_M / 4``.

* :func:`run_figure1_experiment` -- the full Theorem 4.1 construction
  (Figure 1): the two-chain network with blocked end segments, beta-style
  skew build-up of ``Omega(n)`` across chain A, selection of new B-chain
  edges via Lemma 4.3 so each carries initial skew ~``I``, injection of
  those edges at ``T_1``, and measurement of how long the algorithm takes
  to pull each new edge's skew down to the stable bound -- the quantity
  Theorem 4.1 lower-bounds by ``Omega(n / s_bar)`` and Corollary 6.14
  upper-bounds by ``O(n / B_0)``.

Scale note (see "Scale note" in docs/reproduction.md): the paper's constants
(``k = (T/128) n / s_bar``, ``I > 32 G s_bar / (T n)``) are asymptotic --
meaningful only for astronomically large ``n`` once ``s_bar`` includes the
real ``tau``.  The experiments therefore take ``k`` and ``I`` as explicit
parameters (defaults: ``k = 1``, ``I ~ 3 s_bar``), which preserves every
*structural* property being tested: block edges with pinned delays, skew
linear in flexible distance, initial skews in ``[I - S, I]``, and reduction
time growing linearly in ``n`` for fixed ``B_0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core import skew_bounds
from ..harness.runner import Experiment, ExperimentConfig
from ..network.channels import DelayPolicy
from ..network.graph import edge_key
from ..network.topology import path_edges, two_chain_edges
from ..params import SystemParams
from ..sim.clocks import HardwareClock
from ..sim.events import PRIORITY_SAMPLE, PRIORITY_TOPOLOGY
from .executions import ExecutionPair, build_execution_pair
from .mask import DelayMask
from .subsequence import select_subsequence

__all__ = [
    "MaskingResult",
    "Figure1Result",
    "masked_experiment",
    "settle_age",
    "run_masking_experiment",
    "run_figure1_experiment",
]

Edge = tuple[int, int]


# ---------------------------------------------------------------------- #
# Shared plumbing
# ---------------------------------------------------------------------- #


def masked_experiment(
    edges: Sequence[Edge],
    clocks: Mapping[int, HardwareClock],
    delay_policy: DelayPolicy,
    params: SystemParams,
    algorithm: str,
    horizon: float,
) -> Experiment:
    """One algorithm execution under explicit clocks and delay policy:
    constant discovery latency ``D``, unstaggered ticks, no recorder."""
    return Experiment(
        ExperimentConfig(
            params=params,
            initial_edges=edges,
            algorithm=algorithm,
            clock_spec=lambda i, _params, _rng, _horizon: clocks[i],
            delay_spec=lambda _params, _rng: delay_policy,
            discovery_spec="max",
            stagger_ticks=False,
            record=False,
            horizon=horizon,
        )
    )


# ---------------------------------------------------------------------- #
# Lemma 4.2: the masking experiment
# ---------------------------------------------------------------------- #


@dataclass
class MaskingResult:
    """Measured outcome of the Lemma 4.2 experiment."""

    n: int
    flexible_distance: int
    measure_time: float
    skew_alpha: float
    skew_beta: float
    floor: float
    min_valid_time: float
    indistinguishability_error: float | None = None

    @property
    def skew(self) -> float:
        """The lemma's quantity: the larger of the two execution skews."""
        return max(abs(self.skew_alpha), abs(self.skew_beta))

    @property
    def floor_met(self) -> bool:
        """Whether the measured skew meets the proven floor ``T d / 4``."""
        return self.skew >= self.floor - 1e-9


def run_masking_experiment(
    params: SystemParams,
    *,
    algorithm: str = "dcsa",
    constrained_prefix: int = 0,
    measure_time: float | None = None,
    check_indistinguishability: bool = True,
    indist_samples: int = 8,
) -> MaskingResult:
    """Run Lemma 4.2 on a chain of ``params.n`` nodes.

    The mask constrains the first ``constrained_prefix`` chain edges to
    delay ``T`` (flexible distance then is ``n - 1 - constrained_prefix``).
    The reference node is node 0; skew is measured between nodes ``0`` and
    ``n - 1`` at ``measure_time`` (default: just past the lemma's validity
    threshold ``T * d * (1 + 1/rho)``).
    """
    n = params.n
    edges = path_edges(n)
    if not (0 <= constrained_prefix <= n - 2):
        raise ValueError("constrained_prefix out of range")
    mask = DelayMask(
        {edges[i]: params.max_delay for i in range(constrained_prefix)},
        params.max_delay,
    )
    pair = build_execution_pair(list(range(n)), edges, mask, 0, params)
    d = pair.dists[n - 1]
    min_valid = pair.full_skew_time(n - 1, params.rho)
    t_meas = 1.05 * min_valid if measure_time is None else measure_time
    if t_meas <= min_valid:
        raise ValueError(
            f"measure_time {t_meas} must exceed the validity threshold {min_valid}"
        )

    alpha = masked_experiment(
        edges, pair.alpha_clocks, pair.alpha_policy, params, algorithm, t_meas
    )
    beta = masked_experiment(
        edges, pair.beta_clocks, pair.beta_policy, params, algorithm, t_meas
    )

    # Scheduled probes: lazy logical clocks cannot be read in the past, so
    # capture the skews exactly at t_meas from inside both runs.
    readings: dict[str, float] = {}

    def probe(run: Experiment, name: str):
        def fire() -> None:
            near = run.nodes[0].logical_clock(t_meas)
            readings[name] = near - run.nodes[n - 1].logical_clock(t_meas)

        return fire

    alpha.sim.schedule_at(t_meas, probe(alpha, "alpha"), priority=PRIORITY_SAMPLE)
    beta.sim.schedule_at(t_meas, probe(beta, "beta"), priority=PRIORITY_SAMPLE)

    err = None
    if check_indistinguishability:
        err = _indistinguishability_error(
            alpha, beta, pair, horizon=t_meas, samples=indist_samples
        )
    else:
        alpha.run()
        beta.run()

    skew_a = readings["alpha"]
    skew_b = readings["beta"]
    return MaskingResult(
        n=n,
        flexible_distance=d,
        measure_time=t_meas,
        skew_alpha=float(skew_a),
        skew_beta=float(skew_b),
        floor=skew_bounds.masking_skew_floor(params, d),
        min_valid_time=min_valid,
        indistinguishability_error=err,
    )


def _indistinguishability_error(
    alpha: Experiment,
    beta: Experiment,
    pair: ExecutionPair,
    *,
    horizon: float,
    samples: int,
) -> float:
    """Max over nodes/sample times of ``|L^beta_w(t) - L^alpha_w(H^beta_w(t))|``.

    Both runs advance to (at least) the needed horizons in the process.
    """
    ts = np.linspace(horizon / samples, horizon, samples)
    # Record beta's logical clocks and the alpha-time targets.
    probes: list[tuple[int, float, float]] = []  # (node, alpha_time, beta_L)

    def make_sampler(t: float):
        def sample() -> None:
            for w, node in beta.nodes.items():
                h_beta = pair.beta_clocks[w].value(t)
                probes.append((w, h_beta, node.logical_clock(t)))

        return sample

    for t in ts:
        beta.sim.schedule_at(float(t), make_sampler(float(t)), priority=PRIORITY_SAMPLE)
    beta.sim.run_until(float(ts[-1]))

    # Replay the probes against alpha at the matching subjective instants
    # (alpha clocks are perfect, so alpha time == hardware reading).
    alpha_vals: dict[int, float] = {}

    def make_alpha_probe(idx: int, w: int):
        def sample() -> None:
            alpha_vals[idx] = alpha.nodes[w].logical_clock(alpha.sim.now)

        return sample

    for idx, (w, t_alpha, _lb) in enumerate(probes):
        alpha.sim.schedule_at(t_alpha, make_alpha_probe(idx, w), priority=PRIORITY_SAMPLE)
    alpha.sim.run_until(max(t for _w, t, _l in probes))
    # Make sure both runs cover the requested horizon for later reads.
    alpha.sim.run_until(max(alpha.sim.now, horizon))
    beta.sim.run_until(max(beta.sim.now, horizon))

    worst = 0.0
    for idx, (_w, _t, l_beta) in enumerate(probes):
        worst = max(worst, abs(l_beta - alpha_vals[idx]))
    return worst


# ---------------------------------------------------------------------- #
# Theorem 4.1 / Figure 1
# ---------------------------------------------------------------------- #


@dataclass
class NewEdgeOutcome:
    """Per-injected-edge measurements of the Figure 1 experiment."""

    edge: Edge
    initial_skew: float
    skew_at_t2: float
    reduction_time: float | None  # age at which skew first stays <= target
    final_skew: float


@dataclass
class Figure1Result:
    """All quantities of Figure 1's four panels, measured.

    Panels: (a) skew across chain A at ``T_2``; (b) the new edges with their
    initial skews at ``T_1``; (c) their skews at ``T_2``; (d) the corner
    logical clocks.
    """

    n: int
    k: int
    requested_initial_skew: float  # I
    gap_slack: float  # the lemma's d (= S in the paper)
    t1: float
    t2: float
    u_node: int
    v_node: int
    skew_uv_t2: float  # panel (a)
    skew_w0_wn_t2: float
    corner_clocks_t1: dict[str, float]  # panel (d): w0, u, v, wn at T1
    corner_clocks_t2: dict[str, float]
    new_edges: list[NewEdgeOutcome] = field(default_factory=list)
    stable_skew: float = 0.0  # s_bar(n), the reduction target
    theory_reduction_floor: float = 0.0  # Theorem 4.1's lambda n / s_bar
    theory_reduction_ceiling: float = 0.0  # Cor 6.14's stabilization time
    measure_horizon: float = 0.0

    @property
    def mean_reduction_time(self) -> float | None:
        """Mean measured reduction time over settled new edges."""
        times = [e.reduction_time for e in self.new_edges if e.reduction_time is not None]
        return float(np.mean(times)) if times else None

    @property
    def max_reduction_time(self) -> float | None:
        """Max measured reduction time over settled new edges."""
        times = [e.reduction_time for e in self.new_edges if e.reduction_time is not None]
        return float(np.max(times)) if times else None


def run_figure1_experiment(
    params: SystemParams,
    *,
    algorithm: str = "dcsa",
    k: int = 1,
    initial_skew: float | None = None,
    settle_factor: float = 1.1,
    sample_interval: float = 1.0,
    measure_horizon: float | None = None,
) -> Figure1Result:
    """Run the full Figure 1 / Theorem 4.1 construction.

    Parameters
    ----------
    params:
        Model parameters; ``params.n`` is the total node count (>= 8).
        Larger ``rho`` (e.g. 0.05) compresses the skew build-up phase.
    k:
        Number of blocked (delay-pinned) edges at each end of chain A.
    initial_skew:
        The target per-new-edge skew ``I``; defaults to ``3 * s_bar(n)``.
    settle_factor:
        ``T_2`` is this factor times the skew build-up time (must be > 1).
    measure_horizon:
        How long past ``T_2`` to track the new edges (default: 3x the
        algorithm's theoretical stabilization time).
    """
    n = params.n
    if n < 8:
        raise ValueError("the Figure 1 construction needs n >= 8")
    edges, chains = two_chain_edges(n)
    chain_a, chain_b = chains["A"], chains["B"]
    if not (1 <= k <= (len(chain_a) - 3) // 2):
        raise ValueError(f"k={k} too large for chain A of length {len(chain_a)}")
    u_node = chain_a[k]
    v_node = chain_a[-1 - k]
    w0, wn = chain_a[0], chain_a[-1]

    # E_block: the first and last k edges of chain A, pinned at delay T.
    blocked: dict[Edge, float] = {}
    for i in range(k):
        blocked[edge_key(chain_a[i], chain_a[i + 1])] = params.max_delay
        blocked[edge_key(chain_a[-1 - i], chain_a[-2 - i])] = params.max_delay
    mask = DelayMask(blocked, params.max_delay)
    pair = build_execution_pair(
        list(range(n)), edges, mask, reference=u_node, params=params
    )

    # Timing: T2 after the beta skew has fully built everywhere; T1 the
    # paper's k*T/(1+rho) earlier.
    build_time = max(
        pair.full_skew_time(x, params.rho) for x in range(n)
    )
    if settle_factor <= 1.0:
        raise ValueError("settle_factor must exceed 1")
    t2 = settle_factor * build_time
    t1 = t2 - k * params.max_delay / (1.0 + params.rho)
    s_bar = skew_bounds.stable_local_skew(params)
    i_target = None if initial_skew is None else float(initial_skew)
    horizon_tail = (
        3.0 * skew_bounds.stabilization_time(params)
        if measure_horizon is None
        else float(measure_horizon)
    )
    t_end = t2 + horizon_tail

    run = masked_experiment(
        edges, pair.beta_clocks, pair.beta_policy, params, algorithm, t_end
    )

    def logical(i: int, t: float) -> float:
        return run.nodes[i].logical_clock(t)

    # --- T1 callback: pick new edges by Lemma 4.3 and inject them. ------- #
    injected: list[tuple[Edge, float]] = []  # (edge, initial skew)

    def inject() -> None:
        clocks_b = [logical(x, t1) for x in chain_b]
        lo, hi = (0, len(chain_b) - 1)
        seq = clocks_b
        order = chain_b
        if seq[lo] > seq[hi]:  # Lemma 4.3 needs x_1 <= x_n
            seq = list(reversed(seq))
            order = list(reversed(order))
        gaps = [abs(seq[i + 1] - seq[i]) for i in range(len(seq) - 1)]
        d_slack = max(max(gaps), 1e-6)
        if i_target is None:
            # Adaptive I: the largest multiple of s_bar the built-up B-chain
            # skew can support, at least 1.5x the per-hop slack so the
            # Lemma 4.3 precondition c > d holds.  (The paper's asymptotic
            # choice I > 32 G s_bar / (T n) needs n far beyond laptop scale;
            # see the module docstring.)
            span = seq[-1] - seq[0]
            c = max(1.5 * d_slack, min(3.0 * s_bar, 0.6 * span))
        else:
            c = max(i_target, 1.5 * d_slack)  # ensure c > d
        indices = select_subsequence(seq, c, d_slack)
        inject._d_slack = d_slack  # stash for the result record
        inject._c = c
        for j in range(len(indices) - 1):
            a, b = order[indices[j]], order[indices[j + 1]]
            e = edge_key(a, b)
            if run.graph.has_edge(*e):
                continue  # adjacent chain nodes may be selected
            run.graph.add_edge(e[0], e[1], run.sim.now)
            injected.append((e, abs(logical(a, t1) - logical(b, t1))))

    inject._d_slack = 0.0
    inject._c = i_target
    run.sim.schedule_at(t1, inject, priority=PRIORITY_TOPOLOGY)

    # --- Track new-edge skews from T1 on. -------------------------------- #
    tracked: dict[Edge, list[tuple[float, float]]] = {}

    def sample(t: float) -> None:
        if t < t1:
            return
        for e, _s0 in injected:
            tracked.setdefault(e, []).append(
                (t, abs(logical(e[0], t) - logical(e[1], t)))
            )

    run.sim.every(sample_interval, sample, start=t1)

    corner_t1: dict[str, float] = {}
    corner_t2: dict[str, float] = {}

    def record_corners(store: dict[str, float], t: float):
        def record() -> None:
            for name, node in (("w0", w0), ("u", u_node), ("v", v_node), ("wn", wn)):
                store[name] = logical(node, t)

        return record

    run.sim.schedule_at(t1, record_corners(corner_t1, t1), priority=PRIORITY_SAMPLE)
    run.sim.schedule_at(t2, record_corners(corner_t2, t2), priority=PRIORITY_SAMPLE)

    run.run()

    # --- Package results. ------------------------------------------------ #
    outcomes: list[NewEdgeOutcome] = []
    for e, s0 in injected:
        series = tracked.get(e, [])
        skew_t2 = _value_at(series, t2)
        final = series[-1][1] if series else s0
        red = settle_age(series, t1, s_bar)
        outcomes.append(
            NewEdgeOutcome(
                edge=e,
                initial_skew=s0,
                skew_at_t2=skew_t2,
                reduction_time=red,
                final_skew=final,
            )
        )

    skew_uv = abs(corner_t2["u"] - corner_t2["v"])
    skew_ends = abs(corner_t2["w0"] - corner_t2["wn"])
    return Figure1Result(
        n=n,
        k=k,
        requested_initial_skew=inject._c,
        gap_slack=inject._d_slack,
        t1=t1,
        t2=t2,
        u_node=u_node,
        v_node=v_node,
        skew_uv_t2=skew_uv,
        skew_w0_wn_t2=skew_ends,
        corner_clocks_t1=corner_t1,
        corner_clocks_t2=corner_t2,
        new_edges=outcomes,
        stable_skew=s_bar,
        theory_reduction_floor=skew_bounds.lb_reduction_time(params),
        theory_reduction_ceiling=skew_bounds.stabilization_time(params),
        measure_horizon=t_end,
    )


def _value_at(series: list[tuple[float, float]], t: float) -> float:
    """Series value at the sample nearest to ``t`` (0.0 for empty series)."""
    if not series:
        return 0.0
    return min(series, key=lambda p: abs(p[0] - t))[1]


def settle_age(
    series: list[tuple[float, float]], t1: float, threshold: float
) -> float | None:
    """First age (since ``t1``) after which the skew stays <= threshold."""
    if not series:
        return None
    above = [i for i, (_t, s) in enumerate(series) if s > threshold]
    if not above:
        return series[0][0] - t1
    last = above[-1]
    if last == len(series) - 1:
        return None
    return series[last + 1][0] - t1
