"""Canned experiment configurations.

One function per workload family; each returns an
:class:`~repro.harness.runner.ExperimentConfig` ready for
:func:`~repro.harness.runner.run_experiment`.  The benchmark modules and the
examples build on these so that "the workload of experiment X" has exactly
one definition in the repository.
"""

from __future__ import annotations

import numpy as np

from ..network.churn import ScriptedChurn
from ..network.topology import (
    grid_edges,
    path_edges,
    random_geometric,
    ring_edges,
    two_chain_edges,
)
from ..params import SystemParams
from .registry import AdversaryRef, ChurnRef, OracleRef, RuntimeRef
from .runner import ExperimentConfig

__all__ = [
    "WORKLOADS",
    "static_path",
    "static_ring",
    "large_ring",
    "huge_ring",
    "huge_grid",
    "huge_sync_ring",
    "huge_sync_grid",
    "huge_churn_ring",
    "static_grid",
    "backbone_churn",
    "rotating_backbone",
    "mobile_network",
    "edge_insertion",
    "flapping_edges",
    "two_chain_insertion",
    "adversarial_drift",
    "adversarial_delay",
    "greedy_topology",
    "combined_adversary",
    "live_ring",
    "live_grid",
    "live_churn_ring",
]


def _params(n: int, b0: float | None, **overrides: float) -> SystemParams:
    return SystemParams.for_network(n, b0=b0, **overrides)


def static_path(
    n: int,
    *,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "split",
    b0: float | None = None,
) -> ExperimentConfig:
    """A static path under adversarial split clocks (worst gradient case)."""
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=path_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        horizon=horizon,
        seed=seed,
        name=f"static_path(n={n}, {algorithm})",
    )


def static_ring(
    n: int,
    *,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "random_walk",
    b0: float | None = None,
) -> ExperimentConfig:
    """A static ring with random-walk clock drift."""
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        horizon=horizon,
        seed=seed,
        name=f"static_ring(n={n}, {algorithm})",
    )


def large_ring(
    n: int = 64,
    *,
    horizon: float = 600.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "random_walk",
    sample_interval: float = 2.0,
    record: bool = False,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """A long-horizon scale workload: big ring, no recorder, streaming oracle.

    The regime the offline invariant suite cannot reach: the recorder's
    O(samples x n) history is disabled and the run is checked online by
    the :mod:`repro.oracle` monitors in O(n) state instead, so ``n`` and
    ``horizon`` can grow freely.  ``record=True`` turns the recorder back
    on (e.g. for online/offline agreement checks at small scale);
    ``oracle=False`` yields a plain unchecked scale run.
    """
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=record,
        record=record,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"large_ring(n={n}, horizon={horizon}, {algorithm})",
    )


def huge_ring(
    n: int = 4096,
    *,
    horizon: float = 30.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "uniform",
    sample_interval: float = 5.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """A production-scale ring (default n=4096, tested up to n=10000).

    The typed-event kernel's flagship workload (docs/performance.md): no
    recorder, per-node constant drift drawn from the envelope, streaming
    oracle on by default (its envelope monitor tracks all ``n`` ring edges
    incrementally), coarse sampling.  Events scale as ``O(n * horizon)``,
    so the default is a sub-minute run at n=4096 and the CI throughput
    smoke gate rides on it; push ``n`` to 10000 for the large-diameter
    regimes of the paper's bounds (``G(n)`` grows linearly -- measuring it
    is only interesting when ``n-1`` hops exist to accumulate skew).
    """
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"huge_ring(n={n}, horizon={horizon}, {algorithm})",
    )


def huge_grid(
    rows: int = 64,
    cols: int = 64,
    *,
    horizon: float = 30.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "uniform",
    sample_interval: float = 5.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """A production-scale grid (default 64x64 = 4096 nodes).

    Denser than :func:`huge_ring` (~2 edges per node, heavier per-tick
    fan-out and twice the envelope-monitor edge table) with diameter
    ``rows + cols``; same recorder-off, oracle-on scale posture.
    """
    n = rows * cols
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=grid_edges(rows, cols),
        algorithm=algorithm,
        clock_spec=clock_spec,
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"huge_grid({rows}x{cols}, {algorithm})",
    )


def huge_sync_ring(
    n: int = 4096,
    *,
    horizon: float = 30.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    sample_interval: float = 5.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """The batch kernel's flagship workload: a ring of two exact rate classes.

    Split extremal clocks (``1 + rho`` / ``1 - rho`` constant rates) with
    unstaggered ticks and *constant* delay/discovery policies make every
    node of a rate class tick at identical timestamps forever, and their
    messages land in same-timestamp delivery bursts of ~n records -- the
    regime the struct-of-arrays batch dispatcher (see
    :mod:`repro.core.batch` and docs/performance.md) turns into a handful
    of vectorized phases per timestamp instead of n scalar ``handle()``
    calls.  Unlike a single synchronized rate class, the fast/slow split
    also produces real skew and discrete jumps, so batch-vs-scalar parity
    runs on this workload exercise the full AdjustClock path.  Scales to
    n=100k+ (recorder off, streaming oracle on).
    """
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        clock_spec="split",
        delay_spec="half",
        discovery_spec="max",
        stagger_ticks=False,
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"huge_sync_ring(n={n}, {algorithm})",
    )


def huge_sync_grid(
    rows: int = 64,
    cols: int = 64,
    *,
    horizon: float = 30.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    sample_interval: float = 5.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """The batch workload on a grid (denser bursts: ~2 edges per node).

    Same synchronized-rate-class posture as :func:`huge_sync_ring`; the
    grid's heavier fan-out roughly doubles the size of each delivery
    burst, stressing the batch dispatcher's round decomposition.
    """
    n = rows * cols
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=grid_edges(rows, cols),
        algorithm=algorithm,
        clock_spec="split",
        delay_spec="half",
        discovery_spec="max",
        stagger_ticks=False,
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"huge_sync_grid({rows}x{cols}, {algorithm})",
    )


def huge_churn_ring(
    n: int = 4096,
    *,
    k_extra: int = 16,
    rewire_interval: float = 1.0,
    horizon: float = 30.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "uniform",
    sample_interval: float = 5.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """A production-scale ring under continuous random rewiring.

    The protected ring backbone keeps the connectivity premise while
    ``k_extra`` chord edges are rewired every ``rewire_interval``,
    exercising the discovery pipeline, Gamma eviction and the envelope
    monitor's incremental add/remove path at scale.
    """
    backbone = ring_edges(n)
    churn = ChurnRef(
        "random_rewirer",
        {
            "n": n,
            "k_extra": k_extra,
            "interval": rewire_interval,
            "protected": backbone,
            "horizon": horizon,
        },
    )
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=backbone,
        algorithm=algorithm,
        clock_spec=clock_spec,
        churn=[churn],
        horizon=horizon,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"huge_churn_ring(n={n}, {algorithm})",
    )


def static_grid(
    rows: int,
    cols: int,
    *,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """A static grid with random-walk drift."""
    n = rows * cols
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=grid_edges(rows, cols),
        algorithm=algorithm,
        horizon=horizon,
        seed=seed,
        name=f"static_grid({rows}x{cols}, {algorithm})",
    )


def backbone_churn(
    n: int,
    *,
    k_extra: int = 4,
    rewire_interval: float = 5.0,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "split",
    b0: float | None = None,
) -> ExperimentConfig:
    """Stable path backbone + arbitrary random rewiring of extra edges."""
    backbone = path_edges(n)
    churn = ChurnRef(
        "random_rewirer",
        {
            "n": n,
            "k_extra": k_extra,
            "interval": rewire_interval,
            "protected": backbone,
            "horizon": horizon,
        },
    )
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=backbone,
        algorithm=algorithm,
        clock_spec=clock_spec,
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"backbone_churn(n={n}, {algorithm})",
    )


def rotating_backbone(
    n: int,
    *,
    window: float = 30.0,
    overlap: float | None = None,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """No stable edge at all: a different spanning path per time window.

    ``overlap`` defaults to slightly above :math:`\\mathcal{T}+\\mathcal{D}`
    so the execution is :math:`(\\mathcal{T}+\\mathcal{D})`-interval
    connected -- exactly the premise of Theorem 6.9 -- while *every* edge
    eventually disappears.
    """
    params = _params(n, b0)
    ov = overlap
    if ov is None:
        ov = 1.2 * (params.max_delay + params.discovery_bound)
    if ov >= window:
        raise ValueError("window must exceed the overlap")
    churn = ChurnRef(
        "rotating_backbone",
        {"n": n, "window": window, "overlap": ov, "horizon": horizon},
    )
    return ExperimentConfig(
        params=params,
        initial_edges=[],
        algorithm=algorithm,
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"rotating_backbone(n={n}, window={window}, {algorithm})",
    )


def mobile_network(
    n: int,
    *,
    radius: float = 0.35,
    speed: float = 0.01,
    update_interval: float = 2.0,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    keep_backbone: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """Random-waypoint mobile wireless network (the intro's TDMA scenario).

    A spanning-path backbone is kept alive by default so the connectivity
    premise of the analysis holds while the radio topology churns freely.
    """
    params = _params(n, b0)
    seed_rng = np.random.default_rng(seed)
    edges, pos = random_geometric(n, radius, seed_rng)
    backbone = path_edges(n) if keep_backbone else []
    initial = sorted(set(edges) | set(backbone))
    churn = ChurnRef(
        "mobile_geometric",
        {
            "positions": pos,
            "radius": radius,
            "speed": speed,
            "update_interval": update_interval,
            "protected": backbone,
            "horizon": horizon,
        },
    )
    return ExperimentConfig(
        params=params,
        initial_edges=initial,
        algorithm=algorithm,
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"mobile(n={n}, {algorithm})",
    )


def edge_insertion(
    n: int,
    *,
    t_insert: float = 100.0,
    endpoints: tuple[int, int] | None = None,
    horizon: float | None = None,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """The Section 1 motivating scenario: a shortcut edge appears on a path.

    A path network runs with worst-case message delays (always
    :math:`\\mathcal{T}`) and split extremal clocks so hop skews are
    non-trivial; at ``t_insert`` an edge between the (far apart) endpoints
    appears.  Horizon defaults to ``t_insert`` plus 3x the theoretical
    stabilization time.
    """
    from ..core import skew_bounds

    params = _params(n, b0)
    u, v = endpoints if endpoints is not None else (0, n - 1)
    if horizon is None:
        horizon = t_insert + 3.0 * skew_bounds.stabilization_time(params)
    churn = ScriptedChurn([(t_insert, "add", u, v)])
    return ExperimentConfig(
        params=params,
        initial_edges=path_edges(n),
        algorithm=algorithm,
        clock_spec="split",
        delay_spec="max",
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"edge_insertion(n={n}, t={t_insert}, {algorithm})",
    )


def flapping_edges(
    n: int,
    *,
    n_flappers: int = 3,
    up: float = 8.0,
    down: float = 6.0,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """Path backbone with chordal edges that flap up and down.

    Short up-times exercise re-discovery and the Gamma eviction path (lost
    timers) heavily.
    """
    params = _params(n, b0)
    rng = np.random.default_rng(seed)
    flap: list[tuple[int, int]] = []
    attempts = 0
    while len(flap) < n_flappers and attempts < 100 * n_flappers:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if abs(u - v) <= 1 or u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in flap:
            flap.append(e)

    churn = ChurnRef(
        "edge_flapper",
        {"edges": flap, "up": up, "down": down, "horizon": horizon},
    )
    return ExperimentConfig(
        params=params,
        initial_edges=path_edges(n),
        algorithm=algorithm,
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"flapping(n={n}, {algorithm})",
    )


def two_chain_insertion(
    n: int,
    *,
    t_insert: float = 150.0,
    horizon: float | None = None,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """Figure 1's two-chain topology with a mid-run B-chain shortcut.

    This is the *harness-level* version (random delays within bounds);
    the full adversarial construction with delay masks lives in
    :mod:`repro.lowerbound.scenario`.
    """
    from ..core import skew_bounds

    params = _params(n, b0)
    edges, chains = two_chain_edges(n)
    b_chain = chains["B"]
    mid = len(b_chain) // 2
    shortcut = (min(b_chain[1], b_chain[mid]), max(b_chain[1], b_chain[mid]))
    if horizon is None:
        horizon = t_insert + 3.0 * skew_bounds.stabilization_time(params)
    churn = ScriptedChurn([(t_insert, "add", shortcut[0], shortcut[1])])
    return ExperimentConfig(
        params=params,
        initial_edges=edges,
        algorithm=algorithm,
        clock_spec="split",
        delay_spec="max",
        churn=[churn],
        horizon=horizon,
        seed=seed,
        name=f"two_chain(n={n}, {algorithm})",
    )


# ---------------------------------------------------------------------- #
# Adversarial workloads (see repro.adversary and docs/adversaries.md)
# ---------------------------------------------------------------------- #


def adversarial_drift(
    n: int,
    *,
    period: float = 5.0,
    strength: float = 1.0,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """Static path under the adaptive two-sided extremal drift adversary.

    Clocks start perfect; the adversary owns every rate and re-pins the
    leading half of the network to ``1 + strength*rho`` (trailing half to
    ``1 - strength*rho``) each ``period``.  Sweep ``strength`` in [0, 1]
    to trace skew versus adversary power.
    """
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=path_edges(n),
        algorithm=algorithm,
        clock_spec="perfect",
        adversary=AdversaryRef(
            "adaptive_drift",
            {"period": period, "strength": strength, "horizon": horizon},
        ),
        horizon=horizon,
        seed=seed,
        name=f"adversarial_drift(n={n}, strength={strength}, {algorithm})",
    )


def adversarial_delay(
    n: int,
    *,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "split",
    b0: float | None = None,
) -> ExperimentConfig:
    """Static path whose message delays are chosen online to mask skew.

    Every message from an ahead node takes :math:`\\mathcal{T}`; every
    message from a behind node arrives instantly -- the shifting technique
    of the lower bounds, re-aimed at each send.
    """
    return ExperimentConfig(
        params=_params(n, b0),
        initial_edges=path_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        adversary=AdversaryRef("adaptive_delay", {}),
        horizon=horizon,
        seed=seed,
        name=f"adversarial_delay(n={n}, {algorithm})",
    )


def greedy_topology(
    n: int,
    *,
    k_extra: int = 4,
    period: float = 5.0,
    hold: float | None = 2.0,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "split",
    b0: float | None = None,
) -> ExperimentConfig:
    """Path backbone + greedy skew-seeking churn of ``k_extra`` edges.

    Deliberately matched to :func:`backbone_churn` (same backbone, clocks,
    budget and rewiring cadence) so benchmarks can isolate the value of
    *choosing* edges over sampling them.  Inserted edges are retracted
    after ``hold`` (the expose-and-retract attack; ``hold=None`` keeps
    them until recycled), and every removal passes through a connectivity
    guard certifying :math:`(\\mathcal{T}+\\mathcal{D})`-interval
    connectivity online.
    """
    params = _params(n, b0)
    backbone = path_edges(n)
    interval = params.max_delay + params.discovery_bound
    adversary = AdversaryRef(
        "greedy_topology",
        {
            "n": n,
            "k_extra": k_extra,
            "period": period,
            "protected": backbone,
            "interval": interval,
            "hold": hold,
            "horizon": horizon,
        },
    )
    return ExperimentConfig(
        params=params,
        initial_edges=backbone,
        algorithm=algorithm,
        clock_spec=clock_spec,
        adversary=adversary,
        horizon=horizon,
        seed=seed,
        name=f"greedy_topology(n={n}, {algorithm})",
    )


def combined_adversary(
    n: int,
    *,
    period: float = 5.0,
    strength: float = 1.0,
    k_extra: int = 4,
    horizon: float = 300.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    b0: float | None = None,
) -> ExperimentConfig:
    """The joint adversary: drift + delay + topology on one execution.

    This is the closest executable analogue of the model's quantifier --
    one adversary choosing rates, delays and churn together, subject to
    the envelope, the delay bound and T-interval connectivity.
    """
    params = _params(n, b0)
    backbone = path_edges(n)
    interval = params.max_delay + params.discovery_bound
    adversary = AdversaryRef(
        "combined",
        {
            "drift": {"period": period, "strength": strength, "horizon": horizon},
            "delay": {},
            "topology": {
                "n": n,
                "k_extra": k_extra,
                "period": period,
                "protected": backbone,
                "interval": interval,
                "horizon": horizon,
            },
        },
    )
    return ExperimentConfig(
        params=params,
        initial_edges=backbone,
        algorithm=algorithm,
        clock_spec="perfect",
        adversary=adversary,
        horizon=horizon,
        seed=seed,
        name=f"combined_adversary(n={n}, strength={strength}, {algorithm})",
    )


# ---------------------------------------------------------------------- #
# Live (wall-clock asyncio) workloads -- see repro.live and docs/live.md
# ---------------------------------------------------------------------- #


def _live_params(
    n: int,
    b0: float | None,
    *,
    rho: float = 0.05,
    max_delay: float = 0.1,
    discovery_bound: float = 0.2,
    tick_interval: float = 0.05,
) -> SystemParams:
    """Parameters scaled for wall-clock sessions: 1 time unit = 1 second.

    Ticks every 50 ms subjective and a 100 ms delay bound give a 2-second
    laptop session ~40 protocol rounds per node -- enough activity for the
    oracle's rate/skew monitors to check something real.
    """
    return SystemParams.for_network(
        n,
        rho=rho,
        max_delay=max_delay,
        discovery_bound=discovery_bound,
        tick_interval=tick_interval,
        b0=b0,
    )


def live_ring(
    n: int = 8,
    *,
    duration: float = 5.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    clock_spec: str = "uniform",
    sample_interval: float = 0.25,
    channel: str = "loopback",
    jitter: float = 0.0,
    oracle: bool = True,
    b0: float | None = None,
) -> ExperimentConfig:
    """A ring of real-time nodes with artificial drift, checked online.

    The default live workload: ``n`` nodes taking turns on one event
    loop, loopback channel (``channel="udp"`` for real sockets), constant
    per-node drift drawn from the ``rho`` envelope, and the full streaming
    oracle attached.  ``duration`` is wall-clock seconds.
    """
    return ExperimentConfig(
        params=_live_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        clock_spec=clock_spec,
        runtime=RuntimeRef("live", {"channel": channel, "jitter": jitter}),
        horizon=duration,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}) if oracle else None,
        name=f"live_ring(n={n}, {algorithm})",
    )


def live_grid(
    rows: int = 3,
    cols: int = 3,
    *,
    duration: float = 5.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    sample_interval: float = 0.25,
    channel: str = "loopback",
    jitter: float = 0.0,
    b0: float | None = None,
) -> ExperimentConfig:
    """A live grid session (denser topology, heavier per-tick fan-out)."""
    n = rows * cols
    return ExperimentConfig(
        params=_live_params(n, b0),
        initial_edges=grid_edges(rows, cols),
        algorithm=algorithm,
        runtime=RuntimeRef("live", {"channel": channel, "jitter": jitter}),
        horizon=duration,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}),
        name=f"live_grid({rows}x{cols}, {algorithm})",
    )


def live_churn_ring(
    n: int = 8,
    *,
    duration: float = 5.0,
    seed: int = 0,
    algorithm: str = "dcsa",
    sample_interval: float = 0.25,
    channel: str = "loopback",
    jitter: float = 0.0,
    b0: float | None = None,
) -> ExperimentConfig:
    """A live ring with scripted mid-session churn on a chord edge.

    A shortcut chord across the ring appears at 40% of the session and
    disappears at 80%, exercising live discovery injection and the
    envelope monitor's edge-age tracking against wall-clock timestamps.
    """
    chord = (0, n // 2)
    churn = ScriptedChurn(
        [
            (0.4 * duration, "add", chord[0], chord[1]),
            (0.8 * duration, "remove", chord[0], chord[1]),
        ]
    )
    return ExperimentConfig(
        params=_live_params(n, b0),
        initial_edges=ring_edges(n),
        algorithm=algorithm,
        runtime=RuntimeRef("live", {"channel": channel, "jitter": jitter}),
        churn=[churn],
        horizon=duration,
        sample_interval=sample_interval,
        seed=seed,
        track_edges=False,
        record=False,
        oracle=OracleRef("standard", {}),
        name=f"live_churn_ring(n={n}, {algorithm})",
    )


#: Named workload registry: the single place sweeps and the CLI resolve
#: workload names.  Every factory above registers itself here.
WORKLOADS = {
    "static_path": static_path,
    "static_ring": static_ring,
    "large_ring": large_ring,
    "huge_ring": huge_ring,
    "huge_grid": huge_grid,
    "huge_sync_ring": huge_sync_ring,
    "huge_sync_grid": huge_sync_grid,
    "huge_churn_ring": huge_churn_ring,
    "static_grid": static_grid,
    "backbone_churn": backbone_churn,
    "rotating_backbone": rotating_backbone,
    "mobile_network": mobile_network,
    "edge_insertion": edge_insertion,
    "flapping_edges": flapping_edges,
    "two_chain_insertion": two_chain_insertion,
    "adversarial_drift": adversarial_drift,
    "adversarial_delay": adversarial_delay,
    "greedy_topology": greedy_topology,
    "combined_adversary": combined_adversary,
    "live_ring": live_ring,
    "live_grid": live_grid,
    "live_churn_ring": live_churn_ring,
}
