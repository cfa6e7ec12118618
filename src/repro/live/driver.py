"""Run an :class:`~repro.harness.runner.ExperimentConfig` in real time.

:func:`run_live_experiment` is the bridge between the declarative harness
config and the asyncio runtime: it is the constructor of the ``"live"``
entry of :data:`repro.harness.registry.RUNTIME`, so

.. code-block:: python

   cfg = configs.live_ring(8, duration=2.0)
   result = run_experiment(cfg)          # dispatches here
   assert result.oracle_report.ok

runs a real wall-clock session and returns an ordinary
:class:`~repro.harness.runner.RunResult` (with an empty record -- live
runs are checked online by the streaming oracle, never recorded).

Config interpretation in live mode:

* ``horizon`` is the session duration in **wall-clock seconds** (one model
  time unit == one second, so ``params.max_delay`` etc. are in seconds);
* ``clock_spec`` names a constant entry of
  :data:`repro.harness.registry.CLOCK`, whose rate column becomes
  constant-rate artificial drift (:mod:`repro.live.clocks`;
  ``random_walk`` draws as ``uniform``); a ``ClockRef`` is rejected;
* ``churn`` must consist of :class:`~repro.network.churn.ScriptedChurn`
  entries (replayed at wall-clock offsets); randomized churn builders,
  adversaries and the recorder are simulation-only and rejected;
* ``delay_spec``/``discovery_spec`` are ignored -- latency is whatever the
  channel really delivers (that is the point).
"""

from __future__ import annotations

from typing import Any

from ..harness.registry import CLOCK, CONSTANT_CLOCKS, RuntimeRef
from ..harness.runner import (
    ALGORITHMS,
    ExperimentConfig,
    RunResult,
    _draw_staggers,
)
from ..analysis.recorder import RunRecord
from ..core.protocol import ProtocolCore
from ..network.churn import ScriptedChurn
from ..oracle.oracle import resolve_oracle
from ..sim.rng import RngFactory
from .channels import LiveChannel, LoopbackChannel, UdpChannel
from .clocks import LiveClock
from .runtime import ChurnEvent, LiveRunResult, LiveRuntime

__all__ = ["build_live_runtime", "run_live_experiment"]


def _make_channel(
    seed: int,
    *,
    channel: str = "loopback",
    jitter: float = 0.0,
    host: str = "127.0.0.1",
    base_port: int = 0,
) -> LiveChannel:
    if channel == "loopback":
        return LoopbackChannel(jitter=jitter, seed=seed)
    if channel == "udp":
        return UdpChannel(host=host, base_port=base_port)
    raise ValueError(f"unknown live channel {channel!r}; use 'loopback' or 'udp'")


def build_live_runtime(
    cfg: ExperimentConfig,
    *,
    capture_effects: bool = False,
    **channel_opts: Any,
) -> LiveRuntime:
    """Wire a live session from a config without running it.

    ``channel_opts`` (``channel`` / ``jitter`` / ``host`` / ``base_port``)
    default to the config's ``RuntimeRef("live", {...})`` kwargs -- what
    ``run_experiment(cfg)`` would pass; explicit keywords win.
    """
    ref = cfg.runtime
    if isinstance(ref, RuntimeRef) and ref.name == "live":
        channel_opts = {**ref.kwargs, **channel_opts}
    params = cfg.params
    params.validate()
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {cfg.algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    if cfg.record:
        raise ValueError(
            "the live runtime has no recorder; set record=False (live runs "
            "are checked online by the streaming oracle instead)"
        )
    if cfg.adversary is not None:
        raise ValueError(
            "adaptive adversaries steer simulated clocks/delays and cannot "
            "run against wall-clock hardware; use the sim runtime"
        )
    spec = "uniform" if cfg.clock_spec == "random_walk" else cfg.clock_spec
    if not isinstance(spec, str) or spec not in CONSTANT_CLOCKS:
        raise ValueError(
            f"live clocks run at constant rates: clock_spec {cfg.clock_spec!r} "
            f"must name one of {', '.join(CONSTANT_CLOCKS)} (or random_walk)"
        )
    churn_events: list[ChurnEvent] = []
    for proc in cfg.churn:
        if not isinstance(proc, ScriptedChurn):
            raise ValueError(
                f"live churn must be ScriptedChurn (wall-clock offsets); got {proc!r}"
            )
        churn_events.extend(
            (float(t), str(op), int(u), int(v)) for t, op, u, v in proc.events
        )
    core_cls = ALGORITHMS[cfg.algorithm]
    rngf = RngFactory(cfg.seed)
    draw = CLOCK[spec].build
    assert draw is not None
    rates, _ = draw(params, rngf.spawn("live_clocks"), cfg.horizon)
    clocks = {i: LiveClock(rate) for i, rate in enumerate(rates.tolist())}
    stagger = _draw_staggers(core_cls, cfg, rngf.spawn("live_stagger"))
    cores: dict[int, ProtocolCore] = {
        i: core_cls(i, params, **({} if stagger is None else {"tick_stagger": float(stagger[i])}))
        for i in range(params.n)
    }
    oracle, sample_interval = resolve_oracle(
        cfg.oracle, params, cfg.seed, cfg.sample_interval
    )
    return LiveRuntime(
        params,
        cores,
        clocks,
        _make_channel(cfg.seed, **channel_opts),
        duration=cfg.horizon,
        initial_edges=[(int(u), int(v)) for u, v in cfg.initial_edges],
        churn_events=churn_events,
        oracle=oracle,
        sample_interval=sample_interval,
        capture_effects=capture_effects,
    )


def _to_run_result(cfg: ExperimentConfig, live: LiveRunResult) -> RunResult:
    return RunResult(
        config=cfg,
        record=RunRecord.empty(live.nodes),
        graph=live.graph,
        nodes=dict(live.nodes),
        transport_stats=live.transport_stats,
        events_dispatched=live.events_handled,
        oracle_report=live.oracle_report,
        spans=live.spans,
        live=live,
    )


def run_live_experiment(cfg: ExperimentConfig, **kwargs: Any) -> RunResult:
    """Execute ``cfg`` as a wall-clock asyncio session; see module docstring."""
    runtime = build_live_runtime(cfg, **kwargs)
    return _to_run_result(cfg, runtime.run())
