"""Live asyncio runtime: the protocol cores on real clocks and channels.

Where :mod:`repro.sim` replays the sans-IO cores of
:mod:`repro.core.protocol` through a discrete-event queue, this package
executes them *in real time*: per-node turns on one asyncio loop,
monotonic wall clocks with configurable artificial drift
(:mod:`repro.live.clocks`), pluggable channels
(:mod:`repro.live.channels` -- deterministic in-process loopback for CI,
UDP sockets for real networks), scripted live churn, and the streaming
conformance oracle of :mod:`repro.oracle` attached to the running session
so the paper's bounds are certified online, exactly as in simulations.

Entry points:

* ``repro live --workload live_ring --duration 2 --json`` (CLI);
* :func:`repro.live.driver.run_live_experiment`, reachable through
  ``ExperimentConfig(runtime=RuntimeRef("live", {...}))`` and
  :func:`repro.harness.runner.run_experiment`;
* :class:`repro.live.runtime.LiveRuntime` directly, for custom wiring.

See ``docs/live.md`` for the architecture tour.
"""

from .channels import ChannelError, LiveChannel, LoopbackChannel, UdpChannel
from .clocks import LiveClock, build_live_clocks
from .driver import build_live_runtime, run_live_experiment
from .runtime import LiveNodeView, LiveRunResult, LiveRuntime

__all__ = [
    "ChannelError",
    "LiveChannel",
    "LiveClock",
    "LiveNodeView",
    "LiveRunResult",
    "LiveRuntime",
    "LoopbackChannel",
    "UdpChannel",
    "build_live_clocks",
    "build_live_runtime",
    "run_live_experiment",
]
