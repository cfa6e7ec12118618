"""The paper's primary contribution: the DCSA and its proven bounds.

* :mod:`repro.core.protocol` -- the algorithms as sans-IO cores:
  :class:`DCSACore` (Algorithm 2, Section 5) and the baselines
  :class:`MaxSyncCore`, :class:`StaticGradientCore` and
  :class:`FreeRunningCore`, pure state machines driven by both the
  simulator and the :mod:`repro.live` asyncio runtime;
* :class:`BFunction` -- the decaying per-edge tolerance;
* :class:`ClockSyncNode` -- the simulation driver of every core;
* :mod:`repro.core.skew_bounds` -- every closed-form bound of Sections 4 & 6.
"""

from .bfunction import BFunction
from .estimates import NeighborEstimate, NeighborTable
from .node import ClockSyncNode
from .protocol import (
    CancelTimer,
    DCSACore,
    DiscoverAdd,
    DiscoverRemove,
    Effect,
    Event,
    FreeRunningCore,
    JumpL,
    MaxSyncCore,
    MessageReceived,
    ProtocolCore,
    ProtocolError,
    RaiseLmax,
    Send,
    SetTimer,
    Start,
    StaticGradientCore,
    TimerFired,
    Update,
)
from . import skew_bounds

__all__ = [
    "BFunction",
    "CancelTimer",
    "ClockSyncNode",
    "DCSACore",
    "DiscoverAdd",
    "DiscoverRemove",
    "Effect",
    "Event",
    "FreeRunningCore",
    "JumpL",
    "MaxSyncCore",
    "MessageReceived",
    "NeighborEstimate",
    "NeighborTable",
    "ProtocolCore",
    "ProtocolError",
    "RaiseLmax",
    "Send",
    "SetTimer",
    "Start",
    "StaticGradientCore",
    "TimerFired",
    "Update",
    "skew_bounds",
]
