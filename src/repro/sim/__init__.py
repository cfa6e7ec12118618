"""Discrete-event simulation substrate (clocks, queue, kernel).

This package is the Timed-I/O-Automata-style execution environment the paper
assumes (Section 3.2): a deterministic event loop (:class:`Simulator`), exact
piecewise-linear hardware clocks with bounded drift (:mod:`repro.sim.clocks`),
cancellable timers (:class:`EventQueue`) and seeded independent random
streams (:class:`RngFactory`).  Event traces are the span table of
:mod:`repro.tracing`.
"""

from .clocks import (
    ConstantRateClock,
    HardwareClock,
    PiecewiseRateClock,
    extremal_clock,
    perfect_clock,
    random_walk_clock,
    sinusoidal_clock,
    two_phase_clock,
    validate_drift,
)
from .events import (
    PRIORITY_DELIVERY,
    PRIORITY_SAMPLE,
    PRIORITY_TIMER,
    PRIORITY_TOPOLOGY,
    ScheduledEvent,
)
from .queue import EventQueue
from .rng import RngFactory
from .simulator import SimulationError, Simulator

__all__ = [
    "ConstantRateClock",
    "EventQueue",
    "HardwareClock",
    "PRIORITY_DELIVERY",
    "PRIORITY_SAMPLE",
    "PRIORITY_TIMER",
    "PRIORITY_TOPOLOGY",
    "PiecewiseRateClock",
    "RngFactory",
    "ScheduledEvent",
    "SimulationError",
    "Simulator",
    "extremal_clock",
    "perfect_clock",
    "random_walk_clock",
    "sinusoidal_clock",
    "two_phase_clock",
    "validate_drift",
]
