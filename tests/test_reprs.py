"""Debug reprs name the object and the state a reader needs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bfunction import BFunction
from repro.core.estimates import NeighborEstimate
from repro.live.clocks import LiveClock
from repro.network.channels import ConstantDelay, UniformDelay
from repro.sim.events import ScheduledEvent


def _cancelled_event() -> ScheduledEvent:
    ev = ScheduledEvent(2.5, 1, 7, label="tick")
    ev.cancelled = True
    return ev


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: BFunction(1.0, 2.0, 0.5), "BFunction(b0=1, intercept=2, slope=0.5)"),
        (lambda: NeighborEstimate(1.0, 2.5), "NeighborEstimate(added_h=1.0, l_est=2.5)"),
        (lambda: LiveClock(1.01), "LiveClock(rate=1.01)"),
        (lambda: ConstantDelay(0.5), "ConstantDelay(0.5)"),
        (
            lambda: UniformDelay(0.0, 1.0, np.random.default_rng(0)),
            "UniformDelay([0.0, 1.0])",
        ),
        (
            lambda: ScheduledEvent(1.0, 2, 3),
            "<ScheduledEvent t=1 prio=2 seq=3 kind=0 pending>",
        ),
        (_cancelled_event, "<ScheduledEvent t=2.5 prio=1 seq=7 kind=0 'tick' cancelled>"),
    ],
)
def test_repr(build, text):
    assert repr(build()) == text
