"""A transport double for drivers wired without a network."""

from __future__ import annotations


class FakeTransport:
    """Records every send as ``(u, v, payload)`` and fires a driver's
    timers, as the real transport's ``KIND_TIMER`` handler does."""

    def __init__(self):
        self.sent = []

    def send(self, u, v, payload):
        self.sent.append((u, v, payload))

    def _handle_timer(self, ev):
        ev.a._fire_timer(ev.b)
