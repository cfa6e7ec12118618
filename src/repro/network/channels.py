"""Message delay policies.

The model (Section 3.2) bounds every message delay by :math:`\\mathcal{T}`
but leaves the specific delay adversarial.  A :class:`DelayPolicy` decides
the delay of each message; the transport enforces FIFO on top (clamping a
delivery to not overtake its predecessor on the same directed link -- which
can never push a delivery past the :math:`\\mathcal{T}` bound, because the
predecessor itself was delivered within its own bound).

Policies provided:

* :class:`ConstantDelay` -- fixed delay (0 for instant, ``T`` for worst-case);
* :class:`UniformDelay` -- i.i.d. uniform in ``[lo, hi]``.

The adversarial patterns are policies of their own: the lower-bound delay
masks (:mod:`repro.lowerbound.mask`) and the adaptive masking adversary
(:mod:`repro.adversary.delay`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DelayPolicy", "ConstantDelay", "UniformDelay"]


class DelayPolicy:
    """Decides per-message delays.  Must return values in ``[0, max_delay]``."""

    def delay(self, u: int, v: int, t: float) -> float:
        """Delay for a message sent ``u -> v`` at time ``t``."""
        raise NotImplementedError


class ConstantDelay(DelayPolicy):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"delay must be non-negative; got {value!r}")
        self.value = float(value)

    def delay(self, u: int, v: int, t: float) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantDelay({self.value!r})"


class UniformDelay(DelayPolicy):
    """I.i.d. uniform delays in ``[lo, hi]``.

    Draws are taken from the generator in batches: ``Generator.uniform``
    consumes its bit stream element-wise, so a batch of ``k`` draws is
    bit-identical to ``k`` sequential scalar draws (pinned by a test) while
    amortising the numpy call overhead across the delivery hot path.
    """

    _BATCH = 1024

    def __init__(self, lo: float, hi: float, rng: np.random.Generator) -> None:
        if not (0.0 <= lo <= hi):
            raise ValueError(f"need 0 <= lo <= hi; got [{lo!r}, {hi!r}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self._rng = rng
        self._buf: list[float] = []

    def delay(self, u: int, v: int, t: float) -> float:
        if self.lo == self.hi:
            return self.lo
        buf = self._buf
        if not buf:
            # Reversed so pop() (O(1), from the end) yields stream order;
            # tolist() materialises python floats (same bit patterns).
            buf.extend(self._rng.uniform(self.lo, self.hi, size=self._BATCH)[::-1].tolist())
        return buf.pop()

    def __repr__(self) -> str:
        return f"UniformDelay([{self.lo!r}, {self.hi!r}])"
