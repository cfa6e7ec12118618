"""Message delay policies.

The model (Section 3.2) bounds every message delay by :math:`\\mathcal{T}`
but leaves the specific delay adversarial.  A :class:`DelayPolicy` decides
the delay of each message; the transport enforces FIFO on top (clamping a
delivery to not overtake its predecessor on the same directed link -- which
can never push a delivery past the :math:`\\mathcal{T}` bound, because the
predecessor itself was delivered within its own bound).

Policies provided:

* :class:`ConstantDelay` -- fixed delay (0 for instant, ``T`` for worst-case);
* :class:`UniformDelay` -- i.i.d. uniform in ``[lo, hi]``;
* :class:`PerEdgeDelay` -- per-edge override with a fallback policy, used to
  build adversarial patterns (the lower-bound delay masks subclass this
  behaviour in :mod:`repro.lowerbound.mask`);
* :class:`DirectionalDelay` -- different delays for the two directions of
  selected edges, the standard shifting-technique ingredient.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .graph import edge_key

__all__ = [
    "DelayPolicy",
    "ConstantDelay",
    "UniformDelay",
    "PerEdgeDelay",
    "DirectionalDelay",
]


class DelayPolicy:
    """Decides per-message delays.  Must return values in ``[0, max_delay]``."""

    def delay(self, u: int, v: int, t: float) -> float:
        """Delay for a message sent ``u -> v`` at time ``t``."""
        raise NotImplementedError

    def max_bound(self) -> float:
        """An upper bound on every delay this policy can produce."""
        raise NotImplementedError


class ConstantDelay(DelayPolicy):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"delay must be non-negative; got {value!r}")
        self.value = float(value)

    def delay(self, u: int, v: int, t: float) -> float:
        return self.value

    def max_bound(self) -> float:
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

    def max_bound(self) -> float:
        return self.hi

    def __repr__(self) -> str:
        return f"UniformDelay([{self.lo!r}, {self.hi!r}])"


class PerEdgeDelay(DelayPolicy):
    """Per-edge constant delays with a fallback policy for other edges.

    ``overrides`` maps canonical edge keys to fixed delays; messages on any
    other edge fall through to ``default``.
    """

    def __init__(
        self,
        overrides: Mapping[tuple[int, int], float],
        default: DelayPolicy,
    ) -> None:
        self.overrides = {edge_key(*e): float(d) for e, d in overrides.items()}
        for e, d in self.overrides.items():
            if d < 0.0:
                raise ValueError(f"negative delay {d!r} for edge {e}")
        self.default = default

    def delay(self, u: int, v: int, t: float) -> float:
        d = self.overrides.get(edge_key(u, v))
        if d is not None:
            return d
        return self.default.delay(u, v, t)

    def max_bound(self) -> float:
        bounds = list(self.overrides.values())
        bounds.append(self.default.max_bound())
        return max(bounds)


class DirectionalDelay(DelayPolicy):
    """Direction-dependent delays on selected edges.

    ``directed`` maps ordered pairs ``(u, v)`` to the delay of messages sent
    from ``u`` to ``v``.  Unlisted directions use ``default``.  This is the
    shifting-technique workhorse: delaying one direction by ``T`` and the
    other by 0 hides a hardware-clock shift of ``T`` between the endpoints
    (Lemma 4.2's execution alpha).
    """

    def __init__(
        self,
        directed: Mapping[tuple[int, int], float],
        default: DelayPolicy,
    ) -> None:
        self.directed = {(int(a), int(b)): float(d) for (a, b), d in directed.items()}
        for pair, d in self.directed.items():
            if d < 0.0:
                raise ValueError(f"negative delay {d!r} for direction {pair}")
        self.default = default

    def delay(self, u: int, v: int, t: float) -> float:
        d = self.directed.get((u, v))
        if d is not None:
            return d
        return self.default.delay(u, v, t)

    def max_bound(self) -> float:
        bounds = list(self.directed.values())
        bounds.append(self.default.max_bound())
        return max(bounds)
