"""Model parameters and derived quantities for dynamic gradient clock sync.

This module defines :class:`SystemParams`, the single source of truth for all
model constants used throughout the library.  The names follow the paper
(Kuhn, Locher, Oshman, *Gradient Clock Synchronization in Dynamic Networks*,
SPAA 2009 / MIT-CSAIL-TR-2009-022):

======================  =======================================================
symbol (paper)          meaning
======================  =======================================================
``n``                   number of nodes (fixed for an execution)
``rho``                 maximum hardware clock drift; rates lie in
                        ``[1 - rho, 1 + rho]``
``max_delay``           :math:`\\mathcal{T}` -- upper bound on message delay
``discovery_bound``     :math:`\\mathcal{D}` -- upper bound on the time between
                        a persistent topology change and its endpoints
                        discovering it (the paper assumes
                        :math:`\\mathcal{D} > \\mathcal{T}`)
``tick_interval``       :math:`\\Delta H` -- subjective time between periodic
                        updates sent to all believed neighbours
``b0``                  :math:`B_0` -- the base (stable) skew budget per edge;
                        must satisfy :math:`B_0 > 2(1+\\rho)\\tau`
======================  =======================================================

Derived quantities (Section 5 of the paper):

* ``delta_t``  = :math:`\\Delta T = \\mathcal{T} + \\Delta H / (1 - \\rho)` --
  the longest *real* time between two receipts on a live edge.
* ``delta_t_prime`` = :math:`\\Delta T' = (1+\\rho)\\Delta T` -- the subjective
  waiting budget before declaring a neighbour lost.
* ``tau`` = :math:`\\tau = \\frac{1+\\rho}{1-\\rho}\\Delta T + \\mathcal{T} +
  \\mathcal{D}` -- staleness bound on neighbour estimates (Property 6.1).
* ``global_skew_bound`` = :math:`G(n) = ((1+\\rho)\\mathcal{T} +
  2\\rho\\mathcal{D})(n-1)` -- Theorem 6.9.
* ``w_window`` = :math:`W = (4 G(n)/B_0 + 1)\\tau` -- Lemma 6.10, the time a
  new neighbour must be continuously tracked before it can block a node.

The richer theory API (the dynamic local skew envelope of Corollary 6.13, the
trade-off of Corollary 6.14, lower-bound predictions) lives in
:mod:`repro.core.skew_bounds` and is parameterised by this class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Mapping

__all__ = [
    "ParameterError",
    "SystemParams",
    "DEFAULT_RHO",
    "DEFAULT_MAX_DELAY",
    "DEFAULT_DISCOVERY_BOUND",
    "DEFAULT_TICK_INTERVAL",
]

#: Default maximum hardware clock drift (1%).
DEFAULT_RHO = 0.01
#: Default maximum message delay :math:`\mathcal{T}` (defines the time unit).
DEFAULT_MAX_DELAY = 1.0
#: Default discovery bound :math:`\mathcal{D}` (> :math:`\mathcal{T}`).
DEFAULT_DISCOVERY_BOUND = 2.0
#: Default subjective tick interval :math:`\Delta H`.
DEFAULT_TICK_INTERVAL = 0.5


class ParameterError(ValueError):
    """Raised when a :class:`SystemParams` violates a model constraint."""


@dataclass(frozen=True)
class SystemParams:
    """Immutable bundle of model parameters with derived quantities.

    Instances are cheap value objects; every algorithm node, transport and
    analysis component receives the *same* instance so that all derived
    bounds agree.

    Use :meth:`SystemParams.for_network` to obtain a validated instance with
    a sensible :math:`B_0` for a given network size, or construct directly
    and call :meth:`validate`.
    """

    n: int
    rho: float = DEFAULT_RHO
    max_delay: float = DEFAULT_MAX_DELAY
    discovery_bound: float = DEFAULT_DISCOVERY_BOUND
    tick_interval: float = DEFAULT_TICK_INTERVAL
    b0: float = 0.0  # 0.0 means "auto"; resolved by for_network / validate

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def for_network(
        cls,
        n: int,
        *,
        rho: float = DEFAULT_RHO,
        max_delay: float = DEFAULT_MAX_DELAY,
        discovery_bound: float = DEFAULT_DISCOVERY_BOUND,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
        b0: float | None = None,
        b0_scale: float = 1.0,
    ) -> "SystemParams":
        """Build validated parameters for an ``n``-node network.

        If ``b0`` is omitted it is chosen per Corollary 6.14 as
        :math:`B_0 = \\lambda\\sqrt{\\rho n}` (with ``b0_scale`` playing the
        role of :math:`\\lambda`), clamped up to the validity floor
        :math:`2(1+\\rho)\\tau` times a safety factor so the constraint
        :math:`B_0 > 2(1+\\rho)\\tau` always holds.
        """
        probe = cls(
            n=n,
            rho=rho,
            max_delay=max_delay,
            discovery_bound=discovery_bound,
            tick_interval=tick_interval,
            b0=1.0,  # placeholder, tau does not depend on b0
        )
        floor = 2.0 * (1.0 + rho) * probe.tau
        if b0 is None:
            b0 = max(b0_scale * math.sqrt(rho * n) * probe.global_skew_rate, 1.05 * floor)
        params = cls(
            n=n,
            rho=rho,
            max_delay=max_delay,
            discovery_bound=discovery_bound,
            tick_interval=tick_interval,
            b0=float(b0),
        )
        params.validate()
        return params

    def with_b0(self, b0: float) -> "SystemParams":
        """Return a copy with a different :math:`B_0` (validated)."""
        p = replace(self, b0=float(b0))
        p.validate()
        return p

    def with_n(self, n: int) -> "SystemParams":
        """Return a copy for a different network size (validated)."""
        p = replace(self, n=int(n))
        p.validate()
        return p

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check every constraint the paper's analysis assumes.

        Raises :class:`ParameterError` with an explanatory message when a
        constraint is violated.  A frozen instance cannot stop being
        valid, so a passed check is remembered (in ``__dict__``, like the
        cached quantities below: no field, so ``==``, ``hash`` and
        :func:`dataclasses.replace` do not see it).  The constraints are:

        * ``0 < rho < 0.5`` (the logical-clock rate floor of 1/2 requires
          ``1 - rho >= 1/2``);
        * ``max_delay > 0`` and ``tick_interval > 0``;
        * ``discovery_bound > max(max_delay, tick_interval/(1-rho))``
          (Section 3.2 / Section 5 assumption on :math:`\\mathcal{D}`);
        * ``n >= 2``;
        * ``b0 > 2 (1 + rho) tau`` (Section 5, definition of ``B``).
        """
        if "_valid" in self.__dict__:
            return
        if not (0.0 < self.rho < 0.5):
            raise ParameterError(
                f"rho must be in (0, 0.5); got {self.rho!r}"
            )
        if self.max_delay <= 0.0:
            raise ParameterError(
                f"max_delay must be positive; got {self.max_delay!r}"
            )
        if self.tick_interval <= 0.0:
            raise ParameterError(
                f"tick_interval must be positive; got {self.tick_interval!r}"
            )
        if self.n < 2:
            raise ParameterError(f"n must be at least 2; got {self.n!r}")
        min_d = max(self.max_delay, self.tick_interval / (1.0 - self.rho))
        if self.discovery_bound <= min_d:
            raise ParameterError(
                "discovery_bound must exceed max(max_delay, "
                f"tick_interval/(1-rho)) = {min_d:.6g}; got "
                f"{self.discovery_bound!r}"
            )
        floor = 2.0 * (1.0 + self.rho) * self.tau
        if self.b0 <= floor:
            raise ParameterError(
                f"b0 must exceed 2(1+rho)tau = {floor:.6g}; got {self.b0!r}"
            )
        self.__dict__["_valid"] = True

    # ------------------------------------------------------------------ #
    # Derived quantities (Section 5); the ones every node reads at
    # construction are computed once (``cached_property`` stores into
    # ``__dict__`` directly, so it works on a frozen dataclass).
    # ------------------------------------------------------------------ #

    @cached_property
    def delta_t(self) -> float:
        """:math:`\\Delta T = \\mathcal{T} + \\Delta H/(1-\\rho)`.

        The longest real time between two message receipts on an edge that
        exists throughout the interval.
        """
        return self.max_delay + self.tick_interval / (1.0 - self.rho)

    @cached_property
    def delta_t_prime(self) -> float:
        """:math:`\\Delta T' = (1+\\rho)\\Delta T` (subjective lost-timer)."""
        return (1.0 + self.rho) * self.delta_t

    @cached_property
    def tau(self) -> float:
        """:math:`\\tau` -- bound on neighbour-estimate staleness.

        Property 6.1: if ``v`` is tracked by ``u`` at time ``t`` then ``u``
        has received a message ``v`` sent at some time ``>= t - tau``.
        """
        return (
            (1.0 + self.rho) / (1.0 - self.rho) * self.delta_t
            + self.max_delay
            + self.discovery_bound
        )

    @cached_property
    def global_skew_rate(self) -> float:
        """Per-hop coefficient of the global skew bound.

        ``G(n) = global_skew_rate * (n - 1)`` with
        ``global_skew_rate = (1+rho) * max_delay + 2 * rho * discovery_bound``.
        """
        return (1.0 + self.rho) * self.max_delay + 2.0 * self.rho * self.discovery_bound

    @cached_property
    def global_skew_bound(self) -> float:
        """:math:`G(n)` of Theorem 6.9 for this instance's ``n``."""
        return self.global_skew_rate * (self.n - 1)

    @property
    def w_window(self) -> float:
        """:math:`W = (4 G(n)/B_0 + 1)\\tau` (Lemma 6.10).

        A node can only be blocked by a neighbour it has tracked continuously
        for at least ``W`` real time; informally, the time information about a
        new edge needs to propagate.
        """
        return (4.0 * self.global_skew_bound / self.b0 + 1.0) * self.tau

    @property
    def rate_min(self) -> float:
        """Minimum admissible hardware clock rate, :math:`1-\\rho`."""
        return 1.0 - self.rho

    @property
    def rate_max(self) -> float:
        """Maximum admissible hardware clock rate, :math:`1+\\rho`."""
        return 1.0 + self.rho

    # ------------------------------------------------------------------ #
    # The B function (Section 5)
    # ------------------------------------------------------------------ #

    @cached_property
    def b_intercept(self) -> float:
        """Value of the decreasing branch of ``B`` at subjective age 0.

        ``B(0) = 5 G(n) + (1+rho) tau + B0``; any perceived skew below this
        is tolerated on a brand-new edge, which is why fresh edges can never
        block a node (their constraint exceeds the global skew bound).
        """
        return 5.0 * self.global_skew_bound + (1.0 + self.rho) * self.tau + self.b0

    @cached_property
    def b_slope(self) -> float:
        """Absolute slope of the decreasing branch of ``B``:
        :math:`B_0 / ((1+\\rho)\\tau)` per unit of subjective edge age."""
        return self.b0 / ((1.0 + self.rho) * self.tau)

    def b_function(self, subjective_age: float) -> float:
        """The per-edge tolerance :math:`B(\\Delta t)` of Section 5.

        ``subjective_age`` is :math:`H_u - C^v_u`, the subjective time since
        the edge was (re-)discovered.  Returns

        .. math::
           B(\\Delta t) = \\max\\Bigl\\{B_0,\\;
             5G(n) + (1{+}\\rho)\\tau + B_0
             - \\tfrac{B_0}{(1{+}\\rho)\\tau}\\,\\Delta t\\Bigr\\}.
        """
        return max(self.b0, self.b_intercept - self.b_slope * subjective_age)

    @property
    def b_settle_subjective(self) -> float:
        """Subjective edge age at which ``B`` first reaches its floor ``B0``.

        Solves ``b_intercept - b_slope * x = b0``; equals
        ``(5 G(n) + (1+rho) tau) * (1+rho) tau / B0`` -- the Theta(n / B0)
        adaptation time of Corollary 6.14, in subjective units.
        """
        return (self.b_intercept - self.b0) / self.b_slope

    @property
    def b_settle_real(self) -> float:
        """Upper bound on the *real* time for ``B`` to reach ``B0``.

        Subjective time accrues at rate at least ``1 - rho``, so the real
        settling time is at most ``b_settle_subjective / (1 - rho)``.
        """
        return self.b_settle_subjective / (1.0 - self.rho)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict[str, Any]:
        """Pickle the fields only, never the cached derived values."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict[str, Any]:
        """Return the raw (non-derived) fields as a JSON-safe dict.

        Round-trips exactly through :meth:`from_dict`; derived quantities
        are recomputed on the way back, so the dict is a stable identity
        for hashing (see :mod:`repro.sweep.store`).
        """
        return {
            "n": int(self.n),
            "rho": float(self.rho),
            "max_delay": float(self.max_delay),
            "discovery_bound": float(self.discovery_bound),
            "tick_interval": float(self.tick_interval),
            "b0": float(self.b0),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemParams":
        """Rebuild a validated instance from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(f"unknown SystemParams fields: {unknown}")
        params = cls(**dict(data))
        params.validate()
        return params

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def describe(self) -> dict[str, Any]:
        """Return a flat dict of all raw and derived values (for reports)."""
        return {
            "n": self.n,
            "rho": self.rho,
            "max_delay": self.max_delay,
            "discovery_bound": self.discovery_bound,
            "tick_interval": self.tick_interval,
            "b0": self.b0,
            "delta_t": self.delta_t,
            "delta_t_prime": self.delta_t_prime,
            "tau": self.tau,
            "global_skew_bound": self.global_skew_bound,
            "w_window": self.w_window,
            "b_intercept": self.b_intercept,
            "b_slope": self.b_slope,
            "b_settle_real": self.b_settle_real,
        }
