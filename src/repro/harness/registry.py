"""One table per config ingredient, and the serialisable refs into them.

:class:`~repro.harness.runner.ExperimentConfig` must round-trip through a
plain JSON-safe dict so sweeps can be hashed, cached and shipped to worker
processes (see :mod:`repro.sweep`).  Raw callables cannot survive that trip,
so every ingredient of a config has a *name* in one of the tables below,
and every ingredient field holds a ref into its table (:class:`ClockRef`,
:class:`DelayRef`, :class:`DiscoveryRef`, :class:`ChurnRef`,
:class:`AdversaryRef`, :class:`OracleRef`, :class:`RuntimeRef`): a frozen,
JSON-safe ``(name, kwargs)`` pair that resolves against its table and *is
itself* the constructor call the run makes.  The spec fields and
``runtime`` may hold a bare entry name instead.  ``CLOCK`` /
``DELAY["masked"]`` (Lemma 4.2's executions,
:func:`repro.lowerbound.masked_experiment`) and ``DISCOVERY["constant"]``
take kwargs.

Each entry is an :class:`Ingredient`: the spec keys it takes with their
defaults, how a spec (:func:`repro.harness.configs.build`) becomes the
config's entry, and the constructor the run calls.  Adding an ingredient is
one entry::

    CHURN["my_churn"] = Ingredient(
        build=lambda params, rng, **kw: MyChurn(rng=rng, **kw),
        make=lambda s, params, backbone: (backbone, {"n": s["n"], "k": s["k"]}),
        keys={"k": 3},
    )

after which ``configs.build({..., "churn": "my_churn", "k": 5})`` builds
it, ``ChurnRef("my_churn", {"n": 8, "k": 5})`` serialises it, and
``repro sweep … --grid k=3,5`` sweeps it.

Ref kwargs are canonicalised at construction (tuples -> lists, numpy
scalars/arrays -> python numbers / nested lists) so that
``to_dict``/``from_dict`` round-trips are exact and hashing is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, Sequence, TypeVar

import numpy as np

from ..adversary.base import CombinedAdversary
from ..adversary.delay import DelayAdversary
from ..adversary.drift import DriftAdversary
from ..adversary.topology import GreedyTopologyAdversary
from ..network.channels import ConstantDelay, UniformDelay
from ..network.churn import (
    EdgeFlapper,
    MobileGeometricChurn,
    RandomRewirer,
    RotatingBackboneChurn,
)
from ..network.discovery import ConstantDiscovery, UniformDiscovery
from ..network.topology import random_geometric, two_chain_edges
from ..oracle.oracle import StreamingOracle
from ..params import SystemParams
from ..sim.clocks import PiecewiseRateClock, random_walk_rates, validate_drift_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import ExperimentConfig, RunResult

__all__ = [
    "ADVERSARY",
    "CHURN",
    "CLOCK",
    "DELAY",
    "DISCOVERY",
    "ORACLE",
    "RUNTIME",
    "CONSTANT_CLOCKS",
    "AdversaryRef",
    "ChurnRef",
    "ClockRef",
    "DelayRef",
    "DiscoveryRef",
    "Ingredient",
    "OracleRef",
    "RuntimeRef",
    "SerializationError",
    "entry",
    "jsonify",
]

Edge = tuple[int, int]
Spec = Mapping[str, Any]
_T = TypeVar("_T")


class SerializationError(TypeError):
    """Raised when a config ingredient cannot be expressed as JSON data."""


# --------------------------------------------------------------------- #
# JSON canonicalisation
# --------------------------------------------------------------------- #


def jsonify(value: Any, *, _context: str = "value") -> Any:
    """Return ``value`` converted to canonical JSON-safe python data.

    Tuples become lists, numpy scalars become python numbers, numpy arrays
    become nested lists, dict keys must be strings.  Anything else that the
    ``json`` module could not serialise raises :class:`SerializationError`.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return jsonify(value.item(), _context=_context)
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist(), _context=_context)
    if isinstance(value, (list, tuple)):
        return [jsonify(v, _context=_context) for v in value]
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise SerializationError(
                    f"{_context}: dict keys must be strings; got {k!r}"
                )
            out[k] = jsonify(v, _context=f"{_context}[{k!r}]")
        return out
    raise SerializationError(
        f"{_context}: {type(value).__name__} is not JSON-serializable"
    )


# --------------------------------------------------------------------- #
# Table entries
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Ingredient:
    """One table entry.

    ``build`` is the constructor the run calls: ``(params, rng, **kwargs)``
    for a ref's kwargs, ``(params, rng)`` for a delay or discovery policy,
    ``(params, rng, horizon) -> (rates, clocks)`` for the clock column,
    ``(cfg, **kwargs) -> RunResult`` for a runtime.  ``make`` turns the
    resolved spec into the config's entry (the ref's kwargs; a churn entry
    returns ``(E_0, kwargs or scripted events)``), ``keys`` are the spec
    keys the entry takes with their defaults, and ``ref`` is the name the
    entry serialises under when it differs from its table key.
    """

    build: Callable[..., Any] | None = None
    make: Callable[..., Any] | None = None
    keys: Mapping[str, Any] = field(default_factory=dict)
    ref: str | None = None


def entry(table: Mapping[str, _T], name: str, noun: str) -> _T:
    """``table[name]``; an unknown name raises :class:`ValueError` listing
    the table's names."""
    if name not in table:
        raise ValueError(f"unknown {noun} {name!r}; choose from {sorted(table)}")
    return table[name]


# --------------------------------------------------------------------- #
# Clocks: (params, rng, horizon) -> (rate column, clocks)
# --------------------------------------------------------------------- #
#
# A constant-rate spec is its ``rate`` column (no clock objects: ``[None]
# * n``); a ``random_walk`` is its first-piece rates and its clocks.  Each
# draws ``rng`` as one call per node would, in id order, with one vector
# call.  The live runtime draws its rates through the constant entries.
# ``segments`` and ``masked`` are one clock object per node.


def _constant(rates_of: Callable[..., Any]) -> Ingredient:
    def build(params: SystemParams, rng: np.random.Generator, horizon: float) -> Any:
        rates = rates_of(np.arange(params.n), params.rho, rng)
        validate_drift_columns(rates, rates, params.rho)
        return rates, [None] * params.n

    return Ingredient(build)


def _random_walk(params: SystemParams, rng: np.random.Generator, horizon: float) -> Any:
    segment = max(horizon / 20.0, 4.0 * params.tick_interval)
    times, walk = random_walk_rates(params.rho, horizon, segment, rng, params.n)
    validate_drift_columns(walk.min(axis=1), walk.max(axis=1), params.rho)
    return walk[:, 0].copy(), [PiecewiseRateClock(times, row) for row in walk]


def _seated(clocks: Any, params: SystemParams) -> Any:
    """Node ``i``'s clock ``clocks[i]``, inside the drift envelope; every
    row is seated from its clock (the rate column is ones)."""
    column = [clocks[i] for i in range(params.n)]
    bounds = np.array([clock.rate_bounds() for clock in column])
    validate_drift_columns(bounds[:, 0], bounds[:, 1], params.rho)
    return np.ones(params.n), column


def _execution(
    params: SystemParams,
    *,
    edges: Sequence[Sequence[int]],
    mask: Sequence[Sequence[float]],
    reference: int,
    execution: str,
) -> Any:
    """Lemma 4.2's ``execution`` (``"alpha"`` or ``"beta"``) of the static
    network ``edges`` whose mask pins ``[[u, v, delay], ...]``, layered
    from ``reference``: ``(clocks by node, delay policy)``.  Imported
    here: :mod:`repro.lowerbound` imports the runner."""
    from ..lowerbound.executions import build_execution_pair
    from ..lowerbound.mask import DelayMask

    pinned = DelayMask({(u, v): p for u, v, p in mask}, params.max_delay)
    pair = build_execution_pair(list(range(params.n)), edges, pinned, reference, params)
    return {
        "alpha": (pair.alpha_clocks, pair.alpha_policy),
        "beta": (pair.beta_clocks, pair.beta_policy),
    }[execution]


CLOCK: dict[str, Ingredient] = {
    "perfect": _constant(lambda ids, rho, rng: np.ones(len(ids))),
    # A bounded AR(1) walk of piecewise-constant rates.
    "random_walk": Ingredient(_random_walk),
    # First half 1 + rho, second half 1 - rho.
    "split": _constant(
        lambda ids, rho, rng: np.where(ids < len(ids) // 2, 1.0 + rho, 1.0 - rho)
    ),
    "alternating": _constant(
        lambda ids, rho, rng: np.where(ids % 2 == 0, 1.0 + rho, 1.0 - rho)
    ),
    # A constant rate per node, drawn uniformly from the envelope.
    "uniform": _constant(
        lambda ids, rho, rng: 1.0 + rho * rng.uniform(-1.0, 1.0, len(ids))
    ),
    # The Lemma 4.2 clocks, from DELAY["masked"]'s kwargs.
    "masked": Ingredient(
        lambda params, rng, horizon, **masked: _seated(_execution(params, **masked)[0], params)
    ),
}

#: The rate-column entries: what a wall-clock session can run at.
CONSTANT_CLOCKS = ("perfect", "split", "alternating", "uniform")


# --------------------------------------------------------------------- #
# Delay and discovery policies: (params, rng) -> policy
# --------------------------------------------------------------------- #

DELAY: dict[str, Ingredient] = {
    "uniform": Ingredient(lambda params, rng: UniformDelay(0.0, params.max_delay, rng)),
    "max": Ingredient(lambda params, rng: ConstantDelay(params.max_delay)),
    "half": Ingredient(lambda params, rng: ConstantDelay(0.5 * params.max_delay)),
    "zero": Ingredient(lambda params, rng: ConstantDelay(0.0)),
    # The Lemma 4.2 delays, alpha's or beta's disguised ones.
    "masked": Ingredient(lambda params, rng, **masked: _execution(params, **masked)[1]),
}

DISCOVERY: dict[str, Ingredient] = {
    "uniform": Ingredient(
        lambda params, rng: UniformDiscovery(0.0, params.discovery_bound, rng)
    ),
    "max": Ingredient(lambda params, rng: ConstantDiscovery(params.discovery_bound)),
    "zero": Ingredient(lambda params, rng: ConstantDiscovery(0.0)),
    # Every change discovered after exactly ``latency``.
    "constant": Ingredient(lambda params, rng, *, latency: ConstantDiscovery(latency)),
}


# --------------------------------------------------------------------- #
# Churn: (spec, params, backbone) -> (E_0, ChurnRef kwargs or events)
# --------------------------------------------------------------------- #
#
# An entry with a ``build`` is a ChurnRef; one without is scripted (its
# events become a ScriptedChurn, none at all no churn).  Edge lists arrive
# as JSON ``[[u, v], ...]``; the churn classes normalise them.


def _seeded(cls: Callable[..., Any]) -> Callable[..., Any]:
    """A churn class's constructor as ``(params, rng, **kwargs)``."""
    return lambda params, rng, **kwargs: cls(rng=rng, **kwargs)


def _rewirer(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """Arbitrary random rewiring of ``k_extra`` edges around the backbone."""
    return backbone, {
        "n": s["n"], "k_extra": s["k_extra"], "interval": s["rewire_interval"],
        "protected": backbone, "horizon": s["horizon"],
    }


def _flapper(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """Chords flapping up and down: short up-times exercise re-discovery
    and the Gamma eviction path (lost timers) heavily.  The chord is
    ``endpoints``, or ``n_flappers`` chords drawn from ``seed``."""
    if s["endpoints"] is not None:
        flap = [s["endpoints"]]
    else:
        flap, rng, attempts = [], np.random.default_rng(s["seed"]), 0
        while len(flap) < s["n_flappers"] and attempts < 100 * s["n_flappers"]:
            attempts += 1
            u, v = sorted((int(rng.integers(s["n"])), int(rng.integers(s["n"]))))
            if v - u > 1 and (u, v) not in flap:
                flap.append((u, v))
    return backbone, {"edges": flap, "up": s["up"], "down": s["down"], "horizon": s["horizon"]}


def _rotating(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """No stable edge at all: a different spanning path per ``window``.

    ``overlap`` defaults to slightly above T + D, so the execution is
    (T + D)-interval connected -- exactly the premise of Theorem 6.9 --
    while *every* edge eventually disappears.
    """
    ov = s["overlap"]
    if ov is None:
        ov = 1.2 * (params.max_delay + params.discovery_bound)
    if ov >= s["window"]:
        raise ValueError("window must exceed the overlap")
    return backbone, {"n": s["n"], "window": s["window"], "overlap": ov, "horizon": s["horizon"]}


def _mobile(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """Random-waypoint radio links (the intro's TDMA scenario).  The
    backbone is kept alive unless ``keep_backbone`` is false, so the
    connectivity premise holds while the radio topology churns freely."""
    edges, pos = random_geometric(s["n"], s["radius"], np.random.default_rng(s["seed"]))
    kept = backbone if s["keep_backbone"] else []
    return sorted(set(edges) | set(kept)), {
        "positions": pos, "radius": s["radius"], "speed": s["speed"],
        "update_interval": s["update_interval"], "protected": kept,
        "horizon": s["horizon"],
    }


def _insertion(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """One edge appears at ``t_insert``: ``endpoints``, by default the
    path's two ends (Section 1's motivating scenario) or, on the two-chain
    graph, a shortcut across the middle of its B chain (Figure 1)."""
    if s["endpoints"] is not None:
        u, v = s["endpoints"]
    elif s["topology"] == "two_chain":
        b_chain = two_chain_edges(s["n"])[1]["B"]
        u, v = sorted((b_chain[1], b_chain[len(b_chain) // 2]))
    else:
        u, v = 0, s["n"] - 1
    return backbone, [(s["t_insert"], "add", u, v)]


def _live_chord(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """A chord across the ring appears at 40% of the session and goes at
    80%: live discovery injection and the envelope monitor's edge ages
    against wall-clock timestamps."""
    u, v, h = 0, s["n"] // 2, s["horizon"]
    return backbone, [(0.4 * h, "add", u, v), (0.8 * h, "remove", u, v)]


CHURN: dict[str, Ingredient] = {
    "none": Ingredient(),
    "random_rewirer": Ingredient(
        _seeded(RandomRewirer), _rewirer, {"k_extra": 4, "rewire_interval": 5.0}
    ),
    "edge_flapper": Ingredient(
        _seeded(EdgeFlapper), _flapper,
        {"n_flappers": 3, "up": 8.0, "down": 6.0, "endpoints": None},
    ),
    "scripted": Ingredient(
        make=lambda s, params, backbone: (backbone, s["events"]), keys={"events": ()}
    ),
    "rotating_backbone": Ingredient(
        _seeded(RotatingBackboneChurn), _rotating, {"window": 30.0, "overlap": None}
    ),
    "mobile_geometric": Ingredient(
        _seeded(MobileGeometricChurn), _mobile,
        {"radius": 0.35, "speed": 0.01, "update_interval": 2.0, "keep_backbone": True},
    ),
    "insertion": Ingredient(make=_insertion, keys={"t_insert": 100.0, "endpoints": None}),
    "live_chord": Ingredient(make=_live_chord),
}


# --------------------------------------------------------------------- #
# Adversaries (see repro.adversary and docs/adversaries.md):
# (spec, params, backbone) -> AdversaryRef kwargs
# --------------------------------------------------------------------- #
#
# ``rho`` comes from the run's params (never a kwarg) so the drift
# adversary can never leave the envelope the rest of the execution assumes.


def _drift_kwargs(s: Spec) -> dict[str, Any]:
    return {"period": s["period"], "strength": s["strength"], "horizon": s["horizon"]}


def _topology_kwargs(s: Spec, params: SystemParams, backbone: list[Edge]) -> dict[str, Any]:
    # Every removal passes a guard certifying (T + D)-interval connectivity.
    return {
        "n": s["n"], "k_extra": s["k_extra"], "period": s["period"], "protected": backbone,
        "interval": params.max_delay + params.discovery_bound,
    }


def _combined(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    drift: Mapping[str, Any] | None = None,
    delay: Mapping[str, Any] | None = None,
    topology: Mapping[str, Any] | None = None,
) -> CombinedAdversary:
    """The joint adversary: each part given kwargs is built by its entry."""
    build = AdversaryRef.builders()
    parts = (("adaptive_drift", drift), ("adaptive_delay", delay), ("greedy_topology", topology))
    return CombinedAdversary(
        [build[name](params, rng, **kwargs) for name, kwargs in parts if kwargs is not None]
    )


ADVERSARY: dict[str, Ingredient] = {
    "none": Ingredient(),
    # Re-pins the leading half to 1 + strength*rho (trailing half to
    # 1 - strength*rho) each period: skew versus adversary power.
    "drift": Ingredient(
        lambda params, rng, **kw: DriftAdversary(params.rho, **kw),
        lambda s, params, backbone: _drift_kwargs(s),
        {"period": 5.0, "strength": 1.0},
        ref="adaptive_drift",
    ),
    # Messages from an ahead node take T, from a behind node 0: the lower
    # bounds' shifting technique, re-aimed at each send.
    "delay": Ingredient(
        lambda params, rng, **kw: DelayAdversary(**kw),
        lambda s, params, backbone: {},
        ref="adaptive_delay",
    ),
    # Greedy skew-seeking churn of k_extra edges, each retracted after
    # ``hold`` (expose-and-retract; None keeps it until recycled).
    "topology": Ingredient(
        lambda params, rng, **kw: GreedyTopologyAdversary(**kw),
        lambda s, params, backbone: {
            **_topology_kwargs(s, params, backbone), "hold": s["hold"], "horizon": s["horizon"],
        },
        {"k_extra": 4, "period": 5.0, "hold": 2.0},
        ref="greedy_topology",
    ),
    # Drift + delay + topology on one execution: the closest executable
    # analogue of the model's quantifier.
    "combined": Ingredient(
        _combined,
        lambda s, params, backbone: {
            "drift": _drift_kwargs(s), "delay": {},
            "topology": {**_topology_kwargs(s, params, backbone), "horizon": s["horizon"]},
        },
        {"period": 5.0, "strength": 1.0, "k_extra": 4},
    ),
}


# --------------------------------------------------------------------- #
# Oracles and runtimes
# --------------------------------------------------------------------- #

ORACLE: dict[str, Ingredient] = {
    # The full streaming conformance oracle of repro.oracle: ``monitors``
    # picks a subset of MONITOR_FACTORIES (default all), ``interval``
    # defaults to the run's sample_interval, and ``bound_scale`` below 1
    # tightens every upper bound (tests use it to make violations surface).
    "standard": Ingredient(lambda params, rng, **kw: StreamingOracle(params, **kw)),
}

# Runner bodies import lazily: the runner imports this module, and
# repro.live imports the runner.


def _run_sim(cfg: "ExperimentConfig") -> "RunResult":
    from .runner import Experiment

    return Experiment(cfg).run()


def _run_par(cfg: "ExperimentConfig", shards: int = 2) -> "RunResult":
    from ..sim.par import run_par

    return run_par(cfg, shards)


def _run_live(cfg: "ExperimentConfig", **kwargs: Any) -> "RunResult":
    from ..live.driver import run_live_experiment

    return run_live_experiment(cfg, **kwargs)


RUNTIME: dict[str, Ingredient] = {
    # The discrete-event kernel (the default; see repro.harness.runner).
    "sim": Ingredient(_run_sim),
    # The space-partitioned backend (repro.sim.par): bit-identical to "sim"
    # when the config supports genuine sharding, else serial with the
    # result's ``par_fallback_reason`` set.  ``shards`` is part of the
    # sweep hash, so {"shards": 2} and {"shards": 4} cache apart.
    "par": Ingredient(_run_par),
    # A wall-clock asyncio session (repro.live): ``duration`` seconds in
    # place of ``horizon``, over a ``channel`` with ``jitter``.
    "live": Ingredient(
        _run_live,
        lambda s: {"channel": s["channel"], "jitter": s["jitter"]},
        {"duration": 5.0, "channel": "loopback", "jitter": 0.0},
    ),
}


# --------------------------------------------------------------------- #
# Refs: serializable (name, kwargs) handles into the tables
# --------------------------------------------------------------------- #


_R = TypeVar("_R", bound="_Ref")


@dataclass(frozen=True)
class _Ref:
    """A serializable ``(name, kwargs)`` reference into one table.

    ``name`` is an entry's serialised name (its ``ref``, else its key).
    Calling a ref calls the entry's constructor with the ref's kwargs
    appended: the run builds every ingredient that way, and the ref
    round-trips through :meth:`to_dict`/:meth:`from_dict` for hashing and
    multiprocessing.  Subclasses name their table and the noun error
    messages use for its entries.
    """

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    _table: ClassVar[dict[str, Ingredient]]
    _noun: ClassVar[str]

    @classmethod
    def builders(cls) -> dict[str, Callable[..., Any]]:
        """The table's constructors by serialised name."""
        return {e.ref or k: e.build for k, e in cls._table.items() if e.build is not None}

    def __post_init__(self) -> None:
        builders = self.builders()
        if self.name not in builders:
            raise KeyError(
                f"unknown {self._noun} {self.name!r}; registered: {sorted(builders)}"
            )
        context = f"{type(self).__name__}({self.name!r})"
        object.__setattr__(self, "kwargs", jsonify(self.kwargs, _context=context))

    def __call__(self, *args: Any) -> Any:
        return self.builders()[self.name](*args, **self.kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: ``{"kind": "ref", "name": ..., "kwargs": ...}``."""
        return {"kind": "ref", "name": self.name, "kwargs": self.kwargs}

    @classmethod
    def from_dict(cls: type[_R], data: Mapping[str, Any]) -> _R:
        """Rebuild from :meth:`to_dict` output."""
        return cls(name=data["name"], kwargs=dict(data.get("kwargs", {})))


class ClockRef(_Ref):
    """``(params, rng, horizon) -> (rates, clocks)`` for ``clock_spec``."""

    _table, _noun = CLOCK, "clock spec"


class DelayRef(_Ref):
    """``(params, rng) -> DelayPolicy`` for ``delay_spec``."""

    _table, _noun = DELAY, "delay spec"


class DiscoveryRef(_Ref):
    """``(params, rng) -> DiscoveryPolicy`` for ``discovery_spec``."""

    _table, _noun = DISCOVERY, "discovery spec"


class ChurnRef(_Ref):
    """A churn builder ``(params, rng) -> ChurnProcess`` for
    ``ExperimentConfig.churn``."""

    _table, _noun = CHURN, "churn builder"


class AdversaryRef(_Ref):
    """An adversary builder ``(params, rng) -> Adversary`` for
    ``ExperimentConfig.adversary``."""

    _table, _noun = ADVERSARY, "adversary builder"


class OracleRef(_Ref):
    """An oracle builder ``(params, rng) -> StreamingOracle`` for
    ``ExperimentConfig.oracle``."""

    _table, _noun = ORACLE, "oracle builder"


class RuntimeRef(_Ref):
    """A runtime runner ``(cfg) -> RunResult`` for ``ExperimentConfig.runtime``
    (see :data:`RUNTIME`); ``kwargs`` parameterise it, e.g.
    ``{"channel": "loopback", "jitter": 0.001}`` for ``"live"``."""

    _table, _noun = RUNTIME, "runtime"
