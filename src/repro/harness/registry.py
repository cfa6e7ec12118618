"""Named builder registries for serializable experiment specs.

:class:`~repro.harness.runner.ExperimentConfig` must round-trip through a
plain JSON-safe dict so sweeps can be hashed, cached and shipped to worker
processes (see :mod:`repro.sweep`).  Raw callables cannot survive that trip,
so every callable ingredient of a config gets a *name* in one of the
registries below and is referenced by that name instead:

* :data:`CHURN_BUILDERS` holds factories ``(params, rng, **kwargs) ->
  ChurnProcess``; configs reference them through :class:`ChurnRef`, a
  frozen, JSON-safe ``(name, kwargs)`` pair that *is itself* a valid churn
  builder callable;
* :data:`ADVERSARY_BUILDERS` holds factories ``(params, rng, **kwargs) ->
  Adversary`` referenced through :class:`AdversaryRef`, the same pattern
  for the adaptive adversaries of :mod:`repro.adversary`;
* :data:`ORACLE_BUILDERS` holds factories ``(params, rng, **kwargs) ->
  StreamingOracle`` referenced through :class:`OracleRef`, so the streaming
  conformance oracle of :mod:`repro.oracle` rides along in serializable
  configs (and therefore in sweeps and worker processes).

Register with the decorators::

    @register_churn("my_churn")
    def _build(params, rng, *, k: int) -> ChurnProcess: ...

    cfg = ExperimentConfig(..., churn=[ChurnRef("my_churn", {"k": 3})])

    @register_adversary("my_adversary")
    def _build(params, rng, *, period: float) -> Adversary: ...

    cfg = ExperimentConfig(..., adversary=AdversaryRef("my_adversary",
                                                       {"period": 5.0}))

Ref kwargs are canonicalised at construction (tuples -> lists, numpy
scalars/arrays -> python numbers / nested lists) so that
``to_dict``/``from_dict`` round-trips are exact and hashing is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, TypeVar

import numpy as np

from ..network.churn import ChurnProcess
from ..params import SystemParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import Adversary
    from ..oracle.oracle import StreamingOracle
    from .runner import ExperimentConfig, RunResult

__all__ = [
    "ADVERSARY_BUILDERS",
    "CHURN_BUILDERS",
    "ORACLE_BUILDERS",
    "RUNTIME_BUILDERS",
    "AdversaryRef",
    "ChurnRef",
    "OracleRef",
    "RuntimeRef",
    "SerializationError",
    "jsonify",
    "register_adversary",
    "register_churn",
    "register_oracle",
    "register_runtime",
]


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
# Registries
# --------------------------------------------------------------------- #

#: Churn factories: name -> (params, rng, **kwargs) -> ChurnProcess.
CHURN_BUILDERS: dict[str, Callable[..., ChurnProcess]] = {}
#: Adversary factories: name -> (params, rng, **kwargs) -> Adversary.
ADVERSARY_BUILDERS: dict[str, Callable[..., "Adversary"]] = {}
#: Oracle factories: name -> (params, rng, **kwargs) -> StreamingOracle.
ORACLE_BUILDERS: dict[str, Callable[..., "StreamingOracle"]] = {}
#: Runtime runners: name -> (config, **kwargs) -> RunResult.
RUNTIME_BUILDERS: dict[str, Callable[..., "RunResult"]] = {}

_F = TypeVar("_F", bound=Callable[..., Any])


def _register(registry: dict[str, Callable[..., Any]], kind: str, name: str):
    def deco(fn: _F) -> _F:
        if name in registry:
            raise ValueError(f"{kind} builder {name!r} already registered")
        registry[name] = fn
        return fn

    return deco


def register_churn(name: str):
    """Register a named churn factory addressable via :class:`ChurnRef`."""
    return _register(CHURN_BUILDERS, "churn", name)


def register_adversary(name: str):
    """Register a named adversary factory addressable via :class:`AdversaryRef`."""
    return _register(ADVERSARY_BUILDERS, "adversary", name)


def register_oracle(name: str):
    """Register a named oracle factory addressable via :class:`OracleRef`."""
    return _register(ORACLE_BUILDERS, "oracle", name)


def register_runtime(name: str):
    """Register a named runtime runner addressable via :class:`RuntimeRef`."""
    return _register(RUNTIME_BUILDERS, "runtime", name)


# --------------------------------------------------------------------- #
# Refs: serializable (name, kwargs) handles into the factory registries
# --------------------------------------------------------------------- #


_R = TypeVar("_R", bound="_Ref")


@dataclass(frozen=True)
class _Ref:
    """A serializable ``(name, kwargs)`` reference into one registry.

    Calling a ref calls the registered factory with the ref's kwargs
    appended, so a ref slots in wherever the raw builder callable would,
    while also round-tripping through :meth:`to_dict`/:meth:`from_dict`
    for hashing and multiprocessing.  Subclasses name their registry and
    the noun error messages use for its entries.
    """

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    _registry: ClassVar[dict[str, Callable[..., Any]]]
    _noun: ClassVar[str]

    def __post_init__(self) -> None:
        if self.name not in self._registry:
            raise KeyError(
                f"unknown {self._noun} {self.name!r}; registered: "
                f"{sorted(self._registry)}"
            )
        context = f"{type(self).__name__}({self.name!r})"
        object.__setattr__(self, "kwargs", jsonify(self.kwargs, _context=context))

    def __call__(self, *args: Any) -> Any:
        return self._registry[self.name](*args, **self.kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: ``{"kind": "ref", "name": ..., "kwargs": ...}``."""
        return {"kind": "ref", "name": self.name, "kwargs": self.kwargs}

    @classmethod
    def from_dict(cls: type[_R], data: Mapping[str, Any]) -> _R:
        """Rebuild from :meth:`to_dict` output."""
        return cls(name=data["name"], kwargs=dict(data.get("kwargs", {})))


class ChurnRef(_Ref):
    """A churn builder ``(params, rng) -> ChurnProcess`` for
    ``ExperimentConfig.churn``."""

    _registry, _noun = CHURN_BUILDERS, "churn builder"


class AdversaryRef(_Ref):
    """An adversary builder ``(params, rng) -> Adversary`` for
    ``ExperimentConfig.adversary``."""

    _registry, _noun = ADVERSARY_BUILDERS, "adversary builder"


class OracleRef(_Ref):
    """An oracle builder ``(params, rng) -> StreamingOracle`` for
    ``ExperimentConfig.oracle``."""

    _registry, _noun = ORACLE_BUILDERS, "oracle builder"


class RuntimeRef(_Ref):
    """A runtime runner ``(cfg) -> RunResult`` for ``ExperimentConfig.runtime``.

    The *runtime* decides how an :class:`~repro.harness.runner.ExperimentConfig`
    is executed: ``"sim"`` replays the protocol cores through the
    discrete-event kernel (the historical behaviour, bit-identical), while
    ``"live"`` drives the same cores on a real asyncio loop over loopback or
    UDP channels (:mod:`repro.live`), interpreting the config's ``horizon``
    as wall-clock seconds.  ``kwargs`` parameterise the runner (e.g.
    ``{"channel": "loopback", "jitter": 0.001}`` for the live runtime).
    """

    _registry, _noun = RUNTIME_BUILDERS, "runtime"

    def run(self, cfg: "ExperimentConfig") -> "RunResult":
        """Execute ``cfg`` under this runtime."""
        return self(cfg)


# --------------------------------------------------------------------- #
# Built-in runtime runners
# --------------------------------------------------------------------- #
#
# Bodies import lazily: the registry must stay importable from both the
# runner (which registers nothing here) and repro.live (which this module
# must not import at module load).


@register_runtime("sim")
def _run_sim_runtime(cfg: "ExperimentConfig") -> "RunResult":
    """The discrete-event runtime (the default; see repro.harness.runner)."""
    from .runner import Experiment

    return Experiment(cfg).run()


@register_runtime("par")
def _run_par_runtime(cfg: "ExperimentConfig", shards: int = 2) -> "RunResult":
    """The space-partitioned parallel backend (see repro.sim.par).

    Bit-identical to ``"sim"`` when the config supports genuine sharding;
    otherwise runs serially and records ``par_fallback_reason`` on the
    result.  Note that ``shards`` lives in ``RuntimeRef.kwargs`` and so
    participates in sweep hashing: ``RuntimeRef("par", {"shards": 2})``
    and ``{"shards": 4}`` cache as *different* sweep entries even though
    their results are bitwise identical.
    """
    from ..sim.par import run_par

    return run_par(cfg, shards)


@register_runtime("live")
def _run_live_runtime(cfg: "ExperimentConfig", **kwargs: Any) -> "RunResult":
    """The wall-clock asyncio runtime (see repro.live)."""
    from ..live.driver import run_live_experiment

    return run_live_experiment(cfg, **kwargs)


# --------------------------------------------------------------------- #
# Built-in churn builders
# --------------------------------------------------------------------- #
#
# One registered factory per churn class whose canned-config use needs a
# per-run RNG (ScriptedChurn is deterministic and serializes as a concrete
# instance instead).  Edge lists arrive as JSON ``[[u, v], ...]``; the churn
# classes normalise entries through ``edge_key(*e)`` so no conversion is
# needed here.


@register_churn("random_rewirer")
def _build_random_rewirer(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    n: int,
    k_extra: int,
    interval: float,
    protected: list[list[int]] = (),
    horizon: float | None = None,
) -> ChurnProcess:
    from ..network.churn import RandomRewirer

    return RandomRewirer(
        n, k_extra, interval, rng, protected=protected, horizon=horizon
    )


@register_churn("edge_flapper")
def _build_edge_flapper(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    edges: list[list[int]],
    up: float,
    down: float,
    horizon: float | None = None,
) -> ChurnProcess:
    from ..network.churn import EdgeFlapper

    return EdgeFlapper(edges, up, down, rng, horizon=horizon)


@register_churn("mobile_geometric")
def _build_mobile_geometric(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    positions: list[list[float]],
    radius: float,
    speed: float,
    update_interval: float,
    protected: list[list[int]] = (),
    horizon: float | None = None,
) -> ChurnProcess:
    from ..network.churn import MobileGeometricChurn

    return MobileGeometricChurn(
        np.asarray(positions, dtype=float),
        radius,
        speed,
        update_interval,
        rng,
        protected=protected,
        horizon=horizon,
    )


@register_churn("rotating_backbone")
def _build_rotating_backbone(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    n: int,
    window: float,
    overlap: float,
    horizon: float,
) -> ChurnProcess:
    from ..network.churn import RotatingBackboneChurn

    return RotatingBackboneChurn(n, window, overlap, rng, horizon=horizon)


# --------------------------------------------------------------------- #
# Built-in adversary builders
# --------------------------------------------------------------------- #
#
# One registered factory per adversary class of :mod:`repro.adversary`.
# ``rho`` comes from the run's params (never a kwarg) so the drift adversary
# can never leave the envelope the rest of the execution assumes.


@register_adversary("adaptive_drift")
def _build_adaptive_drift(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    period: float,
    strength: float = 1.0,
    horizon: float | None = None,
) -> "Adversary":
    from ..adversary.drift import DriftAdversary

    return DriftAdversary(
        params.rho, period, strength=strength, horizon=horizon
    )


@register_adversary("adaptive_delay")
def _build_adaptive_delay(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    edges: list[list[int]] | None = None,
) -> "Adversary":
    from ..adversary.delay import DelayAdversary

    return DelayAdversary(edges=edges)


@register_adversary("greedy_topology")
def _build_greedy_topology(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    n: int,
    k_extra: int,
    period: float,
    protected: list[list[int]] = (),
    interval: float | None = None,
    hold: float | None = None,
    horizon: float | None = None,
) -> "Adversary":
    from ..adversary.topology import GreedyTopologyAdversary

    return GreedyTopologyAdversary(
        n,
        k_extra,
        period,
        protected=[tuple(e) for e in protected],
        interval=interval,
        hold=hold,
        horizon=horizon,
    )


@register_adversary("combined")
def _build_combined(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    drift: Mapping[str, Any] | None = None,
    delay: Mapping[str, Any] | None = None,
    topology: Mapping[str, Any] | None = None,
) -> "Adversary":
    """The joint adversary: any subset of drift/delay/topology kwargs.

    Each non-``None`` mapping is forwarded to the corresponding registered
    builder, so ``AdversaryRef("combined", {"drift": {...}, "delay": {}})``
    composes exactly the parts it names.
    """
    from ..adversary.base import CombinedAdversary

    parts = []
    for name, kwargs in (
        ("adaptive_drift", drift),
        ("adaptive_delay", delay),
        ("greedy_topology", topology),
    ):
        if kwargs is not None:
            parts.append(ADVERSARY_BUILDERS[name](params, rng, **kwargs))
    return CombinedAdversary(parts)


# --------------------------------------------------------------------- #
# Built-in oracle builders
# --------------------------------------------------------------------- #


@register_oracle("standard")
def _build_standard_oracle(
    params: SystemParams,
    rng: np.random.Generator,
    *,
    monitors: list[str] | None = None,
    interval: float | None = None,
    bound_scale: float = 1.0,
    tolerance: float = 1e-9,
    max_recorded: int = 100,
) -> "StreamingOracle":
    """The full streaming conformance oracle of :mod:`repro.oracle`.

    ``monitors`` selects a subset of
    :data:`~repro.oracle.monitors.MONITOR_FACTORIES` by name (default:
    all); ``interval`` defaults to the run's ``sample_interval``;
    ``bound_scale`` below 1 deliberately tightens every upper bound (used
    by tests to prove violations surface).
    """
    from ..oracle.oracle import StreamingOracle

    return StreamingOracle(
        params,
        monitors=monitors,
        interval=interval,
        bound_scale=bound_scale,
        tolerance=tolerance,
        max_recorded=max_recorded,
    )
