"""Workload generators shared by tests, ``repro check --fuzz`` and fuzzers.

Every generator here produces workloads that satisfy the premises of the
paper's theorems, so the streaming oracle and the offline invariant suite
are *expected to pass* on them: a spanning backbone (path or ring) is
always kept alive, making every execution trivially
:math:`(\\mathcal{T}+\\mathcal{D})`-interval connected; clock specs stay
inside the drift envelope; adversaries are the model-respecting ones from
:mod:`repro.adversary`.  A generated workload that fails a bound is
therefore a *bug*, not a bad generator.

A draw is a spec (:mod:`repro.harness.configs`): topology, clock, delay
and discovery specs, stagger, and a churn and adversary family with their
parameters, picked by one function through a ``pick`` that is either a
seeded generator or a hypothesis ``draw``, then built by
:func:`~repro.harness.configs.build`.  Two layers over it:

* ``fuzz_config(seed)`` / ``fuzz_sweep_spec(seed)`` -- deterministic
  seed-driven draws with no test-only dependencies (the ``repro check
  --fuzz`` path);
* hypothesis strategies (:func:`topologies`, :func:`system_params`,
  :func:`experiment_configs`, :func:`sweep_specs`) -- full shrinking
  support for the test suite.

Generated configs are deliberately small (n <= ``max_n``, short horizons)
so property tests stay fast; scale testing is the job of the
``large_ring`` workload, not the fuzzer.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..harness.configs import TOPOLOGY, build
from ..harness.runner import ExperimentConfig
from ..params import SystemParams

try:  # hypothesis is a test extra; the fuzz_* layer must work without it.
    from hypothesis import strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without test deps
    st = None  # type: ignore[assignment]
    _HAVE_HYPOTHESIS = False

__all__ = [
    "CLOCK_SPECS",
    "DELAY_SPECS",
    "DISCOVERY_SPECS",
    "TOPOLOGIES",
    "experiment_configs",
    "flip_script",
    "fuzz_config",
    "fuzz_sweep_spec",
    "make_topology",
    "queue_operations",
    "sweep_specs",
    "system_params",
    "topologies",
]

Edge = tuple[int, int]

# --------------------------------------------------------------------- #
# What a draw picks from (shared by both layers)
# --------------------------------------------------------------------- #

#: Connected topologies of :data:`repro.harness.configs.TOPOLOGY` the
#: fuzzer draws; each doubles as the protected backbone under churn.
TOPOLOGIES: tuple[str, ...] = ("grid", "path", "ring", "star")

#: Clock specs safe for invariant checking (all stay within [1 +- rho]).
CLOCK_SPECS: tuple[str, ...] = (
    "split",
    "alternating",
    "random_walk",
    "uniform",
    "perfect",
)

#: Delay specs (all respect the bound T).
DELAY_SPECS: tuple[str, ...] = ("uniform", "max", "half", "zero")

#: Discovery specs (all respect the bound D).  Positive constant delay
#: and discovery latencies with unstaggered ticks are the lockstep
#: regime -- timer runs, tick groups, the E_0 discovery wave as one run --
#: which half of the draws take (:func:`_draw_config`).
DISCOVERY_SPECS: tuple[str, ...] = ("uniform", "max", "zero")

#: Drift rates that keep SystemParams.validate() happy with the defaults.
_RHO_CHOICES: tuple[float, ...] = (0.01, 0.02, 0.05)

#: Workloads cheap enough to fuzz sweeps over (fast, serializable).
_SWEEP_WORKLOADS: tuple[str, ...] = (
    "static_path",
    "static_ring",
    "backbone_churn",
    "adversarial_drift",
)

#: ``pick(options)`` returns one element of a sequence: a hypothesis
#: ``draw`` or a seeded generator's choice.  Every ingredient below is
#: drawn through it, so both layers share one vocabulary.
Pick = Callable[[Sequence[Any]], Any]


def _topology_spec(name: str, n: int) -> dict[str, Any]:
    """The spec keys of topology ``name`` over about ``n`` nodes (a grid
    is 2 x ceil(n / 2), a ring at least 3)."""
    if name not in TOPOLOGIES:
        raise KeyError(f"unknown topology {name!r}; choose from {list(TOPOLOGIES)}")
    if name == "grid":
        return {"topology": name, "rows": 2, "cols": (n + 1) // 2}
    return {"topology": name, "n": max(n, 3) if name == "ring" else n}


def make_topology(name: str, n: int) -> list[Edge]:
    """Build a named topology for ``n`` nodes (grid sizes round up)."""
    spec = _topology_spec(name, n)
    return TOPOLOGY[name][1](spec)


def _chords(n: int, backbone: Sequence[Edge]) -> list[Edge]:
    """Every pair of ``range(n)`` the backbone does not hold."""
    taken = {(min(u, v), max(u, v)) for u, v in backbone}
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in taken]


def flip_script(
    pick: Pick, pairs: Sequence[Edge], present: Sequence[Edge], max_flips: int = 8
) -> list[tuple[float, str, int, int]]:
    """A legal add/remove script over ``pairs``: each flip toggles its
    pair relative to its current state (``present`` at the start), at a
    strictly later time than the one before (an edge never changes twice
    at one instant)."""
    state = {(min(u, v), max(u, v)) for u, v in present}
    script = []
    t = 1.0
    for _ in range(pick(range(max_flips + 1))):
        t += pick((0.3, 0.7, 1.3, 2.9))
        edge = pick(pairs)
        script.append((t, "remove" if edge in state else "add", *edge))
        state ^= {edge}
    return script


def _scripted(pick: Pick, chords: list[Edge]) -> dict[str, Any]:
    script = flip_script(pick, chords, ()) if chords else []
    return {"events": script} if script else {}


#: Churn draws: ``(pick, chords) -> spec keys`` of that
#: :data:`~repro.harness.registry.CHURN` entry (``{}``: no churn).  Chords
#: only are touched, so every draw keeps the backbone alive.
_CHURN_DRAWS: dict[str, Callable[[Pick, list[Edge]], dict[str, Any]]] = {
    "none": lambda pick, chords: {},
    "random_rewirer": lambda pick, chords: {
        "k_extra": pick((1, 2, 3, 4)), "rewire_interval": pick((2.0, 3.0, 5.0)),
    },
    "edge_flapper": lambda pick, chords: {
        "endpoints": pick(chords), "up": pick((6.0, 10.0)), "down": pick((4.0, 8.0)),
    } if chords else {},
    "scripted": _scripted,
}


#: Adversary draws: ``pick -> spec keys`` of that
#: :data:`~repro.harness.registry.ADVERSARY` entry; the model-respecting
#: adaptive ones.
_ADVERSARY_DRAWS: dict[str, Callable[[Pick], dict[str, Any]]] = {
    "none": lambda pick: {},
    "drift": lambda pick: {"period": pick((3.0, 5.0, 8.0)), "strength": pick((0.5, 1.0))},
    "delay": lambda pick: {},
}


def _draw_config(
    pick: Pick,
    *,
    min_n: int,
    max_n: int,
    horizon: float,
    churny: bool,
    adversarial: bool,
) -> ExperimentConfig:
    """Draw one invariant-safe spec through ``pick`` and build it."""
    topology = pick(TOPOLOGIES)
    spec = _topology_spec(topology, pick(range(min_n, max_n + 1)))
    backbone = TOPOLOGY[topology][1](spec)
    n = 1 + max(max(u, v) for u, v in backbone)
    clock_spec = pick(CLOCK_SPECS)
    adversary = pick(tuple(_ADVERSARY_DRAWS)) if adversarial else "none"
    if adversary == "drift":
        clock_spec = "perfect"  # the drift adversary owns every rate
    churn = pick(tuple(_CHURN_DRAWS)) if churny else "none"
    churn_keys = _CHURN_DRAWS[churn](pick, _chords(n, backbone))
    if pick((True, False)):  # lockstep: every timing ingredient constant
        delay_spec, discovery_spec, stagger = pick(("half", "max")), "max", False
    else:
        delay_spec, discovery_spec = pick(DELAY_SPECS), pick(DISCOVERY_SPECS)
        stagger = pick((True, False))
    seed = pick(range(100_000))
    return build({
        **spec,
        **({"churn": churn, **churn_keys} if churn_keys else {}),
        **({} if adversary == "none" else {"adversary": adversary}),
        **_ADVERSARY_DRAWS[adversary](pick),
        "clock_spec": clock_spec,
        "delay_spec": delay_spec,
        "discovery_spec": discovery_spec,
        "stagger_ticks": stagger,
        "horizon": horizon,
        "sample_interval": 2.0,
        "seed": seed,
        "name": f"fuzz({topology}, n={n}, clock={clock_spec}"
        + (f", churn={churn}" if churn_keys else "")
        + ("" if adversary == "none" else f", adversary={adversary}")
        + f", seed={seed})",
    })


# --------------------------------------------------------------------- #
# Seed-driven layer (no hypothesis required)
# --------------------------------------------------------------------- #


def fuzz_config(
    seed: int, *, max_n: int = 12, horizon: float = 60.0
) -> ExperimentConfig:
    """One random invariant-safe workload, fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    return _draw_config(
        lambda options: options[int(rng.integers(len(options)))],
        min_n=4,
        max_n=max_n,
        horizon=float(horizon),
        churny=True,
        adversarial=True,
    )


def fuzz_sweep_spec(seed: int, *, max_points: int = 4):
    """One random small :class:`~repro.sweep.spec.SweepSpec`.

    Points are capped at ``max_points`` and every config is tiny, so a
    fuzzed sweep (serial or pooled) finishes in seconds.
    """
    from ..sweep.spec import SweepSpec, grid, seeds

    rng = np.random.default_rng(seed)
    workload = _SWEEP_WORKLOADS[int(rng.integers(len(_SWEEP_WORKLOADS)))]
    base: dict[str, Any] = {
        "n": int(rng.integers(4, 7)),
        "horizon": float(rng.integers(10, 26)),
    }
    n_seeds = int(rng.integers(1, max_points + 1))
    axes = [seeds(n_seeds)]
    if n_seeds * 2 <= max_points and rng.integers(2):
        axes.append(grid(algorithm=["dcsa", "max"]))
    return SweepSpec(workload, base=base, axes=axes)


# --------------------------------------------------------------------- #
# Hypothesis layer
# --------------------------------------------------------------------- #


def _require_hypothesis() -> None:
    if not _HAVE_HYPOTHESIS:
        raise ImportError(
            "repro.testing.strategies' hypothesis strategies need the "
            "'hypothesis' package (pip extra: repro-gradient-clock-sync[test]); "
            "the seed-driven fuzz_* functions work without it"
        )


def topologies(min_n: int = 4, max_n: int = 14):
    """Strategy for ``(name, n, edges)`` over the named topology table."""
    _require_hypothesis()
    return st.tuples(
        st.sampled_from(TOPOLOGIES),
        st.integers(min_value=min_n, max_value=max_n),
    ).map(lambda t: (t[0], t[1], make_topology(t[0], t[1])))


def system_params(min_n: int = 2, max_n: int = 32):
    """Strategy for validated :class:`~repro.params.SystemParams`."""
    _require_hypothesis()
    return st.builds(
        lambda n, rho, b0_scale: SystemParams.for_network(
            n, rho=rho, b0_scale=b0_scale
        ),
        n=st.integers(min_value=min_n, max_value=max_n),
        rho=st.sampled_from(_RHO_CHOICES),
        b0_scale=st.sampled_from((0.5, 1.0, 2.0)),
    )


def experiment_configs(
    min_n: int = 4,
    max_n: int = 12,
    *,
    horizon: float = 60.0,
    churny: bool = True,
    adversarial: bool = False,
):
    """Strategy for whole invariant-safe :class:`ExperimentConfig` draws.

    The paper's premises always hold on the result (spanning backbone,
    envelope-respecting clocks/adversaries), so every invariant of
    Sections 3 and 6 -- and therefore the streaming oracle -- must pass.
    """
    _require_hypothesis()

    @st.composite
    def _configs(draw):
        return _draw_config(
            lambda options: draw(st.sampled_from(options)),
            min_n=min_n,
            max_n=max_n,
            horizon=horizon,
            churny=churny,
            adversarial=adversarial,
        )

    return _configs()


def sweep_specs(max_points: int = 4):
    """Strategy for small serializable sweep specs (backend-parity food)."""
    _require_hypothesis()
    from ..sweep.spec import SweepSpec, grid, seeds

    @st.composite
    def _specs(draw):
        workload = draw(st.sampled_from(_SWEEP_WORKLOADS))
        base = {
            "n": draw(st.integers(min_value=4, max_value=6)),
            "horizon": float(draw(st.integers(min_value=10, max_value=25))),
        }
        n_seeds = draw(st.integers(min_value=1, max_value=max_points))
        axes = [seeds(n_seeds)]
        if n_seeds * 2 <= max_points and draw(st.booleans()):
            axes.append(grid(algorithm=["dcsa", "max"]))
        return SweepSpec(workload, base=base, axes=axes)

    return _specs()


def queue_operations(
    max_ops: int = 60,
    *,
    max_time: float = 100.0,
    max_priority: int = 3,
):
    """Strategy for typed-event-queue op scripts (kernel property tests).

    Generates a list of operations against one
    :class:`~repro.sim.queue.EventQueue`:

    * ``("push", time, priority, kind)`` -- schedule a record (kinds span
      the never-pooled callback kind and the poolable typed kinds, so
      scripts exercise free-list reuse under cancellation);
    * ``("cancel", i)`` -- cancel the ``i``-th pushed record (modulo the
      number pushed so far; double-cancels and cancel-after-pop are
      exercised by colliding indices);
    * ``("pop",)`` -- pop the next live record.

    The interleavings this produces -- cancel-then-pop, pop-then-cancel,
    cancel-twice, pooled-record reuse -- are exactly the hazard surface of
    the lazy-deletion + record-pooling queue; see
    ``tests/test_event_queue.py`` for the invariants checked over them.
    """
    _require_hypothesis()
    from ..sim import events as ev

    kinds = st.sampled_from(
        (ev.KIND_CALLBACK, ev.KIND_DELIVER, ev.KIND_TIMER, ev.KIND_SAMPLE)
    )
    push = st.tuples(
        st.just("push"),
        st.floats(min_value=0.0, max_value=max_time, allow_nan=False),
        st.integers(min_value=0, max_value=max_priority),
        kinds,
    )
    cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255))
    pop = st.tuples(st.just("pop"))
    return st.lists(st.one_of(push, cancel, pop), min_size=1, max_size=max_ops)
