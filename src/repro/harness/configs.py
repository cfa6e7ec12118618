"""Workloads as specs, and the one function that turns a spec into a config.

A *spec* is a flat mapping of plain data.  :func:`build` is the only place
an :class:`~repro.harness.runner.ExperimentConfig` is assembled from one;
the named workloads, the fuzzer (:mod:`repro.testing.strategies`) and
every sweep point (:mod:`repro.sweep.spec`) all go through it.  A spec's
keys are:

* ``topology`` (a :data:`TOPOLOGY` name) and its size: ``n``, or
  ``rows`` / ``cols`` for a grid;
* the plain-data :class:`ExperimentConfig` fields: ``algorithm``,
  ``clock_spec``, ``delay_spec``, ``discovery_spec``, ``horizon``,
  ``sample_interval``, ``seed``, ``track_max_estimates``,
  ``stagger_ticks``, ``record`` (``track_edges`` follows it), ``oracle``
  (a bool: the standard streaming oracle or none) and ``runtime``;
* the :class:`~repro.params.SystemParams` fields ``rho``, ``max_delay``,
  ``discovery_bound``, ``tick_interval`` and ``b0`` (``None``: chosen per
  Corollary 6.14);
* ``churn`` (a :data:`CHURN` name) and ``adversary`` (an
  :data:`ADVERSARY` name), each with the parameters its entry declares;
* for ``runtime="live"``: ``duration`` (wall-clock seconds, in place of
  ``horizon``), ``channel`` and ``jitter``;
* ``name``, a :meth:`str.format` template over the resolved spec.

A key no ingredient of the spec takes raises :class:`TypeError`, as an
unknown keyword does in a call.  :data:`WORKLOADS` maps each workload name
to a :class:`Workload` -- a named spec, callable as
``configs.static_path(8, horizon=60.0)`` -- and each is also bound to its
name in this module.  The benchmark modules and the examples build on
these, so "the workload of experiment X" has one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core import skew_bounds
from ..network.churn import ScriptedChurn
from ..network.topology import (
    grid_edges,
    path_edges,
    random_geometric,
    ring_edges,
    star_edges,
    two_chain_edges,
)
from ..params import SystemParams
from .registry import AdversaryRef, ChurnRef, OracleRef, RuntimeRef
from .runner import ExperimentConfig

__all__ = [
    "ADVERSARY", "CHURN", "TOPOLOGY", "WORKLOADS", "Workload", "build",
    "static_path", "static_ring", "large_ring", "huge_ring", "huge_grid",
    "huge_sync_ring", "huge_sync_grid", "huge_churn_ring", "static_grid",
    "backbone_churn", "rotating_backbone", "mobile_network", "edge_insertion",
    "flapping_edges", "two_chain_insertion", "adversarial_drift",
    "adversarial_delay", "greedy_topology", "combined_adversary", "live_ring",
    "live_grid", "live_churn_ring",
]

Edge = tuple[int, int]
Spec = dict[str, Any]


@dataclass(frozen=True)
class Ingredient:
    """One table entry: ``make`` reads the resolved spec; ``keys`` are the
    spec keys it takes, with their defaults."""

    make: Callable[..., Any]
    keys: Mapping[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Topologies: spec -> E_0 (also the protected backbone of churn on top)
# --------------------------------------------------------------------- #

#: The size keys of each topology (a workload's positional arguments).
_GRID, _LINE = ("rows", "cols"), ("n",)

TOPOLOGY: dict[str, tuple[tuple[str, ...], Callable[[Spec], list[Edge]]]] = {
    "path": (_LINE, lambda s: path_edges(s["n"])),
    "ring": (_LINE, lambda s: ring_edges(s["n"])),
    "star": (_LINE, lambda s: star_edges(s["n"])),
    "grid": (_GRID, lambda s: grid_edges(s["rows"], s["cols"])),
    "two_chain": (_LINE, lambda s: two_chain_edges(s["n"])[0]),
    "none": (_LINE, lambda s: []),
}


# --------------------------------------------------------------------- #
# Churn: (spec, params, backbone) -> (E_0, churn entry or None)
# --------------------------------------------------------------------- #


def _rewirer(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """Arbitrary random rewiring of ``k_extra`` edges around the backbone."""
    return backbone, ChurnRef("random_rewirer", {
        "n": s["n"], "k_extra": s["k_extra"], "interval": s["rewire_interval"],
        "protected": backbone, "horizon": s["horizon"],
    })


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
    return backbone, ChurnRef("edge_flapper", {
        "edges": flap, "up": s["up"], "down": s["down"], "horizon": s["horizon"],
    })


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
    return backbone, ChurnRef("rotating_backbone", {
        "n": s["n"], "window": s["window"], "overlap": ov, "horizon": s["horizon"],
    })


def _mobile(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """Random-waypoint radio links (the intro's TDMA scenario).  The
    backbone is kept alive unless ``keep_backbone`` is false, so the
    connectivity premise holds while the radio topology churns freely."""
    edges, pos = random_geometric(s["n"], s["radius"], np.random.default_rng(s["seed"]))
    kept = backbone if s["keep_backbone"] else []
    return sorted(set(edges) | set(kept)), ChurnRef("mobile_geometric", {
        "positions": pos, "radius": s["radius"], "speed": s["speed"],
        "update_interval": s["update_interval"], "protected": kept,
        "horizon": s["horizon"],
    })


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
    return backbone, ScriptedChurn([(s["t_insert"], "add", u, v)])


def _live_chord(s: Spec, params: SystemParams, backbone: list[Edge]) -> Any:
    """A chord across the ring appears at 40% of the session and goes at
    80%: live discovery injection and the envelope monitor's edge ages
    against wall-clock timestamps."""
    u, v, h = 0, s["n"] // 2, s["horizon"]
    return backbone, ScriptedChurn([(0.4 * h, "add", u, v), (0.8 * h, "remove", u, v)])


CHURN: dict[str, Ingredient] = {
    "none": Ingredient(lambda s, params, backbone: (backbone, None)),
    "random_rewirer": Ingredient(_rewirer, {"k_extra": 4, "rewire_interval": 5.0}),
    "edge_flapper": Ingredient(
        _flapper, {"n_flappers": 3, "up": 8.0, "down": 6.0, "endpoints": None}
    ),
    "scripted": Ingredient(
        lambda s, params, backbone: (backbone, ScriptedChurn(s["events"]) if s["events"] else None),
        {"events": ()},
    ),
    "rotating_backbone": Ingredient(_rotating, {"window": 30.0, "overlap": None}),
    "mobile_geometric": Ingredient(
        _mobile, {"radius": 0.35, "speed": 0.01, "update_interval": 2.0, "keep_backbone": True}
    ),
    "insertion": Ingredient(_insertion, {"t_insert": 100.0, "endpoints": None}),
    "live_chord": Ingredient(_live_chord),
}


# --------------------------------------------------------------------- #
# Adversaries (see repro.adversary and docs/adversaries.md):
# (spec, params, backbone) -> AdversaryRef or None
# --------------------------------------------------------------------- #


def _drift_kwargs(s: Spec) -> dict[str, Any]:
    return {"period": s["period"], "strength": s["strength"], "horizon": s["horizon"]}


def _topology_kwargs(s: Spec, params: SystemParams, backbone: list[Edge]) -> dict[str, Any]:
    # Every removal passes a guard certifying (T + D)-interval connectivity.
    return {
        "n": s["n"], "k_extra": s["k_extra"], "period": s["period"], "protected": backbone,
        "interval": params.max_delay + params.discovery_bound,
    }


ADVERSARY: dict[str, Ingredient] = {
    "none": Ingredient(lambda s, params, backbone: None),
    # Re-pins the leading half to 1 + strength*rho (trailing half to
    # 1 - strength*rho) each period: skew versus adversary power.
    "drift": Ingredient(
        lambda s, params, backbone: AdversaryRef("adaptive_drift", _drift_kwargs(s)),
        {"period": 5.0, "strength": 1.0},
    ),
    # Messages from an ahead node take T, from a behind node 0: the lower
    # bounds' shifting technique, re-aimed at each send.
    "delay": Ingredient(lambda s, params, backbone: AdversaryRef("adaptive_delay", {})),
    # Greedy skew-seeking churn of k_extra edges, each retracted after
    # ``hold`` (expose-and-retract; None keeps it until recycled).
    "topology": Ingredient(
        lambda s, params, backbone: AdversaryRef("greedy_topology", {
            **_topology_kwargs(s, params, backbone), "hold": s["hold"], "horizon": s["horizon"],
        }),
        {"k_extra": 4, "period": 5.0, "hold": 2.0},
    ),
    # Drift + delay + topology on one execution: the closest executable
    # analogue of the model's quantifier.
    "combined": Ingredient(
        lambda s, params, backbone: AdversaryRef("combined", {
            "drift": _drift_kwargs(s), "delay": {},
            "topology": {**_topology_kwargs(s, params, backbone), "horizon": s["horizon"]},
        }),
        {"period": 5.0, "strength": 1.0, "k_extra": 4},
    ),
}


# --------------------------------------------------------------------- #
# build
# --------------------------------------------------------------------- #

_CONFIG_KEYS = (
    "algorithm", "clock_spec", "delay_spec", "discovery_spec", "horizon",
    "sample_interval", "seed", "track_max_estimates", "stagger_ticks", "record",
)
_PARAM_KEYS = ("rho", "max_delay", "discovery_bound", "tick_interval")
_KEYS = {
    *_CONFIG_KEYS, *_PARAM_KEYS, "b0", "oracle", "runtime", "name",
    "topology", "churn", "adversary",
}
_LIVE_KEYS = ("duration", "channel", "jitter")


def _entry(table: Mapping[str, Any], key: str, s: Spec) -> Any:
    if s[key] not in table:
        raise KeyError(f"unknown {key} {s[key]!r}; choose from {sorted(table)}")
    return table[s[key]]


def build(spec: Mapping[str, Any]) -> ExperimentConfig:
    """Assemble the :class:`ExperimentConfig` a spec describes."""
    s: Spec = {
        "churn": "none", "adversary": "none", "runtime": "sim",
        "algorithm": "dcsa", "seed": 0, "b0": None, "name": "", **spec,
    }
    size, edges_of = _entry(TOPOLOGY, "topology", s)
    churn, adversary = _entry(CHURN, "churn", s), _entry(ADVERSARY, "adversary", s)
    live = s["runtime"] == "live"
    allowed = _KEYS | set(size) | set(churn.keys) | set(adversary.keys)
    if live:  # a session runs for ``duration`` wall-clock seconds
        allowed = (allowed - {"horizon"}) | set(_LIVE_KEYS)
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise TypeError(
            f"unknown spec key(s) {unknown} for topology={s['topology']!r}, "
            f"churn={s['churn']!r}, adversary={s['adversary']!r}, "
            f"runtime={s['runtime']!r}"
        )
    missing = [k for k in size if k not in s]
    if missing:
        raise TypeError(f"spec is missing its size {missing}")
    s = {**churn.keys, **adversary.keys, **s}
    if live:
        s["horizon"] = s.pop("duration")
    s.setdefault("horizon", ExperimentConfig.horizon)
    if size == _GRID:
        s["n"] = s["rows"] * s["cols"]
    params = SystemParams.for_network(
        s["n"], b0=s["b0"], **{k: s[k] for k in _PARAM_KEYS if k in s}
    )
    if s["horizon"] is None:  # t_insert plus three stabilisation times
        s["horizon"] = s["t_insert"] + 3.0 * skew_bounds.stabilization_time(params)
    backbone = edges_of(s)
    initial, entry = churn.make(s, params, backbone)
    return ExperimentConfig(
        params=params,
        initial_edges=initial,
        churn=[] if entry is None else [entry],
        adversary=adversary.make(s, params, backbone),
        oracle=OracleRef("standard", {}) if s.get("oracle") else None,
        runtime=(
            RuntimeRef("live", {"channel": s["channel"], "jitter": s["jitter"]})
            if live else s["runtime"]
        ),
        track_edges=s.get("record", True),
        name=s["name"].format(**s),
        **{k: s[k] for k in _CONFIG_KEYS if k in s},
    )


@dataclass(frozen=True)
class Workload:
    """A named spec, callable as ``workload(*size, **overrides)``.

    ``size`` names the positional arguments (``n``, or ``rows, cols``);
    a size the spec gives no default for is required.
    """

    key: str
    spec: Mapping[str, Any]
    doc: str = ""

    @property
    def __name__(self) -> str:
        return self.key

    @property
    def size(self) -> tuple[str, ...]:
        return TOPOLOGY[self.spec["topology"]][0]

    def __call__(self, *size: Any, **overrides: Any) -> ExperimentConfig:
        if len(size) > len(self.size):
            raise TypeError(
                f"{self.key}() takes at most {len(self.size)} positional "
                f"argument(s) ({len(size)} given)"
            )
        given = dict(zip(self.size, size))
        twice = sorted(given.keys() & overrides.keys())
        if twice:
            raise TypeError(f"{self.key}() got multiple values for {twice}")
        return build({**self.spec, **given, **overrides})


# --------------------------------------------------------------------- #
# The named workloads
# --------------------------------------------------------------------- #

#: Production-scale posture: no recorder (its O(samples x n) history would
#: not fit), streaming oracle on in O(n) state, coarse sampling.
_SCALE = {"horizon": 30.0, "sample_interval": 5.0, "record": False, "oracle": True}

#: Split extremal clocks (1 + rho / 1 - rho constant rates) with
#: unstaggered ticks and *constant* delay and discovery make every node of
#: a rate class tick at identical timestamps forever: same-timestamp
#: delivery bursts of ~n records, the regime the array lane of
#: :mod:`repro.core.batch` runs as vectorised passes.  The split also
#: produces real skew and jumps, so parity runs exercise AdjustClock.
_LOCKSTEP = {
    **_SCALE, "clock_spec": "split", "delay_spec": "half",
    "discovery_spec": "max", "stagger_ticks": False,
}

#: Wall-clock sessions (1 time unit = 1 second, :mod:`repro.live`): ticks
#: every 50 ms subjective and a 100 ms delay bound give a 2-second session
#: ~40 protocol rounds per node, enough for the oracle's rate and skew
#: monitors to check something real.
_LIVE = {
    "runtime": "live", "duration": 5.0, "sample_interval": 0.25,
    "channel": "loopback", "jitter": 0.0, "record": False, "oracle": True,
    "rho": 0.05, "max_delay": 0.1, "discovery_bound": 0.2, "tick_interval": 0.05,
}

_PATH = {"topology": "path", "horizon": 300.0}

static_path = Workload("static_path", {
    **_PATH, "clock_spec": "split", "name": "static_path(n={n}, {algorithm})",
}, "A static path under adversarial split clocks (worst gradient case).")
static_ring = Workload("static_ring", {
    "topology": "ring", "horizon": 300.0, "clock_spec": "random_walk",
    "name": "static_ring(n={n}, {algorithm})",
}, "A static ring with random-walk clock drift.")
large_ring = Workload("large_ring", {
    "topology": "ring", "n": 64, "horizon": 600.0, "clock_spec": "random_walk",
    "sample_interval": 2.0, "record": False, "oracle": True,
    "name": "large_ring(n={n}, horizon={horizon}, {algorithm})",
}, "Long horizon, no recorder, checked online by the oracle in O(n) "
   "state, so n and horizon can grow freely; record=True turns the "
   "recorder back on for online/offline agreement checks.")
huge_ring = Workload("huge_ring", {
    **_SCALE, "topology": "ring", "n": 4096, "clock_spec": "uniform",
    "name": "huge_ring(n={n}, horizon={horizon}, {algorithm})",
}, "A production-scale ring with per-node constant drift; G(n) grows "
   "with n, so large n is where the paper's bounds are interesting.")
huge_grid = Workload("huge_grid", {
    **_SCALE, "topology": "grid", "rows": 64, "cols": 64, "clock_spec": "uniform",
    "name": "huge_grid({rows}x{cols}, {algorithm})",
}, "huge_ring's posture on a grid: ~2 edges per node, diameter rows + cols.")
huge_sync_ring = Workload("huge_sync_ring", {
    **_LOCKSTEP, "topology": "ring", "n": 4096,
    "name": "huge_sync_ring(n={n}, {algorithm})",
}, "The array lane's flagship: a ring of two exact rate classes.")
huge_sync_grid = Workload("huge_sync_grid", {
    **_LOCKSTEP, "topology": "grid", "rows": 64, "cols": 64,
    "name": "huge_sync_grid({rows}x{cols}, {algorithm})",
}, "The lockstep workload on a grid: bursts twice the ring's size.")
huge_churn_ring = Workload("huge_churn_ring", {
    **_SCALE, "topology": "ring", "n": 4096, "clock_spec": "uniform",
    "churn": "random_rewirer", "k_extra": 16, "rewire_interval": 1.0,
    "name": "huge_churn_ring(n={n}, {algorithm})",
}, "A production-scale ring under continuous rewiring of k_extra chords: "
   "discovery, Gamma eviction and the envelope monitor's add/remove path.")
static_grid = Workload("static_grid", {
    "topology": "grid", "horizon": 300.0,
    "name": "static_grid({rows}x{cols}, {algorithm})",
}, "A static grid with random-walk drift.")
backbone_churn = Workload("backbone_churn", {
    **_PATH, "clock_spec": "split", "churn": "random_rewirer",
    "name": "backbone_churn(n={n}, {algorithm})",
}, "Stable path backbone + arbitrary random rewiring of extra edges.")
rotating_backbone = Workload("rotating_backbone", {
    **_PATH, "topology": "none", "churn": "rotating_backbone",
    "name": "rotating_backbone(n={n}, window={window}, {algorithm})",
}, "No stable edge at all: a different spanning path per time window.")
mobile_network = Workload("mobile_network", {
    **_PATH, "churn": "mobile_geometric", "name": "mobile(n={n}, {algorithm})",
}, "Random-waypoint mobile wireless network over a kept path backbone.")
edge_insertion = Workload("edge_insertion", {
    **_PATH, "clock_spec": "split", "delay_spec": "max", "churn": "insertion",
    "horizon": None, "name": "edge_insertion(n={n}, t={t_insert}, {algorithm})",
}, "Section 1's scenario: with delays always T and split clocks, a "
   "shortcut appears between the path's ends; the horizon defaults to "
   "t_insert plus three stabilisation times.")
flapping_edges = Workload("flapping_edges", {
    **_PATH, "churn": "edge_flapper", "name": "flapping(n={n}, {algorithm})",
}, "Path backbone with chordal edges that flap up and down.")
two_chain_insertion = Workload("two_chain_insertion", {
    **_PATH, "topology": "two_chain", "clock_spec": "split", "delay_spec": "max",
    "churn": "insertion", "t_insert": 150.0, "horizon": None,
    "name": "two_chain(n={n}, {algorithm})",
}, "Figure 1's two chains with a mid-run B-chain shortcut, at random "
   "delays within bounds (the masked construction is repro.lowerbound).")
adversarial_drift = Workload("adversarial_drift", {
    **_PATH, "clock_spec": "perfect", "adversary": "drift",
    "name": "adversarial_drift(n={n}, strength={strength}, {algorithm})",
}, "Static path; clocks start perfect and the drift adversary owns every rate.")
adversarial_delay = Workload("adversarial_delay", {
    **_PATH, "clock_spec": "split", "adversary": "delay",
    "name": "adversarial_delay(n={n}, {algorithm})",
}, "Static path whose message delays are chosen online to mask skew.")
greedy_topology = Workload("greedy_topology", {
    **_PATH, "clock_spec": "split", "adversary": "topology",
    "name": "greedy_topology(n={n}, {algorithm})",
}, "backbone_churn's backbone, clocks, budget and cadence, but the edges "
   "are chosen greedily: isolates the value of choosing over sampling.")
combined_adversary = Workload("combined_adversary", {
    **_PATH, "clock_spec": "perfect", "adversary": "combined",
    "name": "combined_adversary(n={n}, strength={strength}, {algorithm})",
}, "The joint adversary: drift + delay + topology on one execution.")
live_ring = Workload("live_ring", {
    **_LIVE, "topology": "ring", "n": 8, "clock_spec": "uniform",
    "name": "live_ring(n={n}, {algorithm})",
}, "A ring of real-time nodes on one event loop (channel='udp' for real "
   "sockets), constant drift, the oracle attached; duration in seconds.")
live_grid = Workload("live_grid", {
    **_LIVE, "topology": "grid", "rows": 3, "cols": 3,
    "name": "live_grid({rows}x{cols}, {algorithm})",
}, "A live grid session (denser topology, heavier per-tick fan-out).")
live_churn_ring = Workload("live_churn_ring", {
    **_LIVE, "topology": "ring", "n": 8, "churn": "live_chord",
    "name": "live_churn_ring(n={n}, {algorithm})",
}, "A live ring whose chord appears at 40% of the session and goes at 80%.")

WORKLOADS: dict[str, Workload] = {w.key: w for w in (
    static_path, static_ring, large_ring, huge_ring, huge_grid, huge_sync_ring,
    huge_sync_grid, huge_churn_ring, static_grid, backbone_churn,
    rotating_backbone, mobile_network, edge_insertion, flapping_edges,
    two_chain_insertion, adversarial_drift, adversarial_delay, greedy_topology,
    combined_adversary, live_ring, live_grid, live_churn_ring,
)}
