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
* ``churn`` and ``adversary``, each a name in its
  :mod:`~repro.harness.registry` table (:data:`~repro.harness.registry.CHURN`,
  :data:`~repro.harness.registry.ADVERSARY`), with the spec keys its entry
  declares;
* the keys of the ``runtime``'s entry: for ``"live"``, ``duration``
  (wall-clock seconds, in place of ``horizon``), ``channel`` and ``jitter``;
* ``name``, a :meth:`str.format` template over the resolved spec.

A key no ingredient of the spec takes raises :class:`TypeError`, as an
unknown keyword does in a call.  :data:`WORKLOADS` maps each workload name
to a :class:`Workload` -- a named spec, callable as
``configs.static_path(8, horizon=60.0)`` -- and each is also bound to its
name in this module.  The benchmark modules and the examples build on
these, so "the workload of experiment X" has one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core import skew_bounds
from ..network.churn import ScriptedChurn
from ..network.topology import grid_edges, path_edges, ring_edges, star_edges, two_chain_edges
from ..params import SystemParams
from .registry import (
    ADVERSARY,
    CHURN,
    RUNTIME,
    AdversaryRef,
    ChurnRef,
    Ingredient,
    OracleRef,
    RuntimeRef,
    entry,
)
from .runner import ExperimentConfig

__all__ = [
    "TOPOLOGY", "WORKLOADS", "Workload", "build",
    "static_path", "static_ring", "large_ring", "huge_ring", "huge_grid",
    "huge_sync_ring", "huge_sync_grid", "huge_churn_ring", "static_grid",
    "backbone_churn", "rotating_backbone", "mobile_network", "edge_insertion",
    "flapping_edges", "two_chain_insertion", "adversarial_drift",
    "adversarial_delay", "greedy_topology", "combined_adversary", "live_ring",
    "live_grid", "live_churn_ring",
]

Edge = tuple[int, int]
Spec = dict[str, Any]


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


def build(spec: Mapping[str, Any]) -> ExperimentConfig:
    """Assemble the :class:`ExperimentConfig` a spec describes."""
    s: Spec = {
        "churn": "none", "adversary": "none", "runtime": "sim",
        "algorithm": "dcsa", "seed": 0, "b0": None, "name": "", **spec,
    }
    size, edges_of = entry(TOPOLOGY, s["topology"], "topology")
    churn = entry(CHURN, s["churn"], "churn")
    adversary = entry(ADVERSARY, s["adversary"], "adversary")
    # An unknown runtime name is refused when the config runs.
    runtime = RUNTIME.get(s["runtime"], Ingredient())
    allowed = _KEYS | set(size) | set(churn.keys) | set(adversary.keys) | set(runtime.keys)
    live = "duration" in runtime.keys  # a session runs for ``duration`` seconds
    if live:
        allowed.discard("horizon")
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
    s = {**churn.keys, **adversary.keys, **runtime.keys, **s}
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
    initial, churned = churn.make(s, params, backbone) if churn.make else (backbone, None)
    if churn.build:
        churned = ChurnRef(churn.ref or s["churn"], churned)
    elif churned:
        churned = ScriptedChurn(churned)
    return ExperimentConfig(
        params=params,
        initial_edges=initial,
        churn=[churned] if churned else [],
        adversary=(
            AdversaryRef(adversary.ref or s["adversary"], adversary.make(s, params, backbone))
            if adversary.make else None
        ),
        oracle=OracleRef("standard", {}) if s.get("oracle") else None,
        runtime=RuntimeRef(s["runtime"], runtime.make(s)) if runtime.make else s["runtime"],
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
    "runtime": "live", "sample_interval": 0.25, "record": False, "oracle": True,
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
