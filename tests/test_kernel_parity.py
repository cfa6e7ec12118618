"""Kernel parity: every kernel path leaves what the ``handle()`` reference
leaves, whatever the config, observers on or off.

One property (:func:`kernel_parity.check`) over three sources of configs:
drawn ones (``experiment_configs`` widened to lockstep draws, plus flip
scripts over any pair), at both lane constants; :data:`CASES`, one row per
hand-picked case, each carrying the cheap claims that say the case is
what its comment says; and (slow) every ``sim`` workload of
``BENCHMARK.json`` at seed 0.  Adding a case means adding a row.

The mechanism files keep the names their cases had before they became
rows, as tests that assert a row's verdict through :func:`holds`, which
runs each check once per session.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_parity import (
    CHURN_SCRIPT,
    check,
    churned_sync_ring,
    far_ahead,
    fast_discovery,
)

from repro.core import batch as batch_mod
from repro.core.batch import NodeArrayTable
from repro.core.protocol import MaxSyncCore, StaticGradientCore
from repro.harness import configs
from repro.adversary.topology import GreedyTopologyAdversary
from repro.harness.registry import AdversaryRef, ChurnRef, OracleRef
from repro.network.churn import ScriptedChurn
from repro.params import SystemParams
from repro.sim.clocks import (
    ConstantRateClock,
    extremal_clock,
    perfect_clock,
    sinusoidal_clock,
    two_phase_clock,
)
from repro.sim.events import KIND_DELIVER_BURST, PRIORITY_TOPOLOGY
from repro.testing.strategies import experiment_configs, flip_script
from repro.tracing import (
    SPAN_DISCOVER,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_TIMER,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
)

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# Hooks, clocks, spies and claims the rows use
# --------------------------------------------------------------------- #


def _swap_core_5(core_cls):
    """Hook: swap node 5's freshly started DCSA core for a ``core_cls`` one."""

    def hook(exp):
        node = exp.nodes[5]
        node.core = core_cls(5, exp.cfg.params, tick_stagger=node.core._tick_stagger)

    return hook


def _perfect_7_8(node_id, params, rng, horizon):
    """Split clocks, but nodes 7 and 8 tick at exact multiples of 0.5."""
    if node_id in (7, 8):
        return perfect_clock()
    return extremal_clock(params.rho, fast=node_id < params.n // 2)


def _sinusoidal(node_id, params, rng, horizon):
    """Segments of 1.6 / 32 = 0.05, a tenth of a tick: nearly every timer
    inverse crosses segments and falls back to ``clock.time_at``."""
    return sinusoidal_clock(params.rho, 1.6, horizon, phase=float(node_id))


def _two_phase(node_id, params, rng, horizon):
    """The Lemma 4.2 schedule: layer ``d`` (ring distance from node 0) runs
    at ``1 + rho``, then at 1 -- switching at ``1.5 d`` rather than
    ``max_delay * d / rho`` so that every layer does inside the horizon."""
    return two_phase_clock(params.rho, 1.5 * min(node_id, params.n - node_id))


def _switching_5(node_id, params, rng, horizon):
    """Perfect clocks; node 5's runs at ``1 + rho`` until 3.25: its segment
    ends between two of the ring's lockstep bursts (delivered at 3.0, 3.5)."""
    if node_id == 5:
        return two_phase_clock(params.rho, 3.25)
    return ConstantRateClock(1.0)


class _Twice:
    """Constant 0.5, but node 1's tick at 2.0 is slow and its tick at 2.5
    fast: both messages to node 0 land at 3.25 -- the same ``(u, v)`` twice
    in one same-timestamp run (FIFO order kept by the transport's clamp)."""

    def delay(self, u, v, t):
        if (u, v) == (1, 0) and t == 2.0:
            return 1.0
        if (u, v) == (1, 0) and t == 2.5:
            return 0.75
        return 0.5


def _rewired(n=128, horizon=20.0):
    cfg = configs.huge_sync_ring(n, horizon=horizon)
    churn = ChurnRef(
        "random_rewirer",
        {"n": n, "k_extra": 6, "interval": 1.7, "protected": list(cfg.initial_edges),
         "horizon": horizon},
    )
    return replace(cfg, churn=[churn])


def _blocked_at_the_wave(exp):
    """Node 0 learns ``Lmax = 3000`` at 2.0, just before E_0 is discovered
    there: it enters the wave with ``Lmax > L``."""
    exp.sim.schedule_at(
        2.0, lambda: exp.nodes[0]._raise_max(3000.0), priority=PRIORITY_TOPOLOGY
    )


def _heard_before_the_run(exp):
    """Nodes 0 and 1 take a message before the run: a Gamma row and a
    pending ``("lost", v)`` timer each -- in the reference's own
    structures, or straight in a column population's row and slot."""
    exp.nodes[0].on_message(1, (5.0, 6.0))
    exp.nodes[1].on_message(0, (0.25, 7.5))
    on_queue = [] if exp.sim.batch else [("lost", 1), "tick"]
    assert sorted(exp.nodes[0]._timers, key=str) == on_queue


def _direct_message(exp):
    """At 5.123 node 0 takes a message from node 1 outside the transport:
    ``handle()`` cancels and re-arms its ``("lost", 1)`` timer."""
    nodes = exp.nodes
    exp.sim.schedule_at(
        5.123,
        lambda: nodes[0].on_message(1, (nodes[1].logical_clock(), nodes[1].max_estimate())),
    )


def _believe_in_non_neighbours(exp):
    """Node 3 comes to believe in 9 at 3.0 and in 7 at 4.0 (no edge to
    either; the failed sends' absence discoveries take them out again),
    through its core's own ``upsilon`` -- a set, or the view of a column."""
    ups = lambda: exp.nodes[3].core.upsilon
    exp.sim.schedule_at(3.0, lambda: ups().add(9))
    exp.sim.schedule_at(4.0, lambda: ups().add(7))
    exp.sim.schedule_at(5.0, lambda: ups().discard(9))


def _spy(cls, name, record):
    """Wrap ``cls.name``: each call appends ``record(self, args, result)``."""

    def install(mp):
        calls = []
        original = getattr(cls, name)

        def spy(self, *args):
            result = original(self, *args)
            calls.append(record(self, args, result))
            return result

        mp.setattr(cls, name, spy)
        return calls

    return install


#: ``(messages, left to the scalar lane, list-borne)`` per ``_deliver_array``.
ARRAY_LANE = _spy(
    NodeArrayTable, "_deliver_array",
    lambda self, args, rest: (len(args[0]), len(rest), type(args[2]) is list),
)
#: ``(rows, ran)`` per ``_discover_array`` call.
WAVE_LANE = _spy(NodeArrayTable, "_discover_array", lambda self, args, ran: (len(args[0]), ran))
#: ``(now, us, vs)`` per ``deliver_burst``.
BURSTS = _spy(
    NodeArrayTable, "deliver_burst", lambda self, args, _: (self.sim.now, *map(list, args[:2]))
)
#: ``(loose members, traced)`` per ``_tick_array`` (an array-lane tick run).
TICK_LANE = _spy(
    NodeArrayTable, "_tick_array",
    lambda self, args, _: (len(args[1].loose), self.transport._tracer is not None),
)
#: ``(now, loose members)`` per ``_tick_plan``.
PLANS = _spy(NodeArrayTable, "_tick_plan", lambda self, args, plan: (self.sim.now, len(plan.loose)))


#: ``(now, edge, clocks of its ends)`` per ``GreedyTopologyAdversary._gap``.
GREEDY_READS = _spy(
    GreedyTopologyAdversary, "_gap",
    lambda self, args, _: (self.sim.now, args[1], args[0][args[1][0]], args[0][args[1][1]]),
)


stat = lambda name: lambda r: r.default.res.transport_stats[name] > 0
declined = lambda needle: lambda r: needle in (r.default.res.batch_gate_reason or "")
ENGAGED = lambda r: r.default.exp.sim.batch_dispatches + r.default.res.array_lane_events > 0
ON_ARRAY_LANE = lambda r: r.default.res.array_lane_events > 0
BLOCKED = lambda r: r.default.res.blocked_rows > 0
JUMPS = lambda r: r.default.res.total_jumps() > 0


def lanes_meet(r):
    """A batch with array-lane and scalar-lane destinations."""
    return any(0 < left < m for m, left, _ in r.default.spied)


def greeted(r):
    """Every add's greeting flight is parented on its discover row, and
    the run has jumps to parent."""
    spans = r.default_on.res.spans
    kinds, parents, detail = spans.kind, spans.parent, spans.detail
    adds = sum(k == SPAN_DISCOVER and d == 1.0 for k, d in zip(kinds, detail))
    greetings = sum(
        k == SPAN_FLIGHT and p >= 0 and kinds[p] == SPAN_DISCOVER
        for k, p in zip(kinds, parents)
    )
    return greetings == adds > 0 and spans.count(SPAN_JUMP) > 0


def singleton_parents(r):
    """A jump is parented on the delivering flight (or the firing timer /
    discovery), a tick's per-message send on its timer row."""
    spans = r.default_on.res.spans
    kinds = spans.kind
    parents = {
        kind: {kinds[p] for k, p in zip(kinds, spans.parent) if k == kind}
        for kind in (SPAN_JUMP, SPAN_FLIGHT)
    }
    return (
        SPAN_FLIGHT in parents[SPAN_JUMP]
        and parents[SPAN_JUMP] <= {SPAN_FLIGHT, SPAN_TIMER, SPAN_DISCOVER}
        and parents[SPAN_FLIGHT] == {SPAN_TIMER, SPAN_DISCOVER}
        and r.default.res.array_events > r.default.res.transport_stats["delivered"]
    )


def released_by_the_discovery(r):
    """Discovering that edge {2, 3} is gone drops node 2's last row and
    releases its jump inside the discovery's own dispatch."""
    rows = list(r.default_on.res.spans.rows())
    (jump,) = [
        s for s in rows
        if s.kind == SPAN_JUMP and s.parent >= 0 and rows[s.parent].kind == SPAN_DISCOVER
    ]
    cause = rows[jump.parent]
    return (cause.node, cause.peer, cause.detail) == (2, 3, 0.0) and (
        jump.node == 2 and jump.t0 == cause.t0 == 4.3 + 0.5
    )


def doomed_at_the_horizon(r):
    queued = r.default_on.exp.sim.queue.live_events()
    spans, stats = r.default_on.res.spans, r.default_on.res.transport_stats
    flights = Counter(s for k, s in zip(spans.kind, spans.status) if k == SPAN_FLIGHT)
    doomed = flights[STATUS_DROPPED] - stats["dropped_no_edge"] - stats["dropped_removed"]
    return (
        any(ev.kind == KIND_DELIVER_BURST for ev in queued)
        and flights[STATUS_DONE] == stats["delivered"]
        and flights[STATUS_PENDING] > 0 and doomed == 2
    )


# --------------------------------------------------------------------- #
# The case table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Case:
    """A named config and ``check``'s options for it (``handled``: what the
    hook hands ``handle()`` directly); each claim is a predicate on the
    four runs."""

    name: str
    make: Callable[[], Any]
    claims: tuple = ()
    hook: Callable | None = None
    lane_min: int | None = None
    spy: Callable | None = None
    handled: dict | None = None


#: Ring-edge outages and chords on the drifting ring.  Messages fly for up
#: to 1.0 and ticks fire every ~0.5 per node, so every removal catches
#: messages in flight (``dropped_removed``); removals are discovered up to
#: 2.0 later, so the endpoints keep sending meanwhile (``dropped_no_edge``).
GENERAL_CHURN_SCRIPT = [
    (1.3, "add", 5, 20),
    (2.37, "remove", 7, 8),
    (4.8, "add", 7, 8),
    (6.05, "remove", 30, 31),
    (7.6, "add", 30, 31),
    (9.45, "remove", 5, 20),
    (11.9, "remove", 40, 41),
]

_DRIFT = AdversaryRef("adaptive_drift", {"period": 0.7})
_ring = lambda n, h, **kw: replace(configs.huge_ring(n, horizon=h), **kw)
_sync = lambda n, h, **kw: replace(configs.huge_sync_ring(n, horizon=h), **kw)
_first_wave = lambda run, array: run.spied[0] == (128, array)

CASES = [
    # Lockstep populations: same-timestamp runs, bursts and tick groups.
    Case("sync_ring", lambda: _sync(64, 120.0), (ENGAGED, greeted)),
    Case("sync_ring256", lambda: _sync(256, 20.0), (ENGAGED,)),
    Case("sync_grid", lambda: configs.huge_sync_grid(8, 8, horizon=60.0), (ENGAGED, greeted)),
    Case("churn_ring", lambda: configs.huge_churn_ring(64, horizon=60.0), (ENGAGED,)),
    # Churn keeps the array path, late bursts and both drop kinds included.
    Case(
        "churned_sync_ring", churned_sync_ring,
        (stat("dropped_no_edge"), stat("dropped_removed"), greeted,
         lambda r: sum(t > CHURN_SCRIPT[0][0] for t, _, _ in r.default.spied) > 100),
        spy=BURSTS,
    ),
    # Upsilon shrinking then regrowing to its old size is not stale: node 0
    # believes in {1, 15}, loses 1 and gains 5 (a send template validated
    # by length alone would keep addressing node 1); both changes are
    # discovered by 5.3 and the last stale send lands by 5.8, and only the
    # sends made before the removal was discovered drop.
    Case("regrown_upsilon", lambda: churned_sync_ring(
        [(3.2, "remove", 0, 1), (3.3, "add", 0, 5)], n=16, horizon=12.0,
    ), (
        lambda r: r.default.exp.nodes[0].core.upsilon == {5, 15},
        lambda r: {(0, 5), (0, 15)} == {
            (u, v) for t, us, vs in r.default.spied if t > 6.5
            for u, v in zip(us, vs) if u == 0
        },
        lambda r: 0 < r.default.res.transport_stats["dropped_no_edge"] <= 2 * 5,
    ), spy=BURSTS),
    # The horizon (12.3) cuts both rate classes' delivery waves (sent at
    # 11.88 and 12.12, due 0.5 later), and edge {30, 31} fails at 12.2
    # under them: those two flights are doomed (``DROPPED`` at the
    # horizon), every other one still inside a queued burst is genuinely
    # ``PENDING`` -- none may keep the optimistic ``DONE`` it was written with.
    Case("horizon_inside_a_burst", lambda: churned_sync_ring([
        (2.3, "add", 5, 20), (6.37, "remove", 7, 8), (9.8, "add", 7, 8),
        (12.2, "remove", 30, 31),
    ], horizon=12.3), (doomed_at_the_horizon,)),
    Case("max_baseline", lambda: _sync(16, 20.0, algorithm="max"), (declined("MaxSyncCore"),)),
    # Same-timestamp discovery runs (constant latency, batch-eligible ring);
    # test_batch_kernel.py::TestDiscoveryRuns checks each is what it claims.
    # Chord {5, 20} comes and goes inside D = 2: its add discoveries fire
    # at 4.3 on a vanished edge, in one run with chord {10, 30}'s.
    Case("run_transient", lambda: churned_sync_ring(
        [(2.3, "add", 5, 20), (2.3, "add", 10, 30), (3.1, "remove", 5, 20)], horizon=30.0,
    ), (greeted,)),
    # Edge {7, 8} fails at 4.0, a tick time of both endpoints, with nothing
    # in flight (zero delay): their failed sends' absence records
    # (``d=True``) fire at 6.0 with the removal's own discoveries.
    Case("run_absence", lambda: churned_sync_ring(
        [(4.0, "remove", 7, 8), (9.2, "add", 7, 8)], horizon=30.0,
        clock_spec=_perfect_7_8, delay_spec="zero",
    ), (greeted,)),
    # Every greeting lands at the discovery's own timestamp.
    Case("run_zero_delay", lambda: churned_sync_ring(
        CHURN_SCRIPT[:4], horizon=30.0, delay_spec="zero"), (greeted,)),
    # Removals discovered while messages still extend the ``lost`` timers.
    Case("run_lazy_lost", lambda: churned_sync_ring(discovery_spec=fast_discovery), (greeted,)),
    # Node 0 starts 200 ahead, so node 2 is held back by its estimate of
    # node 3 alone: the removal's discovery releases its jump.
    Case("discovery_releases_jump", lambda: churned_sync_ring(
        [(4.3, "remove", 2, 3), (8.1, "add", 2, 3)], n=16, horizon=14.0,
        discovery_spec=fast_discovery,
    ), (released_by_the_discovery,), hook=lambda exp: far_ahead(exp, 200.0)),
    # The general path: per-node drift, staggered ticks, random delays --
    # every delivery and tick a singleton record on the table.
    Case("ring64", lambda: _ring(64, 20.0), (singleton_parents,)),
    Case("ring256", lambda: _ring(256, 8.0)),
    Case("churned", lambda: _ring(64, 15.0, churn=[ScriptedChurn(GENERAL_CHURN_SCRIPT)]),
         (stat("dropped_no_edge"), stat("dropped_removed"))),
    # A tick's send lands at ``now`` and must dispatch before the next timer.
    Case("zero_delay", lambda: _ring(64, 12.0, delay_spec="zero")),
    # One baseline core: the table declines, everything stays on handle().
    Case("mixed", lambda: _ring(64, 12.0), (declined("MaxSyncCore"),),
         hook=_swap_core_5(MaxSyncCore)),
    # Two coefficient rows in one population: the table holds one.
    Case("mixed_static", lambda: _ring(64, 12.0), (declined("StaticGradientCore"),),
         hook=_swap_core_5(StaticGradientCore)),
    # Arbitrary drift: piecewise rates under singletons, under timer runs,
    # bursts and (dissolving) tick groups, and under churn on the grid;
    # test_batch_kernel.py::test_drift_cases_are_what_they_claim counts
    # the re-seats.
    Case("rw_ring", lambda: _ring(64, 20.0, clock_spec="random_walk")),
    Case("rw_sync_ring", lambda: _sync(48, 40.0, clock_spec="random_walk")),
    Case("rw_churned_grid", lambda: replace(
        configs.huge_sync_grid(7, 7, horizon=30.0),
        clock_spec="random_walk", churn=[ScriptedChurn(CHURN_SCRIPT)],
    )),
    # rho = 0.05, so the walk opens gaps wide enough to jump across.
    Case("rw_sync_ring_wide", lambda: _sync(
        32, 40.0, params=SystemParams.for_network(32, rho=0.05), clock_spec="random_walk",
    ), (greeted,)),
    Case("sinusoidal", lambda: _ring(32, 12.0, clock_spec=_sinusoidal)),
    Case("two_phase", lambda: _sync(24, 30.0, clock_spec=_two_phase)),
    # Steered clocks: every rate re-drawn each 0.7, between any two events.
    Case("steered", lambda: _ring(48, 15.0, adversary=_DRIFT)),
    Case("steered_sync_ring", lambda: _sync(32, 30.0, adversary=_DRIFT), (greeted,)),
    Case("steered_churned", lambda: _ring(
        48, 15.0, adversary=_DRIFT, churn=[ScriptedChurn(GENERAL_CHURN_SCRIPT)])),
    # Blocked nodes released at ticks: the tick phase's ``Lmax > L`` filter
    # passes cores on, in tick runs and groups, and some of them jump.
    Case("blocked", lambda: _sync(16, 60.0), (lambda r: r.ref.handled["tick_jump"] >= 10,),
         hook=far_ahead),
    # The constant-B baseline is a coefficient row of the same step; blocked
    # so that AdjustClock really scans Gamma with it.
    Case("static", lambda: _sync(16, 60.0, algorithm="static"), (JUMPS,), hook=far_ahead),
    # The hand-over rules of the array lane, each inside a lockstep burst.
    # Array-lane and blocked destinations in one burst.
    Case("lane_blocked", lambda: _sync(128, 30.0), (BLOCKED, lanes_meet, JUMPS),
         hook=far_ahead, spy=ARRAY_LANE),
    # A piecewise clock whose segment ends between two bursts: the row is
    # re-seated by the scalar lane, its neighbours stay on the array lane.
    Case("lane_segment_end", lambda: _sync(64, 12.0, clock_spec=_switching_5),
         (lanes_meet, lambda r: r.default.res.blocked_rows == 0), spy=ARRAY_LANE),
    # The same (u, v) twice in one run of individual records (the delay
    # script rules bulk sends out; the lane constant admits small runs):
    # every pair at 2.5, greeting and first tick together, then 1 -> 0
    # alone at 3.0 -- node 0 keeps its three messages, the rest merge.
    Case("lane_twice", lambda: _sync(
        8, 8.0, clock_spec="perfect", delay_spec=lambda params, rng: _Twice()),
        (lambda r: r.default.spied[:2] == [(30, 30, True), (17, 3, True)],),
        lane_min=1, spy=ARRAY_LANE),
    # Edges removed with bursts in flight: the drop rule per constituent,
    # the survivors -- a plain list by then -- on the array lane.
    Case("lane_dropped_in_flight", lambda: churned_sync_ring(n=128, horizon=40.0),
         (stat("dropped_removed"),
          lambda r: sum(listed and left < m for m, left, listed in r.default.spied) > 3),
         spy=ARRAY_LANE),
    # Unscripted churn: pairs the store has never seen take fresh slots
    # mid-run (and the columns grow past what the run started with).
    Case("lane_grown_slots", _rewired, (
        lambda r: r.default.exp.transport.plan.table.n_slots > 2 * 128,
        lambda r: r.default.res.array_lane_events > r.default.res.scalar_lane_events,
    )),
    # StaticGradientCore is a coefficient row of the same columns.
    Case("lane_static", lambda: _sync(128, 30.0, algorithm="static"), (
        BLOCKED, ON_ARRAY_LANE,
        lambda r: r.default.exp.transport.plan.table.b_slope == 0.0,
    ), hook=far_ahead),
    # A lockstep ring whose first flip is a ring-edge outage: tick groups
    # with loose members, send plans rebuilt after flips.
    Case("lane_churned_tick_groups", lambda: churned_sync_ring(
        [(2.3, "remove", 40, 41), (2.9, "add", 3, 70), (3.6, "remove", 3, 70),
         (4.1, "add", 40, 41), (5.0, "remove", 100, 101)], n=128, horizon=12.0,
    ), (
        lambda r: r.default.res.array_lane_events > r.default.res.scalar_lane_events,
        lambda r: any(loose for _, loose in r.default.spied),
        lambda r: any(now > 2.3 for now, _ in r.default.spied),
    ), spy=PLANS),
    # The same ring observed: the tracer keeps the tick groups with loose
    # members on the array lane, their span rows split around each loose
    # member as the burst is; node 0 far ahead makes the members jump.
    Case("lane_traced_loose_tick_groups", lambda: churned_sync_ring(
        [(2.3, "remove", 40, 41), (4.1, "add", 40, 41)], n=128, horizon=8.0,
    ), (
        lambda r: any(loose and traced for loose, traced in r.default_on.spied),
        JUMPS,
    ), hook=far_ahead, spy=TICK_LANE),
    # The E_0 wave of a 64-ring (128 rows): one array pass when clean,
    # traced or not; the scalar lane's with a node blocked when it fires,
    # or with a row reversed before it fires.
    Case("wave_clean", lambda: _sync(64, 6.0), (
        lambda r: _first_wave(r.default, True), lambda r: _first_wave(r.default_on, True),
    ), spy=WAVE_LANE),
    Case("wave_blocked", lambda: _sync(64, 6.0),
         (lambda r: _first_wave(r.default, False), JUMPS),
         hook=_blocked_at_the_wave, spy=WAVE_LANE),
    Case("wave_reversed", lambda: churned_sync_ring([(1.0, "remove", 3, 4)], n=64, horizon=6.0),
         (lambda r: _first_wave(r.default, False),), spy=WAVE_LANE),
    # The store's view contract, driven through the reference's own entry
    # points: state fed before the run lands in the row and the slots; a
    # direct ``on_message`` re-arms the slot, not the queue (a table's
    # ticks are records by node id: no timer of a covered node is in its
    # ``_timers``); writes through a covered core's ``upsilon`` send what
    # the reference sends.
    Case("fed_before_run", lambda: _sync(8, 6.0), (
        JUMPS, lambda r: list(r.default.exp.nodes[0]._timers) == [],
    ), hook=_heard_before_the_run),
    Case("direct_message", lambda: _sync(16, 12.0), (
        lambda r: list(r.default.exp.nodes[0]._timers) == [],
    ), hook=_direct_message, handled={"MessageReceived": 1}),
    Case("upsilon_writes", lambda: _sync(64, 8.0), (
        stat("dropped_no_edge"),
        lambda r: r.default.exp.nodes[3].core.upsilon == {2, 4},
    ), hook=_believe_in_non_neighbours),
    # A dense population: rows past ``_LONG_ROW`` slots advance by one
    # fancy-indexed ``+=``.
    Case("long_rows", lambda: configs.mobile_network(24, horizon=40.0), (BLOCKED, lambda r: (
        len(r.default.exp.transport.plan.table.row_index) > 12
        and max(map(len, map(r.default.exp.transport.plan.table.row, r.default.exp.nodes)))
        > batch_mod._LONG_ROW
    ))),
    # The topology adversary picks edges by the clocks it reads mid-run:
    # same reads, same moves.
    Case("greedy_topology", lambda: configs.greedy_topology(16, horizon=60.0), (
        lambda r: r.default.spied == r.ref.spied and r.default.exp.adversary.moves > 0,
    ), spy=GREEDY_READS),
    # The golden workloads (tests/test_golden_values.py), and one armed
    # with the oracle so the timeline captures rows.
    Case("golden_static_path", lambda: configs.static_path(8, horizon=60.0, seed=3)),
    Case("golden_backbone_churn", lambda: configs.backbone_churn(8, horizon=60.0, seed=5)),
    Case("golden_adversarial_drift", lambda: configs.adversarial_drift(8, horizon=60.0, seed=7)),
    Case("armed_backbone_churn", lambda: replace(
        configs.backbone_churn(8, horizon=40.0, seed=5), oracle=OracleRef("standard", {}),
    ), (lambda r: r.default_on.timeline.rows > 0,)),
    # A flip script on the 12-ring whose discovery latency equals the
    # delay: the absence discovery of a failed send ties on (time,
    # priority) with the deliveries of the same tick run.
    Case("flips_tie", lambda: churned_sync_ring(
        [(1.3, "remove", 3, 4), (1.5, "add", 1, 7), (2.6, "add", 3, 4), (3.2, "remove", 1, 7)],
        n=12, horizon=25.0, discovery_spec=fast_discovery,
    )),
]
CASE = {case.name: case for case in CASES}


def _check_case(case):
    runs = check(
        case.make(), hook=case.hook, lane_min=case.lane_min, spy=case.spy,
        handled=case.handled,
    )
    for i, claim in enumerate(case.claims):
        assert claim(runs), f"{case.name}: claim {i} does not hold"


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_case(case):
    holds(case.name)


# --------------------------------------------------------------------- #
# Drawn configs
# --------------------------------------------------------------------- #


@st.composite
def parity_configs(draw):
    """``experiment_configs``, and on half the draws a flip script over any
    pair -- backbone edges included, outside the invariant contract."""
    cfg = draw(experiment_configs(4, 12, horizon=20.0, adversarial=True))
    if draw(st.booleans()):
        n = cfg.params.n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pick = lambda options: draw(st.sampled_from(options))
        script = flip_script(pick, pairs, cfg.initial_edges)
        cfg = replace(cfg, churn=[ScriptedChurn(script)])
    return cfg


@settings(max_examples=25, deadline=None)
@given(cfg=parity_configs())
def _any_config(lane_min, cfg):
    """Whatever the clocks, delays, discovery, stagger, churn and adversary;
    with the lane constant at 1 every run and tick group of these n <= 12
    configs takes the array lane."""
    check(cfg, lane_min=lane_min)


LANES = {"default_lane": None, "lane_1": 1}


@pytest.mark.parametrize("lane", LANES)
def test_any_config(lane):
    holds(f"any_config[{lane}]")


# --------------------------------------------------------------------- #
# One verdict per check
# --------------------------------------------------------------------- #


_CHECKS: dict[str, Callable[[], None]] = {
    **{case.name: partial(_check_case, case) for case in CASES},
    **{f"any_config[{lane}]": partial(_any_config, m) for lane, m in LANES.items()},
}
_VERDICTS: dict[str, str | None] = {}


def holds(name: str) -> None:
    """Assert the check ``name`` -- a row of :data:`CASES` or
    ``any_config[<lane>]`` -- holds, running it once per session.

    The mechanism files keep the names their cases carried before they
    became rows, as tests that call this: the first test to name a check
    runs it (a failure raises there, full traceback), the rest repeat its
    verdict."""
    if name not in _VERDICTS:
        try:
            _CHECKS[name]()
        except BaseException as exc:
            first_line = str(exc).splitlines()[0]
            _VERDICTS[name] = f"{name} failed where it first ran: {first_line}"
            raise
        _VERDICTS[name] = None
    failure = _VERDICTS[name]
    assert failure is None, failure


# --------------------------------------------------------------------- #
# The benchmark workloads
# --------------------------------------------------------------------- #


def _sim_workloads():
    """The ``sim`` workloads of ``BENCHMARK.json``, built by the perf
    harness's own ``workloads.py`` (imported read-only, then forgotten)."""
    perf = str(ROOT / "benchmarks" / "perf")
    sys.path.insert(0, perf)
    try:
        import workloads
    finally:
        sys.path.remove(perf)
        for module in ("workloads", "spantrace"):
            sys.modules.pop(module, None)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    table = {w["name"]: workloads.WORKLOADS[w["name"]] for w in declared}
    return {name: w for name, w in table.items() if w.runtime == "sim"}


SIM_WORKLOADS = _sim_workloads()


@pytest.mark.slow
@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_benchmark_workload(name):
    """Every ``sim`` workload of ``BENCHMARK.json`` at seed 0."""
    for cfg in SIM_WORKLOADS[name].build(0):
        check(cfg)
