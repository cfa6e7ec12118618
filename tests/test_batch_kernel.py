"""Tests for the struct-of-arrays batch dispatch path (repro.core.batch).

The load-bearing guarantee is the **parity contract**: with the batch
kernel enabled, every run metric -- skews, jumps (count *and* float
total), per-node protocol state, message counters, dispatch tallies --
is bit-identical to the scalar kernel on the same config.  The tests
here pin that contract on the batch workloads (where the run-level
phases actually engage), under topology churn (where the array path must
stay engaged and apply the drop rule per message), on the general path
(per-node drift, staggered ticks, random delays: every delivery and tick
a singleton record the array step executes one at a time), under
arbitrary drift (piecewise and steered clocks on the segment columns),
and at the unit level for the queue's pop-run API and the in-place
AdjustClock.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_mod
from repro.core.batch import NodeArrayTable
from repro.core.dcsa import DCSANode
from repro.core.node import ClockSyncNode
from repro.core.protocol import (
    DCSACore,
    JumpL,
    MaxSyncCore,
    ProtocolCore,
    StaticGradientCore,
)
from repro.harness import configs
from repro.harness.registry import AdversaryRef, ChurnRef
from repro.harness.runner import Experiment
from repro.network import transport as transport_mod
from repro.network.channels import ConstantDelay, UniformDelay
from repro.network.churn import ScriptedChurn
from repro.network.discovery import ConstantDiscovery
from repro.network.graph import DynamicGraph
from repro.network.transport import Transport
from repro.sim import simulator as simulator_mod
from repro.params import SystemParams
from repro.sim.clocks import (
    ConstantRateClock,
    PiecewiseRateClock,
    SteerableClock,
    extremal_clock,
    perfect_clock,
    sinusoidal_clock,
    two_phase_clock,
)
from repro.sim.events import (
    KIND_DELIVER,
    KIND_DELIVER_BURST,
    KIND_NAMES,
    KIND_TICK_BURST,
    KIND_TIMER,
    N_KINDS,
    POOLABLE,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
)
from repro.sim.par import run_par
from repro.sim.queue import EventQueue
from repro.sim.simulator import Simulator
from repro.testing.strategies import experiment_configs
from repro.tracing import trace_session


_TABLE_LOST_FIRE = NodeArrayTable._lost_fire
_REFERENCE_FIRE_TIMER = ClockSyncNode._fire_timer


def _spy_lost_fires(monkeypatch):
    """Record every ``lost`` fire -- the table's and the reference's -- as
    ``(repr(time), node, neighbour)``; returns the list they land in."""
    fires = []

    def table_fire(self, slot, tracer):
        v = self.owner[slot]
        (u,) = (u for u, s in self.slotmap[v].items() if s == slot)
        fires.append((repr(self.sim.now), v, u))
        _TABLE_LOST_FIRE(self, slot, tracer)

    def reference_fire(self, key):
        if key != "tick":
            fires.append((repr(self.sim.now), self.node_id, key[1]))
        _REFERENCE_FIRE_TIMER(self, key)

    monkeypatch.setattr(NodeArrayTable, "_lost_fire", table_fire)
    monkeypatch.setattr(ClockSyncNode, "_fire_timer", reference_fire)
    return fires


def _run(cfg, batch, monkeypatch, hook=None):
    """Build and run ``cfg`` with the batch kernel forced on or off."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
    exp = Experiment(cfg)
    assert exp.sim.batch is batch
    if hook is not None:
        hook(exp)
    exp.lost_fires = _spy_lost_fires(monkeypatch)
    res = exp.run()
    return exp, res


def _fingerprint(exp, res):
    """Every observable a batch/scalar divergence could show up in.

    Floats are captured as ``repr`` so the comparison is bitwise, not
    tolerance-based.
    """
    cores = [exp.nodes[i].core for i in sorted(exp.nodes)]
    return {
        "events": res.events_dispatched,
        "transport": res.transport_stats,
        "jumps": [c.jumps for c in cores],
        "total_jump": [repr(c.total_jump) for c in cores],
        "L": [repr(c._L) for c in cores],
        "Lmax": [repr(c._Lmax) for c in cores],
        "h_last": [repr(c.h_last) for c in cores],
        "messages_sent": [c.messages_sent for c in cores],
        # Final state cannot tell a ``lost`` timer that fired late from one
        # that fired on time (the row is forgotten either way): the fire
        # times, as a multiset, can.
        # (Both sides of a comparison are built alike: by ``_run`` /
        # ``_run_general``, which record them, or by hand, which does not.)
        "lost_fires": sorted(getattr(exp, "lost_fires", ())),
        "gamma": [
            sorted(
                (u, repr(row.added_h), repr(row.l_est))
                for u, row in c.gamma._rows.items()
            )
            for c in cores
            if hasattr(c, "gamma")  # baseline cores keep no Gamma
        ],
        "oracle": (
            None
            if res.oracle_report is None
            else (
                res.oracle_report.ok,
                res.oracle_report.checks,
                res.oracle_report.violation_count,
                repr(res.oracle_report.worst_margin),
            )
        ),
    }


#: Long-lived chords plus ring-edge outages on the batch-eligible ring.
#: Ticks fire every ~0.5 and messages fly for 0.5, so every removal catches
#: messages in flight (``dropped_removed``), and removals are discovered
#: 2.0 later, so the endpoints keep sending meanwhile (``dropped_no_edge``).
CHURN_SCRIPT = [
    (2.3, "add", 5, 20),
    (3.1, "add", 10, 30),
    (6.37, "remove", 7, 8),
    (9.8, "add", 7, 8),
    (12.05, "remove", 30, 31),
    (13.6, "add", 30, 31),
    (17.2, "add", 2, 40),
    (21.45, "remove", 5, 20),
    (24.9, "remove", 40, 41),
    (28.3, "add", 40, 41),
    (33.15, "remove", 10, 30),
]


def _churned_sync_ring(script=CHURN_SCRIPT, n=48, horizon=40.0, **overrides):
    cfg = configs.huge_sync_ring(n, horizon=horizon)
    return replace(cfg, churn=[ScriptedChurn(script)], **overrides)


def _spy_deliver_burst(monkeypatch):
    """Record ``(now, us, vs)`` of every ``NodeArrayTable.deliver_burst``."""
    calls = []
    original = NodeArrayTable.deliver_burst

    def spy(self, us, vs, payloads, sids):
        calls.append((self.sim.now, list(us), list(vs)))
        original(self, us, vs, payloads, sids)

    monkeypatch.setattr(NodeArrayTable, "deliver_burst", spy)
    return calls


def _fast_discovery(params, rng):
    """Constant latency under ``Delta T'``: a removal is discovered while the
    ``lost`` timer is still pending (and lazily extended)."""
    return ConstantDiscovery(0.5 * params.max_delay)


def _perfect_7_8(node_id, params, rng, horizon):
    """Split clocks, but nodes 7 and 8 tick at exact multiples of 0.5."""
    if node_id in (7, 8):
        return perfect_clock()
    return extremal_clock(params.rho, fast=node_id < params.n // 2)


#: Constant discovery latency makes both endpoints of a change -- and all of
#: E_0 -- discover at one timestamp: runs of ``KIND_DISCOVER`` records.
#: ``(id, config factory)``, run through ``GENERAL_CASES``' comparison;
#: ``TestDiscoveryRuns`` checks each is what its comment claims.
DISCOVERY_RUN_CASES = [
    # Chord {5, 20} comes and goes inside D = 2: its add discoveries fire
    # at 4.3 on a vanished edge, in one run with chord {10, 30}'s.
    (
        "transient",
        lambda: _churned_sync_ring(
            [(2.3, "add", 5, 20), (2.3, "add", 10, 30), (3.1, "remove", 5, 20)],
            horizon=30.0,
        ),
    ),
    # Edge {7, 8} fails at 4.0, a tick time of both endpoints, with nothing
    # in flight (zero delay): their failed sends' absence records
    # (``d=True``) fire at 6.0 with the removal's own discoveries.
    (
        "absence",
        lambda: _churned_sync_ring(
            [(4.0, "remove", 7, 8), (9.2, "add", 7, 8)],
            horizon=30.0,
            clock_spec=_perfect_7_8,
            delay_spec="zero",
        ),
    ),
    # Every greeting lands at the discovery's own timestamp.
    (
        "zero_delay",
        lambda: _churned_sync_ring(CHURN_SCRIPT[:4], horizon=30.0, delay_spec="zero"),
    ),
    # Removals discovered while messages still extend the ``lost`` timers.
    ("lazy_lost", lambda: _churned_sync_ring(discovery_spec=_fast_discovery)),
]
_DISCOVERY_MAKE = dict(DISCOVERY_RUN_CASES)


def _spy_discover_runs(monkeypatch):
    """Record every ``NodeArrayTable.discover_run`` call.

    One dict per call: ``now``, the records as ``(node, other, added,
    absence)``, how many it skipped, and how many pending ``lost`` timers
    (re-armed in place by every message since their first) it disarmed.
    """
    runs = []
    inside = []
    run_original = NodeArrayTable.discover_run
    forget_original = NodeArrayTable.forget

    def discover_run(self, rows):
        stats = self.transport.stats
        run = {
            "now": self.sim.now,
            "records": [tuple(row) for row in rows],
            "skipped": -stats.discoveries_skipped,
            "lazy_cancels": 0,
        }
        inside.append(run)
        run_original(self, rows)
        inside.pop()
        run["skipped"] += stats.discoveries_skipped
        runs.append(run)

    def forget(self, v, u):
        slot = self.slotmap[v].get(u)
        if inside and slot is not None and self.lost_dl[slot] < inf:
            inside[-1]["lazy_cancels"] += 1
        return forget_original(self, v, u)

    monkeypatch.setattr(NodeArrayTable, "discover_run", discover_run)
    monkeypatch.setattr(NodeArrayTable, "forget", forget)
    return runs


PARITY_WORKLOADS = [
    ("sync_ring", lambda: configs.huge_sync_ring(64, horizon=120.0)),
    ("sync_grid", lambda: configs.huge_sync_grid(8, 8, horizon=60.0)),
    ("churn_ring", lambda: configs.huge_churn_ring(64, horizon=60.0)),
]


class TestParity:
    @pytest.mark.parametrize(
        "name,make", PARITY_WORKLOADS, ids=[w[0] for w in PARITY_WORKLOADS]
    )
    def test_batch_bit_identical_to_scalar(self, name, make, monkeypatch):
        exp_s, res_s = _run(make(), False, monkeypatch)
        exp_b, res_b = _run(make(), True, monkeypatch)
        assert exp_s.sim.batch_dispatches == 0
        assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)

    def test_batch_path_actually_engages(self, monkeypatch):
        """The sync workload must hit the vectorized phases, not fall back."""
        exp, _ = _run(configs.huge_sync_ring(64, horizon=30.0), True, monkeypatch)
        assert exp.sim.batch_dispatches > 0
        assert exp.transport.plan.table is not None

    def test_churn_keeps_array_path_and_agrees(self, monkeypatch):
        """Churn must not evict the array path, and both drop kinds hold."""
        exp_s, res_s = _run(_churned_sync_ring(), False, monkeypatch)
        bursts = _spy_deliver_burst(monkeypatch)
        exp_b, res_b = _run(_churned_sync_ring(), True, monkeypatch)
        assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
        assert res_b.transport_stats["dropped_no_edge"] > 0
        assert res_b.transport_stats["dropped_removed"] > 0
        assert exp_b.sim.batch_dispatches > 0
        first_flip = CHURN_SCRIPT[0][0]
        late = [t for t, _us, _vs in bursts if t > first_flip]
        assert len(late) > 100  # still the steady-state path, not a one-off

    def test_regrown_upsilon_sends_to_new_neighbours(self, monkeypatch):
        """Upsilon shrinking then regrowing to its old size is not stale.

        Node 0 believes in ``{1, 15}``, loses 1 and gains 5: the believed
        set has two members before and after, so a send template
        validated by length alone would keep addressing node 1.
        """
        script = [(3.2, "remove", 0, 1), (3.3, "add", 0, 5)]
        bursts = _spy_deliver_burst(monkeypatch)
        exp, res = _run(
            _churned_sync_ring(script, n=16, horizon=12.0), True, monkeypatch
        )
        assert exp.nodes[0].core.upsilon == {5, 15}
        settled = [
            (u, v)
            for t, us, vs in bursts
            if t > 6.5  # both changes discovered by 5.3, last stale send lands by 5.8
            for u, v in zip(us, vs)
            if u == 0
        ]
        assert set(settled) == {(0, 5), (0, 15)}
        # Only sends made while the removal was still undiscovered dropped.
        assert 0 < res.transport_stats["dropped_no_edge"] <= 2 * 5


class TestDiscoveryRuns:
    """``DISCOVERY_RUN_CASES`` are what they claim (parity: ``GENERAL_CASES``)."""

    def _runs(self, name, monkeypatch):
        runs = _spy_discover_runs(monkeypatch)
        exp, res = _run(_DISCOVERY_MAKE[name](), True, monkeypatch)
        # E_0 is one run: both endpoints of every ring edge.
        assert len(runs[0]["records"]) == 2 * len(exp.nodes)
        return exp, res, runs

    def test_transient_change_is_skipped_inside_a_run(self, monkeypatch):
        _, res, runs = self._runs("transient", monkeypatch)
        (run,) = [r for r in runs if r["now"] == 2.3 + 2.0]
        assert len(run["records"]) == 4 and run["skipped"] == 2
        assert res.transport_stats["discoveries_skipped"] == 2

    def test_absence_record_shares_a_run_with_ordinary_discoveries(self, monkeypatch):
        _, res, runs = self._runs("absence", monkeypatch)
        (run,) = [r for r in runs if r["now"] == 6.0]
        assert sorted(run["records"]) == [
            (7, 8, False, False), (7, 8, False, True),
            (8, 7, False, False), (8, 7, False, True),
        ]
        assert run["skipped"] == 0
        assert res.transport_stats["dropped_no_edge"] > 2  # later sends deduped

    def test_zero_delay_greetings_dispatch_after_their_run(self, monkeypatch):
        bursts = _spy_deliver_burst(monkeypatch)
        exp, res, _ = self._runs("zero_delay", monkeypatch)
        assert exp.transport.plan.table.send_delay is None
        assert not bursts  # every greeting went through Transport.send
        assert res.transport_stats["delivered"] > 0

    def test_removal_run_cancels_lazily_extended_lost_timers(self, monkeypatch):
        _, _, runs = self._runs("lazy_lost", monkeypatch)
        cancelling = [r for r in runs if r["lazy_cancels"]]
        assert sum(
            len(r["records"]) == 2 and r["lazy_cancels"] == 2 for r in cancelling
        ) >= 3
        assert not any(added for r in cancelling for _, _, added, _ in r["records"])

    def test_greetings_of_a_run_travel_as_one_burst(self, monkeypatch):
        """E_0 on the sync ring: 2n greetings, one heap record."""
        bursts = _spy_deliver_burst(monkeypatch)
        exp, _ = _run(configs.huge_sync_ring(32, horizon=2.6), True, monkeypatch)
        t, us, vs = bursts[0]
        assert t == 2.0 + 0.5 and len(us) == 64
        assert sorted(zip(us, vs)) == sorted(
            (u, v) for a, b in exp.cfg.initial_edges for u, v in ((a, b), (b, a))
        )


def _sync(**overrides):
    """The batch-eligible, shardable ring with ``overrides`` applied."""
    return replace(configs.huge_sync_ring(24, horizon=8.0), **overrides)


def _foreign_params(exp):
    core = exp.nodes[5].core
    core.params = replace(core.params)  # equal, but not the shared object


def _attach_log(exp):
    exp.nodes[3].effect_log = []


def _reference_switch(exp):
    exp.sim.batch = False  # what REPRO_BATCH=0 sets at construction


class _ForeignClock(ConstantRateClock):
    """Not one of ``sim/clocks.py``'s own classes: it could override
    ``value`` / ``time_at``, so the table must not evaluate it inline."""


def _row(id, make, path, declined_by, needle, *, mutate=None, shards=0,
         ambient=nullcontext):
    return pytest.param(make, mutate, shards, ambient, path, declined_by, needle, id=id)


#: Every way a fast path declines, one row each: the config, the path that
#: declines, by what, and a needle of the reason; ``mutate`` touches the
#: built experiment before the run, ``shards`` rows go through ``run_par``
#: (all but the last fall back to serial).
DECLINES = [
    _row("non_dcsa_core", lambda: _sync(algorithm="max"),
         "array_step", "core", "MaxSyncCore"),
    _row("foreign_clock",
         lambda: _sync(clock_spec=lambda node_id, params, rng, horizon: _ForeignClock()),
         "array_step", "clock", "_ForeignClock"),
    _row("effect_log", _sync, "array_step", "effect_log", "node 3 has an effect log",
         mutate=_attach_log),
    _row("foreign_params", _sync, "array_step", "params", "node 5 does not share",
         mutate=_foreign_params),
    _row("reference", _sync, "array_step", "reference", "REPRO_BATCH=0",
         mutate=_reference_switch),
    _row("uniform_delay_runs", lambda: _sync(delay_spec="uniform"),
         "timer_runs", "delay_policy", "UniformDelay"),
    _row("uniform_delay_bulk", lambda: _sync(delay_spec="uniform"),
         "bulk_send", "delay_policy", "UniformDelay"),
    _row("zero_delay_runs", lambda: _sync(delay_spec="zero"),
         "timer_runs", "delay_policy", "ConstantDelay(0.0)"),
    _row("zero_delay_bulk", lambda: _sync(delay_spec="zero"),
         "bulk_send", "delay_policy", "ConstantDelay(0.0)"),
    _row("uniform_discovery", lambda: _sync(discovery_spec="uniform"),
         "timer_runs", "discovery_policy", "UniformDiscovery"),
    _row("par_stagger", lambda: _sync(stagger_ticks=True),
         "shards", "stagger_ticks", "stagger", shards=2),
    _row("par_record", lambda: _sync(record=True),
         "shards", "record", "record", shards=2),
    _row("par_delay", lambda: _sync(delay_spec="uniform"),
         "shards", "delay_spec", "delay_spec", shards=2),
    _row("par_discovery", lambda: _sync(discovery_spec="uniform"),
         "shards", "discovery_spec", "discovery_spec", shards=2),
    _row("par_clock", lambda: _sync(clock_spec="random_walk"),
         "shards", "clock_spec", "clock_spec", shards=2),
    _row("par_adversary", lambda: _sync(adversary=AdversaryRef("adaptive_delay", {})),
         "shards", "adversary", "adversaries", shards=2),
    _row("par_tracer", _sync, "shards", "tracer", "tracing",
         shards=2, ambient=trace_session),
    _row("par_random_churn",
         lambda: _sync(churn=[ChurnRef(
             "random_rewirer", {"n": 24, "k_extra": 2, "interval": 3.0})]),
         "shards", "churn", "static under shards", shards=2),
    _row("par_scripted_churn",
         lambda: _sync(churn=[ScriptedChurn([(3.0, "remove", 5, 6), (6.0, "add", 5, 6)])]),
         "shards", "churn", "static under shards", shards=2),
]


@pytest.mark.parametrize(
    "make,mutate,shards,ambient,path,declined_by,needle", DECLINES
)
def test_decline_table(make, mutate, shards, ambient, path, declined_by, needle):
    """Each decline is named on the result, and ``array_events`` agrees."""
    with ambient():
        if shards:
            res = run_par(make(), shards)
        else:
            exp = Experiment(make())
            if mutate is not None:
                mutate(exp)
            res = exp.run()
    (entry,) = [d for d in res.declines if d.path == path]
    assert entry.declined_by == declined_by
    assert needle in entry.reason
    assert needle in res.summary()
    array_declined = any(d.path == "array_step" for d in res.declines)
    assert (res.array_events == 0) == array_declined
    assert (res.batch_gate_reason is None) == (not array_declined)
    assert (res.par_shards is None) == (
        not shards or res.par_fallback_reason is not None
    )


class TestDecidedOnce:
    """``kernel_plan`` runs once per simulator, where its first run begins."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Shared-memory call counter: forked shard workers bump it too."""
        calls = multiprocessing.Value("i", 0)
        original = transport_mod.kernel_plan

        def spy(*args):
            with calls.get_lock():
                calls.value += 1
            return original(*args)

        monkeypatch.setattr(transport_mod, "kernel_plan", spy)
        return calls

    def test_once_per_experiment_run(self, calls):
        exp = Experiment(_sync())
        assert calls.value == 0 and exp.transport.plan.table is None
        exp.sim.step()  # the first step decides ...
        assert calls.value == 1 and exp.transport.plan.table is not None
        res = exp.run()  # ... and no later run_until asks again
        assert calls.value == 1
        assert res.array_events > 0 and res.declines == ()

    def test_once_per_shard_worker(self, calls):
        res = run_par(_sync(), 2)
        assert res.par_shards == 2 and res.array_events > 0
        assert calls.value == 2  # the coordinator's simulator plans nothing

    def test_hand_wired_population_still_gets_its_table(self, calls):
        """No ``Experiment``: bare ``Simulator`` + ``Transport`` + nodes."""
        params = _sync().params
        sim = Simulator()
        graph = DynamicGraph(range(4), [(i, (i + 1) % 4) for i in range(4)])
        transport = Transport(
            sim, graph,
            delay_policy=ConstantDelay(0.5), discovery_policy=ConstantDiscovery(1.0),
            max_delay=params.max_delay, discovery_bound=params.discovery_bound,
        )
        for i in range(4):
            node = DCSANode(i, sim, ConstantRateClock(1.0), transport, params)
            transport.register_node(i, node)
        transport.announce_initial_edges()
        for i in range(4):
            transport.node(i).start()
        sim.run_until(5.0)
        sim.run_until(10.0)
        assert calls.value == 1
        assert transport.plan.declines == ()
        assert transport.array_events > 0


class TestGating:
    def test_maxsync_runs_unchanged_under_batch_default(self, monkeypatch):
        cfg = lambda: configs.huge_sync_ring(16, horizon=20.0, algorithm="max")
        _, res_s = _run(cfg(), False, monkeypatch)
        _, res_b = _run(cfg(), True, monkeypatch)
        assert res_b.events_dispatched == res_s.events_dispatched
        assert res_b.transport_stats == res_s.transport_stats


class TestEventKinds:
    def test_kind_tables_sized_consistently(self):
        assert len(KIND_NAMES) == N_KINDS
        assert len(POOLABLE) == N_KINDS
        assert KIND_NAMES[KIND_DELIVER_BURST] == "deliver_burst"
        assert KIND_NAMES[KIND_TICK_BURST] == "tick_burst"
        assert POOLABLE[KIND_DELIVER_BURST] and POOLABLE[KIND_TICK_BURST]

    def test_burst_records_expand_into_kind_counts(self, monkeypatch):
        """Dispatch tallies count constituents, never aggregate records."""
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
        exp_s = Experiment(configs.huge_sync_ring(32, horizon=30.0))
        exp_s.sim.kind_counts = [0] * N_KINDS
        res_s = exp_s.run()
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp_b = Experiment(configs.huge_sync_ring(32, horizon=30.0))
        exp_b.sim.kind_counts = [0] * N_KINDS
        res_b = exp_b.run()
        assert res_b.events_dispatched == res_s.events_dispatched
        counts_s = exp_s.sim.kind_counts
        counts_b = exp_b.sim.kind_counts
        # Aggregate kinds net out to zero: each dispatch re-books its
        # cardinality as the constituent kind.
        assert counts_b[KIND_DELIVER_BURST] == 0
        assert counts_b[KIND_TICK_BURST] == 0
        assert counts_b[KIND_DELIVER] == counts_s[KIND_DELIVER]
        assert counts_b[KIND_TIMER] == counts_s[KIND_TIMER]
        assert counts_b == counts_s


class TestPopRun:
    def test_collects_contiguous_same_key_run(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        c = q.push_typed(1.0, PRIORITY_TIMER, KIND_TIMER, "n", "k")
        first = q.pop_until(2.0)
        assert first is a
        buf: list = []
        assert q.pop_run(first, buf) == 2
        assert buf == [a, b]
        assert q.pop_until(2.0) is c  # the timer was left alone

    def test_singleton_run_returns_zero_and_leaves_buffer(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        q.push_typed(2.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        first = q.pop_until(3.0)
        buf: list = []
        assert q.pop_run(first, buf) == 0
        assert buf == []
        assert first is a

    def test_kind_boundary_ends_run_at_equal_key(self):
        """Same (time, priority) but different kind: never mixed in a run."""
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(
            1.0, PRIORITY_DELIVERY, KIND_DELIVER_BURST, [0], [1], [None], 0.0
        )
        first = q.pop_until(2.0)
        assert first is a
        buf: list = []
        assert q.pop_run(first, buf) == 0
        assert q.pop_until(2.0) is b

    def test_cancelled_records_inside_run_dropped(self):
        q = EventQueue()
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0, 1, None, None)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 1, 2, None, None)
        c = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 2, 3, None, None)
        q.cancel(b)
        first = q.pop_until(2.0)
        buf: list = []
        assert q.pop_run(first, buf) == 2
        assert buf == [a, c]


class TestTieProbe:
    """``run_until`` asks ``pop_run`` for a run only when the next head ties
    the popped record's ``(time, priority)``: a lone record goes straight
    to its handler, in the same order, and every record is recycled once."""

    def _sim(self, monkeypatch):
        sim = Simulator(batch=True)
        log: list = []
        sim.set_handler(KIND_DELIVER, lambda ev: log.append(("one", ev.a)))
        sim.set_batch_handler(
            KIND_DELIVER, lambda evs: log.append(("run", [ev.a for ev in evs]))
        )
        sim.set_handler(KIND_DELIVER_BURST, lambda ev: log.append(("burst", ev.a)))
        sim.set_handler(KIND_TIMER, lambda ev: log.append(("timer", ev.a)))
        probes: list = []
        pop_run = EventQueue.pop_run

        def counting(queue, first, out):
            probes.append(pop_run(queue, first, out))
            return probes[-1]

        monkeypatch.setattr(EventQueue, "pop_run", counting)
        return sim, log, probes

    @staticmethod
    def _recycled_once(sim, records):
        free = sim.queue._free
        assert sim.queue.pool_size == len(records) == len({id(ev) for ev in free})
        assert {id(ev) for ev in free} == {id(ev) for ev in records}

    def test_a_tie_on_time_alone_is_no_run(self, monkeypatch):
        sim, log, probes = self._sim(monkeypatch)
        q = sim.queue
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0)
        b = q.push_typed(1.0, PRIORITY_TIMER, KIND_TIMER, 1)
        sim.run_until(2.0)
        assert log == [("one", 0), ("timer", 1)] and probes == []
        assert sim.batch_dispatches == 0 and sim.events_dispatched == 2
        self._recycled_once(sim, [a, b])

    def test_a_tying_head_of_another_kind_is_no_run(self, monkeypatch):
        sim, log, probes = self._sim(monkeypatch)
        q = sim.queue
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER_BURST, 1)
        sim.run_until(2.0)
        assert log == [("one", 0), ("burst", 1)] and probes == [0]
        assert sim.batch_dispatches == 0 and sim.events_dispatched == 2
        self._recycled_once(sim, [a, b])

    def test_a_cancelled_tying_head_is_dropped_by_the_probe(self, monkeypatch):
        sim, log, probes = self._sim(monkeypatch)
        q = sim.queue
        a = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 0)
        b = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 1)
        c = q.push_typed(2.0, PRIORITY_DELIVERY, KIND_DELIVER, 2)
        d = q.push_typed(2.0, PRIORITY_DELIVERY, KIND_DELIVER, 3)
        q.cancel(b)
        sim.run_until(3.0)
        assert log == [("one", 0), ("run", [2, 3])] and probes == [0, 2]
        assert sim.batch_dispatches == 1 and sim.events_dispatched == 3
        self._recycled_once(sim, [a, b, c, d])

    def test_dispatch_tallies_of_a_drifting_ring_are_pinned(self, monkeypatch):
        """A drifting ring dispatches what it did when every record probed."""
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_ring(64))
        res = exp.run()
        assert (res.events_dispatched, exp.sim.batch_dispatches) == (11417, 944)
        assert exp.sim.queue.pool_size == 34


class TestAdjustClocksBatch:
    def test_blocked_population_matches_the_reference_scan(self, monkeypatch):
        """In-place AdjustClock == ``DCSACore._adjust_clock`` + ``apply_jump``.

        Two identical end-of-run populations whose ``Lmax`` is then raised
        far ahead, so every core is held back by its Gamma rows alone.
        """

        def blocked():
            exp, _ = _run(configs.huge_sync_ring(16, horizon=10.0), True, monkeypatch)
            cores = [exp.nodes[i].core for i in sorted(exp.nodes)]
            for core in cores:
                core.force_raise_max(core._L + 500.0)
            return exp.transport.plan.table, cores

        (table, a), (_, b) = blocked(), blocked()
        jumps_before = [c.jumps for c in a]
        for core in a:
            table._adjust_clock(core.node_id, None)
        for core in b:
            for eff in core.act(core._adjust_clock):
                assert type(eff) is JumpL
                core.apply_jump(eff.new_value)
        snap = lambda cores: [
            (repr(c._L), repr(c._Lmax), c.jumps, repr(c.total_jump)) for c in cores
        ]
        assert snap(a) == snap(b)
        assert [c.jumps for c in a] == [j + 1 for j in jumps_before]
        assert all(c._L < c._Lmax for c in a)  # released up to a row, not to Lmax


# --------------------------------------------------------------------- #
# The general path: arbitrary rates, staggered ticks, arbitrary delays
# --------------------------------------------------------------------- #


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


def _swap_core_5(core_cls):
    """Hook: swap node 5's freshly started DCSA core for a ``core_cls`` one."""

    def hook(exp):
        node = exp.nodes[5]
        node.core = core_cls(5, exp.cfg.params, tick_stagger=node.core._tick_stagger)

    return hook


def _far_ahead(exp):
    """Node 0 starts 3000 ahead: the rest chase it for the whole run, each
    held back by its Gamma rows (``Lmax > L`` at most of their ticks)."""
    exp.nodes[0]._raise_max(3000.0)
    exp.nodes[0]._jump_logical(3000.0)


def _sinusoidal(node_id, params, rng, horizon):
    """Segments of 1.6 / 32 = 0.05, a tenth of a tick: nearly every timer
    inverse crosses segments and falls back to ``clock.time_at``."""
    return sinusoidal_clock(params.rho, 1.6, horizon, phase=float(node_id))


def _two_phase(node_id, params, rng, horizon):
    """The Lemma 4.2 schedule: layer ``d`` (ring distance from node 0) runs
    at ``1 + rho``, then at 1 -- switching at ``1.5 d`` rather than
    ``max_delay * d / rho`` so that every layer does inside the horizon."""
    return two_phase_clock(params.rho, 1.5 * min(node_id, params.n - node_id))


_DRIFT = AdversaryRef("adaptive_drift", {"period": 0.7})


#: ``(id, config factory, post-build hook, declining core)``; the last is
#: ``None`` where the table is valid.
GENERAL_CASES = [
    ("ring64", lambda: configs.huge_ring(64, horizon=20.0), None, None),
    ("ring256", lambda: configs.huge_ring(256, horizon=8.0), None, None),
    (
        "churned",
        lambda: replace(
            configs.huge_ring(64, horizon=15.0),
            churn=[ScriptedChurn(GENERAL_CHURN_SCRIPT)],
        ),
        None,
        None,
    ),
    # A tick's send lands at ``now`` and must dispatch before the next timer.
    (
        "zero_delay",
        lambda: replace(configs.huge_ring(64, horizon=12.0), delay_spec="zero"),
        None,
        None,
    ),
    # One baseline core: the table declines, everything stays on handle().
    (
        "mixed",
        lambda: configs.huge_ring(64, horizon=12.0),
        _swap_core_5(MaxSyncCore),
        "MaxSyncCore",
    ),
    # Two coefficient rows in one population: the table holds one.
    (
        "mixed_static",
        lambda: configs.huge_ring(64, horizon=12.0),
        _swap_core_5(StaticGradientCore),
        "StaticGradientCore",
    ),
    # Same-timestamp discovery runs (constant latency, batch-eligible ring).
    *((f"run_{name}", make, None, None) for name, make in DISCOVERY_RUN_CASES),
    # Arbitrary drift: piecewise rates under singletons, under timer runs,
    # bursts and (dissolving) tick groups, and under churn on the grid.
    (
        "rw_ring",
        lambda: replace(configs.huge_ring(64, horizon=20.0), clock_spec="random_walk"),
        None,
        None,
    ),
    (
        "rw_sync_ring",
        lambda: replace(
            configs.huge_sync_ring(48, horizon=40.0), clock_spec="random_walk"
        ),
        None,
        None,
    ),
    (
        "rw_churned_grid",
        lambda: replace(
            configs.huge_sync_grid(7, 7, horizon=30.0),
            clock_spec="random_walk",
            churn=[ScriptedChurn(CHURN_SCRIPT)],
        ),
        None,
        None,
    ),
    (
        "sinusoidal",
        lambda: replace(configs.huge_ring(32, horizon=12.0), clock_spec=_sinusoidal),
        None,
        None,
    ),
    (
        "two_phase",
        lambda: replace(configs.huge_sync_ring(24, horizon=30.0), clock_spec=_two_phase),
        None,
        None,
    ),
    # Steered clocks: every rate re-drawn each 0.7, between any two events.
    (
        "steered",
        lambda: replace(configs.huge_ring(48, horizon=15.0), adversary=_DRIFT),
        None,
        None,
    ),
    (
        "steered_churned",
        lambda: replace(
            configs.huge_ring(48, horizon=15.0),
            adversary=_DRIFT,
            churn=[ScriptedChurn(GENERAL_CHURN_SCRIPT)],
        ),
        None,
        None,
    ),
    # Blocked nodes released at ticks: the tick phase's ``Lmax > L`` filter
    # passes cores on, in tick runs and groups, and some of them jump.
    ("blocked", lambda: configs.huge_sync_ring(16, horizon=60.0), _far_ahead, None),
    # The constant-B baseline is a coefficient row of the same step; blocked
    # so that AdjustClock really scans Gamma with it.
    (
        "static",
        lambda: configs.huge_sync_ring(16, horizon=60.0, algorithm="static"),
        _far_ahead,
        None,
    ),
]
_GENERAL_MAKE = {case[0]: case[1] for case in GENERAL_CASES}


def _run_general(cfg, batch, hook=None):
    """Run ``cfg`` on the chosen kernel, counting what a silent fallback moves.

    Returns ``(exp, res, handled, draws)``: ``handled`` tallies the events
    ``ProtocolCore.handle`` received by kind (ticks apart from ``lost``
    fires; ``tick_jump`` counts the ticks that emitted ``JumpL``),
    ``draws`` is the delay policy's call count plus its unread draw
    buffer, i.e. its exact position in the random stream.
    """
    handled = Counter()
    original = ProtocolCore.handle

    def spy(self, now_h, event):
        name = type(event).__name__
        if name == "TimerFired":
            name = "tick" if event.key == "tick" else "lost"
        handled[name] += 1
        effects = original(self, now_h, event)
        if name == "tick" and any(type(eff) is JumpL for eff in effects):
            handled["tick_jump"] += 1
        return effects

    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProtocolCore, "handle", spy)
        mp.setattr(simulator_mod, "BATCH_DEFAULT", batch)
        exp = Experiment(cfg)
        if hook is not None:
            hook(exp)
        policy = exp.transport.delay_policy
        draw = policy.delay

        def counting(u, v, t):
            calls[0] += 1
            return draw(u, v, t)

        policy.delay = counting
        exp.lost_fires = _spy_lost_fires(mp)
        res = exp.run()
    return exp, res, handled, (calls[0], getattr(policy, "_buf", None))


class TestGeneralPathParity:
    """Singleton deliveries and ticks ride the table, bit-identically."""

    @pytest.mark.parametrize(
        "name,make,hook,declining", GENERAL_CASES, ids=[c[0] for c in GENERAL_CASES]
    )
    def test_singletons_bit_identical_to_scalar(self, name, make, hook, declining):
        valid = declining is None
        exp_s, res_s, handled_s, draws_s = _run_general(make(), False, hook)
        exp_b, res_b, handled_b, draws_b = _run_general(make(), True, hook)
        assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
        assert res_b.total_jumps() == res_s.total_jumps()
        if valid and exp_b.transport.plan.table.send_delay is not None:
            # Bulk sends legitimately bypass ``delay()`` -- a positive
            # constant has no stream to advance -- so only here the call
            # count is not comparable.
            assert draws_b[1] is None and draws_s[1] is None
            assert draws_b[0] < draws_s[0]
        else:
            assert draws_b == draws_s
        # The scalar reference is the unchanged handle() path.
        assert res_s.array_events == 0
        assert handled_s["MessageReceived"] == res_s.transport_stats["delivered"]
        assert handled_s["tick"] > 0
        if valid:
            assert res_b.batch_gate_reason is None
            # A silent fallback must fail, not merely get slower: no
            # ``handle()`` call is left (``start()`` arms the first tick
            # without one).
            assert handled_b == {}
            assert res_b.array_events == sum(
                handled_s[kind]
                for kind in (
                    "MessageReceived", "tick", "DiscoverAdd", "DiscoverRemove", "lost",
                )
            )
        else:
            assert declining in res_b.batch_gate_reason
            assert res_b.array_events == 0
            assert handled_b == handled_s

    def test_churned_case_exercises_both_drop_kinds(self):
        _, res, _, _ = _run_general(_GENERAL_MAKE["churned"](), True)
        assert res.transport_stats["dropped_no_edge"] > 0
        assert res.transport_stats["dropped_removed"] > 0

    def test_drift_cases_are_what_they_claim(self, monkeypatch):
        """Segments really are crossed, rates really are steered, and the
        reference really releases blocked nodes at ticks."""
        reseats = Counter()
        reseat = NodeArrayTable._reseat
        time_at = PiecewiseRateClock.time_at

        def counting_reseat(self, i, t):
            reseats[type(self.drivers[i].clock).__name__] += 1
            reseat(self, i, t)

        def counting_time_at(self, h):
            reseats["time_at"] += 1
            return time_at(self, h)

        monkeypatch.setattr(NodeArrayTable, "_reseat", counting_reseat)
        monkeypatch.setattr(PiecewiseRateClock, "time_at", counting_time_at)
        for name, kind, at_least in [
            ("rw_sync_ring", "PiecewiseRateClock", 48 * 10),
            ("two_phase", "PiecewiseRateClock", 24 + 23),
            ("steered_churned", "SteerableClock", 48 * 20),
        ]:
            reseats.clear()
            _run_general(_GENERAL_MAKE[name](), True)
            assert reseats[kind] >= at_least, (name, reseats)
        # The table calls ``time_at`` only where a deadline lies past its
        # row's segment: on the sinusoid, for nearly every delivery and tick.
        reseats.clear()
        _, res, _, _ = _run_general(_GENERAL_MAKE["sinusoidal"](), True)
        deadlines = res.array_events - res.transport_stats["discoveries_delivered"]
        assert reseats["PiecewiseRateClock"] >= 32 * 12 * 4, reseats
        assert reseats["time_at"] > 0.9 * deadlines, reseats
        _, res, handled, _ = _run_general(
            _GENERAL_MAKE["blocked"](), False, _far_ahead
        )
        assert handled["tick_jump"] >= 10 and res.array_events == 0

    def test_zero_lower_bound_cases_are_what_they_claim(self):
        """``ConstantDelay(0)`` sends per message; the default is ``U(0, T)``."""
        exp, res, _, _ = _run_general(_GENERAL_MAKE["zero_delay"](), True)
        assert isinstance(exp.transport.delay_policy, ConstantDelay)
        assert exp.transport.delay_policy.value == 0.0
        assert exp.transport.plan.table.send_delay is None
        assert res.transport_stats["delivered"] > 0
        default = Experiment(_GENERAL_MAKE["ring64"]()).transport.delay_policy
        assert isinstance(default, UniformDelay) and default.lo == 0.0

    @pytest.mark.parametrize("key", ["t", "xy", ("gone", 1), 7])
    def test_foreign_timer_key_is_rejected_as_on_the_reference(self, key, monkeypatch):
        """Only ``tick`` / ``("lost", v)`` ride the table; the core rejects the rest."""
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_ring(16, horizon=4.0))
        exp.sim.run_until(2.0)
        assert exp.transport.plan.table is not None  # decided at run start
        exp.nodes[3].set_subjective_timer(key, 0.01)
        with pytest.raises(RuntimeError, match="unknown timer"):
            exp.sim.run_until(2.5)


class _LateThenEarly:
    """Delay script for :func:`test_lost_deadline_that_moves_earlier`: node
    1's greeting (sent 4.95) reaches node 0 at 5.90, its next tick's message
    (sent ~5.2557 under seed 0's stagger) at 5.95; 0.5 everywhere else."""

    def delay(self, u, v, t):
        if (u, v) == (1, 0) and t == 4.95:
            return 0.95
        if (u, v) == (1, 0) and 5.0 < t < 5.5:
            return 5.95 - t
        return 0.5


@pytest.mark.parametrize("batch", [False, True], ids=["reference", "table"])
def test_lost_deadline_that_moves_earlier(batch, monkeypatch):
    """The lazy ``lost`` re-arm extends in place only when ``fire_t >= prev.time``.

    Node 0 runs at 0.95 when node 1's greeting arms ``lost(1)`` for
    7.586981, is steered to 1.05 at 5.92, and hears node 1 once more at
    5.95: the new deadline, 7.476316, precedes the queued heap entry, where
    the queue's ``deadline > entry_time`` test cannot see it.  The edge is
    cut at 5.96, so that deadline stands -- and comes *before* node 1's own
    ``lost(0)``.  (Final-state fingerprints do not catch this: the row is
    forgotten either way; only the fire time and order differ.)
    """
    params = SystemParams.for_network(2, rho=0.05)
    script = [(4.95 - params.discovery_bound, "add", 0, 1), (5.96, "remove", 0, 1)]
    cfg = replace(
        configs.static_path(2, horizon=12.0, seed=0, clock_spec="perfect"),
        params=params,
        initial_edges=[],
        discovery_spec="max",
        delay_spec=lambda params, rng: _LateThenEarly(),
        churn=[ScriptedChurn(script)],
    )
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
    exp = Experiment(cfg)
    clock = exp.nodes[0].clock = SteerableClock(0.95, rho=0.05)
    exp.sim.schedule_at(5.92, lambda: clock.set_rate(5.92, 1.05))
    fires = []
    lost_fire, fire_timer = NodeArrayTable._lost_fire, ClockSyncNode._fire_timer

    def table_fire(self, slot, tracer):
        v = self.owner[slot]
        (u,) = (u for u, s in self.slotmap[v].items() if s == slot)
        fires.append((round(self.sim.now, 6), v, ("lost", u)))
        lost_fire(self, slot, tracer)

    def reference_fire(self, key):
        if key != "tick":
            fires.append((round(self.sim.now, 6), self.node_id, key))
        fire_timer(self, key)

    monkeypatch.setattr(NodeArrayTable, "_lost_fire", table_fire)
    monkeypatch.setattr(ClockSyncNode, "_fire_timer", reference_fire)
    res = exp.run()
    assert (res.array_events > 0) == batch
    assert fires == [(7.476316, 0, ("lost", 1)), (7.548006, 1, ("lost", 0))]


class TestLateEffectLog:
    def test_attach_after_table_built_raises(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_ring(16, horizon=4.0))
        exp.sim.run_until(2.0)
        assert exp.transport.plan.table is not None  # decided at run start
        with pytest.raises(RuntimeError, match="effect log"):
            exp.nodes[3].effect_log = []
        assert exp.nodes[3].effect_log is None
        exp.nodes[3].effect_log = None  # detaching nothing stays legal

    def test_attach_before_run_declines_the_table(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        exp = Experiment(configs.huge_ring(16, horizon=4.0))
        exp.nodes[3].effect_log = []
        res = exp.run()
        assert res.batch_gate_reason == "node 3 has an effect log attached"
        assert res.array_events == 0
        kinds = {type(event).__name__ for _h, event, _effects in exp.nodes[3].effect_log}
        assert {"MessageReceived", "TimerFired"} <= kinds

    def test_scalar_kernel_accepts_a_late_log(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
        exp = Experiment(configs.huge_ring(16, horizon=4.0))
        exp.sim.run_until(2.0)
        exp.nodes[3].effect_log = []
        exp.run()
        assert exp.nodes[3].effect_log


_N = 12  # ring size of the churn property (batch-eligible population)

_churn_ops = st.lists(
    st.tuples(
        st.floats(0.01, 1.5, allow_nan=False, allow_infinity=False),
        st.integers(0, _N - 1),
        st.integers(0, _N - 1),
    ).filter(lambda op: op[1] != op[2]),
    max_size=24,
)


def _script_from_ops(ops):
    """Turn ``(dt, u, v)`` draws into a legal flip script on the ``_N``-ring.

    Each op flips edge ``{u, v}`` relative to its current state at a
    strictly later time than the previous one (an edge cannot change twice
    at one instant), so ring edges suffer outages and chords come and go.
    """
    ring = configs.huge_sync_ring(_N).initial_edges
    present = {(min(u, v), max(u, v)) for u, v in ring}
    t = 1.0
    script = []
    for dt, u, v in ops:
        t += dt
        edge = (min(u, v), max(u, v))
        if edge in present:
            present.discard(edge)
            script.append((t, "remove", *edge))
        else:
            present.add(edge)
            script.append((t, "add", *edge))
    return script


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(ops=_churn_ops, tie=st.booleans())
# Discovery latency == delay: the absence discovery of a failed send ties
# on (time, priority) with the deliveries of the same tick run.
@example(ops=[(0.3, 3, 4), (0.2, 1, 7), (1.1, 3, 4), (0.6, 1, 7)], tie=True)
def test_property_random_flip_scripts_bit_identical(ops, tie):
    """Property: any add/remove script, scalar == batch, bitwise."""
    overrides = {}
    if tie:
        overrides["discovery_spec"] = _fast_discovery
    script = _script_from_ops(ops)
    with pytest.MonkeyPatch.context() as mp:
        make = lambda: _churned_sync_ring(script, n=_N, horizon=25.0, **overrides)
        exp_s, res_s = _run(make(), False, mp)
        exp_b, res_b = _run(make(), True, mp)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert exp_b.transport.plan.table is not None


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(ops=_churn_ops, zero=st.booleans())
def test_property_general_path_flip_scripts_bit_identical(ops, zero):
    """Property: drifting ring, any flip script, scalar == singletons-on-table."""
    script = _script_from_ops(ops)
    make = lambda: replace(
        configs.huge_ring(_N, horizon=15.0),
        churn=[ScriptedChurn(script)],
        delay_spec="zero" if zero else "uniform",
    )
    exp_s, res_s, _, draws_s = _run_general(make(), False)
    exp_b, res_b, handled_b, draws_b = _run_general(make(), True)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert draws_b == draws_s
    assert handled_b["MessageReceived"] == handled_b["tick"] == 0


def _any_config_parity(cfg, lane_min=None):
    with pytest.MonkeyPatch.context() as mp:
        if lane_min is not None:
            mp.setattr(batch_mod, "ARRAY_LANE_MIN", lane_min)
        exp_s, res_s = _run(replace(cfg), False, mp)
        exp_b, res_b = _run(replace(cfg), True, mp)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_s.array_events == 0
    # (Read off the reference run: a table-covered core is a row view.)
    if all(type(node.core) is DCSACore for node in exp_s.nodes.values()):
        assert res_b.array_events > 0 and res_b.batch_gate_reason is None


@settings(max_examples=25, deadline=None)
@given(cfg=experiment_configs(4, 12, horizon=30.0, adversarial=True))
def test_property_any_config_default_kernel_equals_reference(cfg):
    """Property: whatever the clocks, delays, churn and adversary, the
    default kernel leaves the reference's state -- and a population of
    plain DCSA cores never runs without the table."""
    _any_config_parity(cfg)


@settings(max_examples=25, deadline=None)
@given(cfg=experiment_configs(4, 12, horizon=30.0, adversarial=True))
def test_property_any_config_array_lane_equals_reference(cfg):
    """The same property with the lane constant at 1, so that every run and
    tick group of these n <= 12 configs takes the array lane."""
    _any_config_parity(cfg, lane_min=1)


@pytest.mark.slow
def test_huge_sync_ring_100k_smoke(monkeypatch):
    """The n=100k target scale: runs, engages the batch path, stays sane."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(
        configs.huge_sync_ring(100_000, horizon=3.0, sample_interval=1.0)
    )
    res = exp.run()
    assert exp.sim.batch_dispatches > 0
    assert res.events_dispatched > 1_000_000
    assert res.oracle_report is not None and res.oracle_report.ok
