"""Tests for the struct-of-arrays batch table (repro.core.batch): the
mechanisms under the parity property.

Parity itself -- every kernel path bit-identical to the ``handle()``
reference -- is one property, ``tests/test_kernel_parity.py``.  This file
holds what it rests on: each named case is what it claims (discovery
runs, drift, zero delays), the kernel plan's declines and when it is
decided, the queue's pop-run API and tie probe, the in-place AdjustClock,
the lazy ``lost`` re-arm, and late effect logs.
"""

from __future__ import annotations

import multiprocessing
import re
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from math import inf

import pytest
from kernel_parity import run
from test_kernel_parity import BURSTS, CASE, holds

from repro.core.batch import NodeArrayTable
from repro.core.node import ClockSyncNode
from repro.core.estimates import NeighborEstimate
from repro.core.protocol import DCSACore, JumpL, ProtocolError
from repro.harness import configs
from repro.harness.registry import DELAY, DISCOVERY, AdversaryRef, ChurnRef, ClockRef
from repro.analysis.recorder import RunRecord
from repro.harness.runner import Experiment, RunResult
from repro.network import transport as transport_mod
from repro.network.channels import ConstantDelay, UniformDelay
from repro.network.churn import ScriptedChurn
from repro.network.graph import DynamicGraph
from repro.network.transport import Transport
from repro.sim import simulator as simulator_mod
from repro.params import SystemParams
from repro.sim.clocks import ConstantRateClock, PiecewiseRateClock, SteerableClock
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
from repro.sim.rng import RngFactory
from repro.sim.simulator import SimulationError, Simulator
from repro.tracing import trace_session


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
        slot = self.row(v).get(u)
        if inside and slot is not None and self.lost_dl[slot] < inf:
            inside[-1]["lazy_cancels"] += 1
        return forget_original(self, v, u)

    monkeypatch.setattr(NodeArrayTable, "discover_run", discover_run)
    monkeypatch.setattr(NodeArrayTable, "forget", forget)
    return runs


# The cases this file named before they became rows of
# ``test_kernel_parity.CASES``: each test asserts its row's parity and claims.


class TestParity:
    @pytest.mark.parametrize("name", ["sync_ring", "sync_grid", "churn_ring"])
    def test_batch_bit_identical_to_scalar(self, name):
        holds(name)

    def test_batch_path_actually_engages(self):
        holds("sync_ring")  # its ENGAGED claim

    def test_churn_keeps_array_path_and_agrees(self):
        holds("churned_sync_ring")

    def test_regrown_upsilon_sends_to_new_neighbours(self):
        holds("regrown_upsilon")


class TestGating:
    def test_maxsync_runs_unchanged_under_batch_default(self):
        holds("max_baseline")


class TestDiscoveryRuns:
    """The ``run_*`` rows of ``test_kernel_parity.CASES`` are what they claim."""

    def _runs(self, name, monkeypatch):
        runs = _spy_discover_runs(monkeypatch)
        parity = run(CASE[f"run_{name}"].make(), batch=True)
        exp, res = parity.exp, parity.res
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
        bursts = BURSTS(monkeypatch)
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
        bursts = BURSTS(monkeypatch)
        exp = run(configs.huge_sync_ring(32, horizon=2.6), batch=True).exp
        t, us, vs = bursts[0]
        assert t == 2.0 + 0.5 and len(us) == 64
        assert sorted(zip(us, vs)) == sorted(
            (u, v) for a, b in exp.cfg.initial_edges for u, v in ((a, b), (b, a))
        )


def _sync(**overrides):
    """The batch-eligible, shardable ring with ``overrides`` applied."""
    return replace(configs.huge_sync_ring(24, horizon=8.0), **overrides)


def _hand_wired(cfg):
    """``cfg``'s population wired by hand -- a bare ``Simulator`` and
    ``Transport``, one driver registered per node, no ``Experiment`` --
    with ``Experiment``'s own ingredients, run to the horizon (no
    recorder, oracle or churn)."""
    params, rngf = cfg.params, RngFactory(cfg.seed)
    sim = Simulator()
    graph = DynamicGraph(range(params.n), cfg.initial_edges)
    transport = Transport(
        sim, graph,
        delay_policy=DELAY[cfg.delay_spec].build(params, rngf.spawn("delay")),
        discovery_policy=DISCOVERY[cfg.discovery_spec].build(params, rngf.spawn("discovery")),
        max_delay=params.max_delay, discovery_bound=params.discovery_bound,
    )
    rates, clocks = ClockRef(cfg.clock_spec)(params, rngf.spawn("clocks"), cfg.horizon)
    nodes = {}
    for i in range(params.n):
        clock = clocks[i] or ConstantRateClock(rates[i])
        nodes[i] = ClockSyncNode(i, sim, clock, transport, params, DCSACore(i, params))
        transport.register_node(i, nodes[i])
    transport.announce_initial_edges()
    for i in range(params.n):
        nodes[i].start()
    sim.run_until(cfg.horizon)
    return RunResult(
        config=cfg, record=RunRecord.empty(nodes), graph=graph, nodes=nodes,
        transport_stats=transport.stats.as_dict(), events_dispatched=sim.events_dispatched,
        declines=transport.plan.declines, non_node_events=sim.non_node_events,
        **transport.lane_counts(),
    )


def _foreign_params(exp):
    core = exp.nodes[5].core
    core.params = replace(core.params)  # equal, but not the shared object


def _attach_log(exp):
    exp.nodes[3].effect_log = []


def _reference_switch(exp):
    exp.sim.batch = False  # what REPRO_BATCH=0 sets at construction


def _swap_core(exp):
    node = exp.nodes[5]
    node.core = DCSACore(5, exp.cfg.params, tick_stagger=node.core._tick_stagger)


@contextmanager
def _reference_kernel():
    """What ``REPRO_BATCH=0`` selects: the ``handle()`` reference kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_mod, "BATCH_DEFAULT", False)
        yield


class _ForeignClock(ConstantRateClock):
    """Not one of ``sim/clocks.py``'s own classes: it could override
    ``value`` / ``time_at``, so the table must not evaluate it inline."""


def _foreign_clock(exp):
    exp.nodes[3].clock = _ForeignClock()


def _row(id, make, path, declined_by, needle, *, mutate=None, shards=0,
         ambient=nullcontext):
    return pytest.param(make, mutate, shards, ambient, path, declined_by, needle, id=id)


#: Every way a fast path declines, one row each: the config (or a finished
#: hand-wired run), the path that declines, by what, and a needle of the
#: reason; ``mutate`` touches the built experiment before the run,
#: ``shards`` rows go through ``run_par`` (all but the last fall back to
#: serial).
DECLINES = [
    _row("non_dcsa_core", lambda: _sync(algorithm="max"),
         "array_step", "core", "MaxSyncCore"),
    _row("reference", _sync, "array_step", "reference", "REPRO_BATCH=0",
         ambient=_reference_kernel),
    _row("hand_wired", lambda: _hand_wired(_sync(oracle=None)),
         "array_step", "population", "registered one by one"),
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
        built = make()
        if isinstance(built, RunResult):
            res = built
        elif shards:
            res = run_par(built, shards)
        else:
            exp = Experiment(built)
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


#: Every touched node of a column population the table cannot run: the
#: hook that touches it before the run, and a needle of the refusal.
REFUSALS = {
    "swapped_core": (_swap_core, "node 5 runs a stand-alone DCSACore, not a view"),
    "foreign_clock": (_foreign_clock, "node 3 clock is _ForeignClock"),
    "effect_log": (_attach_log, "node 3 has an effect log attached"),
    "foreign_params": (_foreign_params, "node 5 does not share the population's SystemParams"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_table(name, monkeypatch):
    """The default kernel refuses the hooked population at its first
    ``run_until``, naming the node and the reason; the reference kernel
    (``REPRO_BATCH=0``) runs the same hooked population."""
    hook, needle = REFUSALS[name]
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(_sync())
    hook(exp)
    with pytest.raises(SimulationError, match=re.escape(needle)):
        exp.run()
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
    exp = Experiment(_sync())
    hook(exp)
    res = exp.run()
    assert [d.declined_by for d in res.declines if d.path == "array_step"] == ["reference"]
    assert res.events_dispatched > 0


def test_a_reference_switch_after_set_up_is_refused(monkeypatch):
    """A column population's table is built at set-up: selecting the
    reference kernel afterwards cannot run it."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(_sync())
    _reference_switch(exp)
    with pytest.raises(SimulationError, match="selected after set-up"):
        exp.run()


def test_a_direct_call_on_a_view_is_refused_by_name(monkeypatch):
    """A table node's core is a view without Gamma or Upsilon: a direct
    ``on_message`` or ``run_core_action`` names the node and the kernel
    that runs it."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(_sync())
    node = exp.nodes[4]
    needle = "node 4: handle() does not run on a batch-table view"
    with pytest.raises(ProtocolError, match=re.escape(needle)):
        node.on_message(3, (1.0, 2.0))
    with pytest.raises(ProtocolError, match=re.escape(needle)):
        node.run_core_action(lambda: None)


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
        exp.sim.run_until(0.0)  # the first run decides ...
        assert calls.value == 1 and exp.transport.plan.table is not None
        res = exp.run()  # ... and no later run_until asks again
        assert calls.value == 1
        assert res.array_events > 0 and res.declines == ()

    def test_once_per_shard_worker(self, calls):
        res = run_par(_sync(), 2)
        assert res.par_shards == 2 and res.array_events > 0
        assert calls.value == 2  # the coordinator's simulator plans nothing

    def test_hand_wired_population_runs_the_reference(self, calls):
        """No ``Experiment``: bare ``Simulator`` + ``Transport`` + drivers.
        The plan declines the table for it, once, and the run equals the
        column population ``Experiment`` builds from the same config."""
        cfg = _sync(oracle=None)
        res = _hand_wired(cfg)
        assert calls.value == 1
        (decline,) = res.declines
        assert (decline.path, decline.declined_by) == ("array_step", "population")
        assert res.array_events == 0
        ref = Experiment(cfg).run()
        assert ref.declines == () and ref.array_events > 0
        assert ref.materialised_nodes == 0
        h = cfg.horizon
        read = lambda r: [
            (node.logical_clock(h), node.max_estimate(h), node.jumps, node.messages_sent)
            for node in map(r.nodes.__getitem__, sorted(r.nodes))
        ]
        assert read(res) == read(ref)
        assert res.transport_stats == ref.transport_stats
        assert res.events_dispatched == ref.events_dispatched


class TestEventKinds:
    def test_kind_tables_sized_consistently(self):
        assert len(KIND_NAMES) == N_KINDS
        assert len(POOLABLE) == N_KINDS
        assert KIND_NAMES[KIND_DELIVER_BURST] == "deliver_burst"
        assert KIND_NAMES[KIND_TICK_BURST] == "tick_burst"
        assert POOLABLE[KIND_DELIVER_BURST] and POOLABLE[KIND_TICK_BURST]

    def test_burst_records_expand_into_kind_counts(self):
        holds("sync_ring")  # ``check`` asserts the re-booking on every run


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

        An end-of-run population, and stand-alone cores holding what its
        rows hold, whose ``Lmax`` is then raised far ahead, so every core
        is held back by its Gamma rows alone.
        """

        exp = run(configs.huge_sync_ring(16, horizon=10.0), batch=True).exp
        table = exp.transport.plan.table
        a = [exp.nodes[i].core for i in sorted(exp.nodes)]  # views of the rows
        b = []  # stand-alone cores holding what the rows hold
        for i, view in enumerate(a):
            core = DCSACore(i, exp.cfg.params)
            for name in ("_L", "_Lmax", "h_last", "jumps", "total_jump"):
                setattr(core, name, getattr(view, name))
            core.gamma = {
                u: NeighborEstimate(table.added_h[s], table.l_est[s])
                for u, s in table.row(i).items() if table.l_est[s] != inf
            }
            b.append(core)
        for core in a + b:
            core.force_raise_max(core._L + 500.0)
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


#: The general path's rows, under the names this file gave them.
GENERAL_CASES = [
    "ring64", "ring256", "churned", "zero_delay",
    "run_transient", "run_absence", "run_zero_delay", "run_lazy_lost",
    "rw_ring", "rw_sync_ring", "rw_churned_grid", "sinusoidal", "two_phase",
    "steered", "steered_churned", "blocked", "static",
]


class TestGeneralPathParity:
    """The general path's rows of ``test_kernel_parity.CASES`` are what
    they claim, and the table rejects what the reference rejects."""

    @pytest.mark.parametrize("name", GENERAL_CASES)
    def test_singletons_bit_identical_to_scalar(self, name):
        holds(name)

    def test_churned_case_exercises_both_drop_kinds(self):
        holds("churned")  # its two drop-kind claims

    def test_drift_cases_are_what_they_claim(self, monkeypatch):
        """Segments really are crossed and rates really are steered (the
        ``blocked`` row claims its tick-time releases itself)."""
        reseats = Counter()
        reseat = NodeArrayTable._reseat
        time_at = PiecewiseRateClock.time_at

        def counting_reseat(self, i, t):
            reseats[type(self.clocks[i]).__name__] += 1
            reseat(self, i, t)

        def counting_time_at(self, h):
            reseats["time_at"] += 1
            return time_at(self, h)

        monkeypatch.setattr(NodeArrayTable, "_reseat", counting_reseat)
        monkeypatch.setattr(PiecewiseRateClock, "time_at", counting_time_at)
        # The table seats every row at construction as a column fill, so
        # each ``_reseat`` counted here is a crossing.
        for name, kind, at_least in [
            ("rw_sync_ring", "PiecewiseRateClock", 48 * 10),
            ("two_phase", "PiecewiseRateClock", 23),
            ("steered_churned", "SteerableClock", 48 * 20),
        ]:
            reseats.clear()
            run(CASE[name].make(), batch=True)
            assert reseats[kind] >= at_least, (name, reseats)
        # The table calls ``time_at`` only where a deadline lies past its
        # row's segment: on the sinusoid, for nearly every delivery and tick.
        reseats.clear()
        res = run(CASE["sinusoidal"].make(), batch=True).res
        deadlines = res.array_events - res.transport_stats["discoveries_delivered"]
        assert reseats["PiecewiseRateClock"] >= 32 * 12 * 4, reseats
        assert reseats["time_at"] > 0.9 * deadlines, reseats

    def test_zero_lower_bound_cases_are_what_they_claim(self):
        """``ConstantDelay(0)`` sends per message; the default is ``U(0, T)``."""
        parity = run(CASE["zero_delay"].make(), batch=True)
        exp, res = parity.exp, parity.res
        assert isinstance(exp.transport.delay_policy, ConstantDelay)
        assert exp.transport.delay_policy.value == 0.0
        assert exp.transport.plan.table.send_delay is None
        assert res.transport_stats["delivered"] > 0
        default = Experiment(CASE["ring64"].make()).transport.delay_policy
        assert isinstance(default, UniformDelay) and default.lo == 0.0

    @pytest.mark.parametrize("key", ["t", "xy", ("gone", 1), 7])
    def test_foreign_timer_key_is_rejected_as_on_the_reference(self, key, monkeypatch):
        """Only ``tick`` / ``("lost", v)`` ride the table, which rejects the
        rest, as the core does on the reference."""
        for batch, error, needle in (
            (True, SimulationError, "is not one the batch table runs"),
            (False, RuntimeError, "unknown timer"),
        ):
            monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
            exp = Experiment(configs.huge_ring(16, horizon=4.0))
            exp.sim.run_until(2.0)
            assert (exp.transport.plan.table is not None) == batch  # decided at run start
            exp.nodes[3].set_subjective_timer(key, 0.01)
            with pytest.raises(error, match=needle):
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
        churn=[ScriptedChurn(script)],
    )
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
    exp = Experiment(cfg)
    exp.transport.delay_policy = _LateThenEarly()  # before the first send
    clock = exp.nodes[0].clock = SteerableClock(0.95, rho=0.05)
    exp.sim.schedule_at(5.92, lambda: clock.set_rate(5.92, 1.05))
    fires = []
    lost_fire, fire_timer = NodeArrayTable._lost_fire, ClockSyncNode._fire_timer

    def table_fire(self, slot, tracer):
        v = self.owner[slot]
        (u,) = (u for u, s in self.row(v).items() if s == slot)
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

    def test_attach_before_run_logs_on_the_reference_kernel(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
        exp = Experiment(configs.huge_ring(16, horizon=4.0))
        exp.nodes[3].effect_log = []
        res = exp.run()
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


def test_property_any_config_default_kernel_equals_reference():
    holds("any_config[default_lane]")


def test_property_any_config_array_lane_equals_reference():
    holds("any_config[lane_1]")


@pytest.mark.slow
def test_huge_sync_ring_100k_smoke(monkeypatch):
    """The n=100k target scale: runs, engages the batch path, stays sane."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(
        configs.huge_sync_ring(100_000, horizon=3.0, sample_interval=1.0)
    )
    res = exp.run()
    # Its first ticks are one group record, so no run is pre-popped: the
    # array lane is where the batch path shows.
    assert res.batch_gate_reason is None and res.array_lane_events > 0
    assert res.events_dispatched > 1_000_000
    assert res.oracle_report is not None and res.oracle_report.ok
