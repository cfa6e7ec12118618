"""Set-up is one pass, and leaves what the per-record wiring leaves.

``Experiment.__init__`` validates E_0 as columns in one pass, announces it
as one wave record under a constant discovery latency, writes a column
population's clocks and first ticks as columns (no driver per node) and
pauses the cyclic collector while it wires.  The reference these tests
compare against is the per-record wiring: ``add_edge`` per initial edge,
``_schedule_discovery`` per endpoint (in canonical edge order where the
wave stands for it, through ``Transport._announce_each`` otherwise), a
driver per node (the object population of the ``handle()`` reference) and
``Start`` through ``handle()`` per node.
"""

from __future__ import annotations

import gc
import math
import pickle
from dataclasses import fields, replace
from functools import partial

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.recorder import SkewRecorder
from repro.core.batch import WaveRows
from repro.core.node import ClockSyncNode, Population
from repro.core.protocol import DCSACore, ProtocolCore, Start
from repro.harness import configs, runner
from repro.harness.registry import ClockRef
from repro.harness.runner import Experiment, ExperimentConfig, run_experiment
from repro.lowerbound import masked_experiment
from repro.lowerbound.mask import DelayMask
from repro.network.discovery import ConstantDiscovery
from repro.network.graph import DynamicGraph, GraphError
from repro.network.topology import path_edges
from repro.network.transport import Transport
from repro.params import ParameterError, SystemParams
from repro.sim import par
from repro.sim import simulator as simulator_mod
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.clocks import (
    ConstantRateClock,
    HardwareClock,
    PiecewiseRateClock,
    validate_drift_columns,
)
from repro.sim.rng import RngFactory
from repro.sim.events import KIND_DISCOVER, KIND_TICK_BURST, KIND_TIMER, N_KINDS
from repro.testing.strategies import experiment_configs
from repro.tracing import trace_session


def _per_record_graph(nodes, initial_edges=()):
    graph = DynamicGraph(nodes)
    for u, v in initial_edges:
        graph.add_edge(u, v, 0.0)
    return graph


def _announce_per_record(transport):
    """E_0's discoveries one record per endpoint: a constant latency's in
    canonical edge order, both ends in turn (the wave's order), any other
    policy's through ``_announce_each``, whose order its draws follow."""
    if type(transport.discovery_policy) is not ConstantDiscovery:
        transport._announce_each()
        return
    now = transport.sim.now
    for u, v in transport.graph.edges():
        transport._schedule_discovery(u, v, added=True, change_time=now)
        transport._schedule_discovery(v, u, added=True, change_time=now)


def _reference(build):
    """``build()`` with every bulk path swapped for its per-record form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "DynamicGraph", _per_record_graph)
        mp.setattr(Transport, "announce_initial_edges", _announce_per_record)
        mp.setattr(ClockSyncNode, "start", lambda self: self._dispatch(Start()))
        mp.setattr(simulator_mod, "BATCH_DEFAULT", False)
        return build()


def _slot(value):
    """A payload slot with per-experiment objects named, not compared."""
    if isinstance(value, ClockSyncNode):
        return ("node", value.node_id)
    return "graph" if isinstance(value, DynamicGraph) else value


def _drain(exp):
    """The pending queue in dispatch order, a wave and a tick group
    expanded into the records they stand for (a tick names its node)."""
    out = []
    queue = exp.sim.queue
    while (ev := queue.pop()) is not None:
        head = (ev.time, ev.priority, ev.kind)
        if ev.kind == KIND_DISCOVER and ev.e is not None:
            wave = WaveRows(ev.a, ev.b)
            assert ev.e == len(wave)
            out.extend((*head, *row, None) for row in wave)
        elif ev.kind == KIND_TICK_BURST:
            assert ev.e == len(ev.a) and ev.c is None
            tick = (ev.time, ev.priority, KIND_TIMER)
            out.extend((*tick, ("node", i), "tick", None, ev.d, 0) for i in ev.a)
        elif ev.kind == KIND_TIMER and type(ev.a) is int:
            out.append((*head, ("node", ev.a), ev.b, ev.c, ev.d, ev.e))
        else:
            out.append((*head, _slot(ev.a), _slot(ev.b), _slot(ev.c), ev.d, ev.e))
    return out


def _wiring(exp):
    graph = exp.graph
    edges = list(graph.edges())
    return {
        "edges": edges,
        "history": [graph.history(u, v) for u, v in edges],
        "events": graph.event_history(),
        "edge_events": graph.edge_events,
        "stats": exp.transport.stats.as_dict(),
        "timers": {  # a tick is in the queue, whoever holds its record
            i: sorted(repr(k) for k in n._timers if k != "tick")
            for i, n in exp.nodes.items()
        },
        "h_last": [n.core.h_last for n in exp.node_list],
        "pushes": len(exp.sim.queue),
        "queue": _drain(exp),
    }


def _assert_same_wiring(build, *, wave):
    bulk, ref = _wiring(build()), _wiring(_reference(build))
    # The wave is one record where the reference pushed one per endpoint.
    assert (bulk.pop("pushes") < ref.pop("pushes")) == wave
    assert bulk == ref


@settings(max_examples=25, deadline=None)
@given(
    cfg=experiment_configs(4, 12, horizon=30.0, adversarial=True),
    discovery=st.sampled_from(("uniform", "max", "zero")),
    stagger=st.booleans(),
)
def test_property_bulk_wiring_equals_per_record_wiring(cfg, discovery, stagger):
    cfg = replace(cfg, discovery_spec=discovery, stagger_ticks=stagger)
    _assert_same_wiring(lambda: Experiment(replace(cfg)), wave=discovery != "uniform")


def test_staggered_uniform_discovery_draws_per_record_in_the_same_order():
    cfg = configs.huge_ring(48, horizon=10.0)
    assert cfg.stagger_ticks and cfg.discovery_spec == "uniform"
    _assert_same_wiring(lambda: Experiment(replace(cfg)), wave=False)


def test_shard_construction_keeps_its_keyed_records():
    """A shard announces per record under any policy: every discovery is
    its own ``(0.0, -1, k)`` key, burned where the endpoint is remote."""
    cfg = configs.huge_sync_ring(16, horizon=6.0)
    build = lambda: par._shard_experiment(cfg, 0, 8, frozenset({0, 7}))
    _assert_same_wiring(build, wave=False)
    keys = [ev.seq for ev in build().sim.queue.live_events() if ev.kind == KIND_DISCOVER]
    assert len(keys) == 16 and all(key[:2] == (0.0, -1) for key in keys)
    assert {key[2] for key in keys} < set(range(32))  # 16 of 32 counters burned


def test_wave_dispatch_counts_every_discovery():
    """One wave record, ``2|E_0|`` dispatched discoveries -- on the table
    and on the ``handle()`` reference alike."""
    for batch in (True, False):
        exp = Experiment(configs.huge_sync_grid(4, 4, horizon=3.0))
        exp.sim.batch = batch
        exp.sim.kind_counts = [0] * N_KINDS
        res = exp.run()
        assert exp.sim.kind_counts[KIND_DISCOVER] == 2 * 24
        assert res.transport_stats["discoveries_delivered"] == 2 * 24
        assert (res.array_events > 0) == batch


def test_the_per_endpoint_announcement_walks_each_nodes_set():
    """The one E_0 reader whose order is observable: a random discovery
    latency is drawn per endpoint in ``_announce_each``'s order, node by
    node over each one's adjacency set.  Pinned by the paper's mobile
    ad-hoc network row for DCSA (``benchmarks/paper``, n = 16, seed 3):
    walking the edges in sorted order instead moves its global skew."""
    cfg = configs.mobile_network(16, horizon=200.0, seed=3, algorithm="dcsa")
    assert cfg.discovery_spec == "uniform"
    assert run_experiment(cfg).max_global_skew == 0.1912517219182419


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (0, 1)],
        [(0, 1), (1, 0)],
        [(0, 1), (2, 2)],
        [(0, 1), (0, 9)],
        [(9, 0)],
    ],
    ids=["duplicate", "duplicate_reversed", "self_loop", "unknown_v", "unknown_u"],
)
def test_bad_initial_edge_raises_what_add_edge_raises(edges):
    with pytest.raises(GraphError) as per_record:
        _per_record_graph(range(4), edges)
    with pytest.raises(GraphError) as bulk:
        DynamicGraph(range(4), edges)
    assert str(bulk.value) == str(per_record.value)


class TestParamsComputedOnce:
    def test_derived_values_are_the_formulas_before_and_after_validate(self):
        p = SystemParams(n=16, rho=0.02, max_delay=1.5, discovery_bound=3.0, b0=40.0)
        q = SystemParams(n=16, rho=0.02, max_delay=1.5, discovery_bound=3.0, b0=40.0)
        q.validate()
        delta_t = 1.5 + 0.5 / (1.0 - 0.02)
        tau = (1.0 + 0.02) / (1.0 - 0.02) * delta_t + 1.5 + 3.0
        g = ((1.0 + 0.02) * 1.5 + 2.0 * 0.02 * 3.0) * 15
        for params in (p, q, p):  # the third pass reads the cached values
            assert params.delta_t == delta_t
            assert params.delta_t_prime == (1.0 + 0.02) * delta_t
            assert params.tau == tau
            assert params.global_skew_bound == g
            assert params.b_intercept == 5.0 * g + (1.0 + 0.02) * tau + 40.0
            assert params.b_slope == 40.0 / ((1.0 + 0.02) * tau)

    def test_equality_hash_replace_and_pickle_ignore_the_cache(self):
        cold = SystemParams.for_network(16)
        warm = SystemParams.for_network(16)
        blob = pickle.dumps(warm)
        warm.validate()
        assert warm.describe()["b_intercept"] > 0.0  # every derived value read
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert pickle.dumps(warm) == blob
        assert pickle.loads(blob) == warm
        assert {f.name for f in fields(warm)} == set(pickle.loads(blob).__dict__)
        # A copy derives from its own fields, never from the original's cache.
        wider = replace(warm, n=32)
        assert wider.global_skew_bound == warm.global_skew_rate * 31
        assert wider.b_intercept > warm.b_intercept

    def test_a_failed_validation_is_not_remembered_as_passed(self):
        bad = SystemParams(n=8, b0=0.1)
        for _ in range(2):
            with pytest.raises(ParameterError, match="b0 must exceed"):
                bad.validate()
        good = SystemParams.for_network(8)
        assert good.validate() is None and good.validate() is None


class TestCollectorState:
    """``Experiment(cfg)`` and ``run()`` pause the collector and put it
    back as found; ``run()`` forces no collection."""

    CFG = staticmethod(lambda: configs.huge_sync_ring(64, horizon=3.0))

    @pytest.fixture(autouse=True)
    def _process_globals_untouched(self):
        before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
        yield
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before

    def test_enabled_stays_enabled_and_paused_inside(self, monkeypatch):
        seen = []
        wire = Experiment._wire
        monkeypatch.setattr(
            Experiment, "_wire",
            lambda self, cfg, shard: (seen.append(gc.isenabled()), wire(self, cfg, shard)),
        )
        assert gc.isenabled()
        exp = Experiment(self.CFG())
        assert gc.isenabled() and seen == [False] and exp.setup_s > 0.0

    def test_disabled_stays_disabled(self):
        gc.disable()
        try:
            Experiment(self.CFG())
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "broken,error",
        [
            (lambda cfg: replace(cfg, algorithm="nope"), ValueError),
            (lambda cfg: replace(cfg, initial_edges=[(0, 1), (0, 1)]), GraphError),
        ],
        ids=["unknown_algorithm", "duplicate_initial_edge"],
    )
    def test_a_failed_wiring_restores_it(self, broken, error):
        with pytest.raises(error):
            Experiment(broken(self.CFG()))
        assert gc.isenabled()

    def test_run_pauses_and_restores_an_enabled_collector(self, monkeypatch):
        exp = Experiment(self.CFG())
        seen = []
        run_until = Simulator.run_until
        monkeypatch.setattr(
            Simulator, "run_until",
            lambda sim, t: (seen.append(gc.isenabled()), run_until(sim, t)),
        )
        exp.run()
        assert gc.isenabled() and seen == [False]

    def test_run_leaves_a_disabled_collector_disabled(self):
        exp = Experiment(self.CFG())
        gc.disable()
        try:
            exp.run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_failed_run_restores_it(self):
        exp = Experiment(self.CFG())
        exp.sim.max_events = 10
        with pytest.raises(SimulationError, match="max_events"):
            exp.run()
        assert gc.isenabled()

    @staticmethod
    def _spy(monkeypatch, seen, owner, name, fail=False):
        original = getattr(owner, name)

        def spy(*args):
            seen.append((name, gc.isenabled()))
            if fail:
                raise RuntimeError(name)
            return original(*args)

        monkeypatch.setattr(owner, name, spy)

    def test_packaging_runs_paused(self, monkeypatch):
        """Finishing the trace and building the record happen before the
        collector comes back."""
        seen = []
        self._spy(monkeypatch, seen, Transport, "finalize_tracing")
        self._spy(monkeypatch, seen, SkewRecorder, "result")
        with trace_session():
            exp = Experiment(replace(self.CFG(), record=True))
            exp.run()
        assert gc.isenabled()
        assert seen == [("finalize_tracing", False), ("result", False)]

    def test_a_failed_packaging_restores_it(self, monkeypatch):
        seen = []
        self._spy(monkeypatch, seen, SkewRecorder, "result", fail=True)
        exp = Experiment(replace(self.CFG(), record=True))
        with pytest.raises(RuntimeError, match="result"):
            exp.run()
        assert gc.isenabled() and seen == [("result", False)]

    def test_run_forces_no_collection(self, monkeypatch):
        """A full collection re-walks the whole heap for a finished run's
        few cycles; the generational collector is left to reclaim them."""
        exp = Experiment(self.CFG())

        def collect(*_):
            raise AssertionError("run() forced a collection")

        monkeypatch.setattr(gc, "collect", collect)
        exp.run()
        assert gc.isenabled()

    def test_wiring_strands_no_garbage(self):
        """A paused collector must have nothing to find afterwards."""
        gc.collect()
        exp = Experiment(configs.static_ring(8, horizon=5.0))  # recorder + edges
        big = Experiment(self.CFG())
        assert gc.collect() == 0
        del exp, big



def _masked_beta(n=512):
    """The Lemma 4.2 beta execution on a path, one clock object per node
    (:func:`~repro.lowerbound.masked_experiment`), as a run to start: set-up
    has built its clocks and delay policy before the count, and the
    adjacency sets its per-message sends read (built on first read)."""
    params = SystemParams.for_network(n, rho=0.05)
    mask = DelayMask({}, params.max_delay)
    exp = masked_experiment(path_edges(n), mask, params, "dcsa", 30.0)
    for u in exp.graph.nodes:
        exp.graph.neighbors(u)
    return exp.run


class TestObjectsPerNode:
    """What a run leaves the collector to walk: at most 0.25 GC-tracked
    objects per node on the lockstep populations, set-up included.  A
    column population builds no driver, core, clock or timer dict for a
    node nothing touched, its ticks are one group record, and its graph is
    E_0's columns: no node's adjacency set is built, by set-up or by the
    run.  A population on clock objects is columns too: its rows are
    seated from the clocks."""

    @pytest.mark.parametrize(
        "make, bound",
        [
            (lambda: partial(run_experiment, configs.huge_sync_ring(4096)), 0.25),
            (lambda: partial(run_experiment, configs.huge_sync_grid(64, 64)), 0.25),
            # Not lockstep: every message in flight at the horizon is its
            # own record and payload, every tick its own record (the run
            # alone: set-up is not counted).
            (_masked_beta, 8.0),
        ],
        ids=["huge_sync_ring", "huge_sync_grid", "masked_experiment"],
    )
    def test_a_run_leaves_at_most_1_5_tracked_objects_per_node(self, make, bound):
        run = make()
        gc.collect()
        before = gc.get_objects()  # held: no id is reused while we count
        known = set(map(id, before))
        result = run()
        cfg = result.config
        gc.collect()
        left = [o for o in gc.get_objects() if id(o) not in known]
        assert len(left) <= bound * cfg.params.n, len(left) / cfg.params.n
        per_node = (ClockSyncNode, ProtocolCore, HardwareClock)
        assert not any(isinstance(o, per_node) for o in left)
        assert result.batch_gate_reason is None and result.array_events > 0
        assert result.materialised_nodes == 0
        if bound < 1.0:  # lockstep: the bulk sends read the table's slots
            assert not result.graph._adj
        # Read every node the way the benchmark's digest does.
        h = cfg.horizon
        reads = [
            (node.logical_clock(h), node.max_estimate(h), node.messages_sent, node.jumps)
            for node in map(result.nodes.__getitem__, sorted(result.nodes))
        ]
        assert len(reads) == cfg.params.n and result.total_jumps() >= 0
        gc.collect()
        left = [o for o in gc.get_objects() if id(o) not in known]
        assert not any(isinstance(o, per_node) for o in left)


# --------------------------------------------------------------------- #
# Clocks and staggers drawn as columns
# --------------------------------------------------------------------- #


def _per_node_clock(spec, i, params, rng, horizon):
    """Node ``i``'s clock as the per-node wiring drew it: one call per node,
    in id order, off the shared ``clocks`` stream."""
    rho = params.rho
    if spec == "perfect":
        return ConstantRateClock(1.0)
    if spec == "split":
        return ConstantRateClock(1.0 + rho if i < params.n // 2 else 1.0 - rho)
    if spec == "alternating":
        return ConstantRateClock(1.0 + rho if i % 2 == 0 else 1.0 - rho)
    if spec == "uniform":
        return ConstantRateClock(1.0 + rho * float(rng.uniform(-1.0, 1.0)))
    assert spec == "random_walk"
    segment = max(horizon / 20.0, 4.0 * params.tick_interval)
    k = max(1, math.ceil(horizon / segment))
    rates = []
    x = float(rng.uniform(-1.0, 1.0))
    for _ in range(k):
        x = 0.7 * x + (1.0 - 0.7) * float(rng.uniform(-1.0, 1.0))
        x = min(1.0, max(-1.0, x))
        rates.append(1.0 + rho * x)
    return PiecewiseRateClock([j * segment for j in range(k)], rates)


def _hexes(clock):
    if isinstance(clock, ConstantRateClock):
        return [clock.rate.hex()]
    return [r.hex() for r in clock._rates] + [t.hex() for t in clock._times]


@pytest.mark.parametrize("stagger", [True, False], ids=["staggered", "lockstep"])
@pytest.mark.parametrize("spec", ["perfect", "split", "alternating", "uniform", "random_walk"])
def test_draws_as_columns_equal_draws_per_node(spec, stagger):
    """Rates or segments, staggers and first deadlines are, bit for bit,
    what one draw per node gives, and both streams end where it leaves
    them.  (A population of one has no ``SystemParams``, so no experiment:
    its draws are compared, not its deadline.)"""
    horizon = 30.0
    for n in (1, 7, 4096):
        params = SystemParams(n=1) if n == 1 else SystemParams.for_network(n)
        for seed in (0, 1, 7):
            cfg = ExperimentConfig(
                params=params, initial_edges=[], clock_spec=spec,
                stagger_ticks=stagger, horizon=horizon, seed=seed,
            )
            # The streams an experiment draws from: the third and fourth.
            (_, _, clock_rng, stagger_rng), (_, _, ref_clock_rng, ref_stagger_rng) = (
                [rngf.spawn() for _ in range(4)] for rngf in map(RngFactory, (seed, seed))
            )
            rates, clocks = ClockRef(spec)(params, clock_rng, horizon)
            staggers = runner._draw_staggers(DCSACore, cfg, stagger_rng)
            first = {}
            if n > 1:
                exp = Experiment(cfg)
                assert isinstance(exp.nodes, Population) and exp.nodes.materialised == 0
                first = {
                    ev.a: ev.time for ev in exp.sim.queue.live_events() if ev.b == "tick"
                }
            for i in range(n):
                ref = _per_node_clock(spec, i, params, ref_clock_rng, horizon)
                mine = clocks[i] or ConstantRateClock(rates[i])
                assert _hexes(mine) == _hexes(ref), (n, seed, i)
                offset = (
                    float(ref_stagger_rng.uniform(0.0, params.tick_interval))
                    if stagger else 0.0
                )
                assert staggers[i].hex() == offset.hex()
                deadline = ref.time_at(ref.value(0.0) + offset)
                assert first.get(i, deadline).hex() == deadline.hex(), (n, seed, i)
            assert clock_rng.bit_generator.state == ref_clock_rng.bit_generator.state
            assert stagger_rng.bit_generator.state == ref_stagger_rng.bit_generator.state


def test_a_drift_outside_rho_raises_validate_drifts_message():
    rates = np.array([1.0, 1.05, 1.25, 0.5])
    with pytest.raises(ValueError) as column:
        validate_drift_columns(rates, rates, 0.1)
    assert str(column.value) == (
        "node 2: clock rates [1.25, 1.25] violate the drift bound "
        "[1-rho, 1+rho] = [0.9, 1.1]"
    )
