"""Set-up is one pass, and leaves what the per-record wiring leaves.

``Experiment.__init__`` fills E_0 in one loop, announces it as one wave
record under a constant discovery latency, arms the first ticks without a
``Start`` dispatch and pauses the cyclic collector while it wires.  The
reference these tests compare against is the wiring it replaced, still in
the tree: ``add_edge`` per initial edge, ``_schedule_discovery`` per
endpoint (``Transport._announce_each``) and ``Start`` through ``handle()``
per node.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import WaveRows
from repro.core.node import ClockSyncNode
from repro.core.protocol import Start
from repro.harness import configs, runner
from repro.harness.runner import Experiment, run_experiment
from repro.network.graph import DynamicGraph, GraphError
from repro.network.transport import Transport
from repro.params import ParameterError, SystemParams
from repro.sim import par
from repro.sim.events import KIND_DISCOVER, N_KINDS
from repro.testing.strategies import experiment_configs


def _per_record_graph(nodes, initial_edges=()):
    graph = DynamicGraph(nodes)
    for u, v in initial_edges:
        graph.add_edge(u, v, 0.0)
    return graph


def _reference(build):
    """``build()`` with every bulk path swapped for its per-record form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "DynamicGraph", _per_record_graph)
        mp.setattr(Transport, "announce_initial_edges", Transport._announce_each)
        mp.setattr(ClockSyncNode, "start", lambda self: self._dispatch(Start()))
        return build()


def _slot(value):
    """A payload slot with per-experiment objects named, not compared."""
    if isinstance(value, ClockSyncNode):
        return ("node", value.node_id)
    return "graph" if isinstance(value, DynamicGraph) else value


def _drain(exp):
    """The pending queue in dispatch order, a wave expanded into the
    records it stands for."""
    out = []
    queue = exp.sim.queue
    while (ev := queue.pop()) is not None:
        head = (ev.time, ev.priority, ev.kind)
        if ev.kind == KIND_DISCOVER and ev.e is not None:
            wave = WaveRows(ev.a, ev.b)
            assert ev.e == len(wave)
            out.extend((*head, *row, None) for row in wave)
        else:
            out.append((*head, _slot(ev.a), _slot(ev.b), _slot(ev.c), ev.d, ev.e))
    return out


def _wiring(exp):
    graph = exp.graph
    edges = list(graph.edges())
    return {
        "edges": edges,
        "history": [graph.history(u, v) for u, v in edges],
        "hist_order": list(graph._hist_t),
        "edge_events": graph.edge_events,
        "stats": exp.transport.stats.as_dict(),
        "timers": {i: sorted(map(repr, n._timers)) for i, n in exp.nodes.items()},
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
    """``Experiment(cfg)`` pauses the collector and puts it back as found."""

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

    def test_wiring_strands_no_garbage(self):
        """A paused collector must have nothing to find afterwards."""
        gc.collect()
        exp = Experiment(configs.static_ring(8, horizon=5.0))  # recorder + edges
        big = Experiment(self.CFG())
        assert gc.collect() == 0
        del exp, big



class TestObjectsPerNode:
    """What a run leaves the collector to walk: at most 7.5 GC-tracked
    objects per node on the lockstep populations.  E_0's edges share one
    history until they change and a driver binds no push method; what is
    left is each node's driver, core, core dict, clock, timer dict, tick
    record and adjacency set."""

    @pytest.mark.parametrize(
        "make",
        [lambda: configs.huge_sync_ring(4096), lambda: configs.huge_sync_grid(64, 64)],
        ids=["huge_sync_ring", "huge_sync_grid"],
    )
    def test_a_run_leaves_at_most_7_5_tracked_objects_per_node(self, make):
        cfg = make()
        gc.collect()
        before = gc.get_objects()  # held: no id is reused while we count
        known = set(map(id, before))
        result = run_experiment(cfg)
        gc.collect()
        left = sum(id(o) not in known for o in gc.get_objects())
        assert left <= 7.5 * cfg.params.n, left / cfg.params.n
        del result, before