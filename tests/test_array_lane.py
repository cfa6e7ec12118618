"""The store behind the batch table: its slot columns and its view
contract -- what a reader of a table-covered node sees: the run as it
stands, mid-run, in plain Python floats.

The hand-over rules between the array and the scalar lane and the E_0
wave lane are rows of ``test_kernel_parity.CASES``, each checked there
against the ``handle()`` reference; the tests below keep the names this
file gave those cases.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from kernel_parity import (
    CHURN_SCRIPT,
    churned_sync_ring,
    far_ahead,
    gamma_upsilon,
    parents,
    run,
)
from test_kernel_parity import holds, parity_configs

from repro.core import batch as batch_mod
from repro.core.batch import NodeArrayTable
from repro.core.protocol import DCSACore
from repro.harness import configs
from repro.harness.runner import Experiment, run_experiment
from repro.network import transport as transport_mod
from repro.network.transport import Transport
from repro.sim import par
from repro.sim import simulator as simulator_mod
from repro.sim.events import KIND_TICK_BURST, KIND_TIMER
from repro.tracing import trace_session


def test_slot_columns_grow_without_moving_a_slot(monkeypatch):
    """Growth reallocates the columns; slots, and what they hold, stay.
    Every pair holds two slots, each the other's ``mate``."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(configs.huge_sync_ring(8, horizon=6.0))
    exp.sim.run_until(3.0)
    table = exp.transport.plan.table
    before = {v: dict(table.row(v)) for v in exp.nodes}
    gamma = {i: gamma_upsilon(exp, i)[0] for i in exp.nodes}
    size = len(table.l_est)
    pairs = [(v, u) for v in range(8) for u in range(8) if u != v]
    fresh = [table.slot(v, u) for v, u in pairs]  # forces a doubling
    assert len(table.l_est) > size and len(set(fresh)) == len(fresh)
    assert all(table.mate[table.slot(v, u)] == table.slot(u, v) for v, u in pairs)
    assert [table.peer[s] for s in fresh] == [u for _, u in pairs]
    assert [bool(table.live[s]) for s in fresh] == [
        exp.graph.has_edge(v, u) for v, u in pairs
    ]
    assert all(table.row(v)[u] == s for v, row in before.items() for u, s in row.items())
    assert {i: gamma_upsilon(exp, i)[0] for i in exp.nodes} == gamma
    exp.sim.run_until(6.0)  # and the run goes on, on the new columns
    assert table.l_est[table.row(0)[1]] > 3.0


# --------------------------------------------------------------------- #
# Rows built on first touch
# --------------------------------------------------------------------- #


def _store(build, *, lane_min, eager, until=None):
    """Build and run an experiment (to ``until``, default its horizon) at
    lane constant ``lane_min``; ``eager`` builds every row's slot dict
    right after ``kernel_plan``.  Returns every row's items in insertion
    order, every covered core's Gamma in iteration order, the used slot
    columns, the node columns, the transport's tallies and the table's
    class, and which rows the run itself built."""
    plan_of = transport_mod.kernel_plan

    def eager_plan(*args):
        plan = plan_of(*args)
        if plan.table is not None:
            for v in range(len(plan.table.slotmap)):
                plan.table.row(v)
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_mod, "BATCH_DEFAULT", True)
        mp.setattr(batch_mod, "ARRAY_LANE_MIN", lane_min)
        if eager:
            mp.setattr(transport_mod, "kernel_plan", eager_plan)
        exp = build()
        exp.sim.run_until(exp.cfg.horizon if until is None else until)
    table = exp.transport.plan.table
    if table is None:
        return None
    built = [v for v, row in enumerate(table.slotmap) if row is not None]
    return {
        "rows": [list(table.row(v).items()) for v in range(len(table.slotmap))],
        "gamma": {
            i: [(u, table.l_est[s], table.added_h[s])
                for u, s in table.row(i).items() if table.l_est[s] != float("inf")]
            for i in exp.nodes
        },
        "columns": {
            name: getattr(table, name)[: table.n_slots].tobytes()
            for name in batch_mod._SLOT_COLUMNS
        },
        "nodes": [getattr(table, name).tobytes() for name in batch_mod._NODE_COLUMNS],
        "transport": exp.transport.stats.as_dict(),
        "table": type(table),
    }, built


def _lazy_equals_eager(build, lane_min, until=None):
    lazy, built = _store(build, lane_min=lane_min, eager=False, until=until) or ({}, [])
    eager, _ = _store(build, lane_min=lane_min, eager=True, until=until) or ({}, [])
    assert lazy == eager
    return built, lazy


@settings(max_examples=25, deadline=None)
@given(cfg=parity_configs())
def _drawn_rows(lane_min, cfg):
    _lazy_equals_eager(lambda: Experiment(cfg), lane_min)


@pytest.mark.parametrize("lane_min", [batch_mod.ARRAY_LANE_MIN, 1], ids=["default_lane", "lane_1"])
def test_a_lazily_built_row_equals_the_eagerly_built_one(lane_min):
    """Whatever the config, flips included, and whichever lane runs: a
    row built on first touch holds what one built with the table holds
    -- keys, slot ids and insertion order -- and so do Gamma, the slot
    and node columns and the transport's tallies."""
    _drawn_rows(lane_min)


def test_a_lockstep_run_builds_no_row_and_a_shard_rows_agree():
    """The lockstep grid runs on the array lane without building a row; a
    churned lockstep ring and a shard range (``ParNodeArrayTable``) build
    some of theirs, each equal to the one built with the table."""
    grid = configs.huge_sync_grid(12, 12, horizon=6.0)
    built, store = _lazy_equals_eager(lambda: Experiment(grid), 64)
    assert built == []
    # The numpy seed gives each row what a loop over the sorted
    # neighbour sets, row by row, gives it (the topology is static).
    graph, seeded = Experiment(grid).graph, 0
    for v, row in enumerate(store["rows"]):
        peers = sorted(graph.neighbors(v))
        assert row == list(zip(peers, range(seeded, seeded + len(peers))))
        seeded += len(peers)
    assert len(store["rows"]) == 144
    # Flips on the lockstep ring build the rows they touch, and only those.
    built, store = _lazy_equals_eager(lambda: Experiment(churned_sync_ring()), 1)
    assert 0 < len(built) < len(store["rows"]) == 48
    cfg = configs.huge_sync_ring(16, horizon=6.0)
    shard = lambda: par._shard_experiment(cfg, 0, 8, frozenset({0, 7}))
    built, store = _lazy_equals_eager(shard, 1, until=6.0)
    assert store["table"] is par.ParNodeArrayTable and len(store["rows"]) == 16
    assert built and set(built) != set(range(16))


# --------------------------------------------------------------------- #
# The view contract
# --------------------------------------------------------------------- #


def _observe(exp, log):
    """What a mid-run reader can ask of every node, at ``sim.now``."""
    row = [exp.sim.now]
    for i in sorted(exp.nodes):
        node = exp.nodes[i]
        core = node.core
        row.append(
            (
                node.logical_clock(), node.max_estimate(), core.h_last,
                core.messages_sent, core.jumps, core.total_jump, gamma_upsilon(exp, i),
            )
        )
    log.append(row)


def _mid_run_reads(cfg, batch, monkeypatch):
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
    exp = Experiment(cfg)
    log = []
    exp.sim.every(0.7, lambda _t: _observe(exp, log), end=cfg.horizon)
    res = exp.run()
    return exp, res, log


def _plain_floats(value):
    """No numpy scalar anywhere in ``value`` (``repr`` would print
    ``np.float64(...)`` and every digest would move); a Gamma row's
    ``repr`` strings are equal to the reference's only if they are plain."""
    if isinstance(value, (list, tuple)):
        return all(_plain_floats(x) for x in value)
    return type(value) in (float, int, bool, str, type(None))


@pytest.mark.parametrize(
    "make",
    [
        lambda: configs.huge_sync_ring(64, horizon=10.0),
        lambda: churned_sync_ring(CHURN_SCRIPT, n=48, horizon=20.0),
        lambda: configs.huge_ring(32, horizon=10.0),
    ],
    ids=["lockstep", "churned", "drifting"],
)
def test_mid_run_reads_show_what_the_reference_shows(make, monkeypatch):
    """A ``sim.every`` callback reads the clocks, tallies, Gamma rows and
    Upsilon of every node every 0.7: same values, both kernels."""
    exp_s, res_s, log_s = _mid_run_reads(make(), False, monkeypatch)
    exp_b, res_b, log_b = _mid_run_reads(make(), True, monkeypatch)
    assert res_b.array_events > 0 and res_s.array_events == 0
    assert len(log_b) > 10 and log_b == log_s
    assert _plain_floats(log_b)
    assert any(gamma for row in log_b for *_, (gamma, _ups) in row[1:])


def test_result_nodes_stay_readable_after_the_experiment_is_dropped():
    cfg = configs.huge_sync_ring(64, horizon=6.0)
    res = run_experiment(cfg)  # the Experiment is gone; the views hold the store
    assert res.array_lane_events > 0
    node = res.nodes[7]
    assert type(node.logical_clock(cfg.horizon)) is float
    assert type(node.max_estimate(cfg.horizon)) is float
    assert node.logical_clock(cfg.horizon) <= node.max_estimate(cfg.horizon)
    assert node.messages_sent > 0 and type(node.core.h_last) is float


def test_a_covered_core_keeps_no_copy_of_its_row(monkeypatch):
    """One store: a column population's core is born a view of its row --
    the instance holds neither ``L``, ``Lmax``, ``h_last``, the tallies nor
    a Gamma row -- and writes through the view land in the columns."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(configs.huge_sync_ring(64, horizon=6.0))
    core = exp.nodes[3].core
    assert type(core) is not DCSACore and isinstance(core, DCSACore)
    exp.sim.run_until(3.0)
    table = exp.transport.plan.table
    assert exp.nodes[3].core is core and table is exp.nodes.store
    assert not {
        "_L", "_Lmax", "h_last", "messages_sent", "jumps", "total_jump", "gamma",
        "upsilon",
    } & set(vars(core))
    assert core._L == table.L[3] and core.h_last == table.h_last[3] > 0.0
    core.force_raise_max(core._Lmax + 5.0)
    assert table.Lmax[3] == core._Lmax and type(core._Lmax) is float
    with pytest.raises(RuntimeError, match="effect log"):
        exp.nodes[3].effect_log = []


def test_payloads_and_span_rows_carry_plain_floats(monkeypatch):
    """What reaches a delay policy, the scalar lane or the span table is a
    Python float, whichever lane produced it."""
    seen = []
    send, scalar = Transport.send_many, NodeArrayTable.deliver_one

    def spying_send(self, u, vs, payload):
        seen.append(payload)
        send(self, u, vs, payload)

    def spying_scalar(self, u, v, payload, sid):
        seen.append(payload)
        scalar(self, u, v, payload, sid)

    monkeypatch.setattr(Transport, "send_many", spying_send)
    monkeypatch.setattr(NodeArrayTable, "deliver_one", spying_scalar)
    with trace_session():
        res = run(configs.huge_sync_ring(64, horizon=30.0), batch=True, hook=far_ahead).res
    assert res.array_lane_events > 0 and res.blocked_rows > 0 and seen
    assert all(type(x) is float for payload in seen for x in payload)
    spans = res.spans
    assert len(spans) > 1000 and spans.dropped == 0
    ints = spans.kind + spans.node + spans.peer + parents(spans) + spans.status
    floats = spans.t0 + spans.t1 + spans.detail
    assert {type(x) for x in ints} == {int} and {type(x) for x in floats} == {float}


# --------------------------------------------------------------------- #
# The cases checked as rows of test_kernel_parity.CASES
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "rule", ["blocked", "segment_end", "twice", "dropped_in_flight", "grown_slots", "static"]
)
def test_lanes_meet_inside_one_batch(rule):
    holds(f"lane_{rule}")


@pytest.mark.parametrize("wave", ["clean", "blocked", "reversed", "traced"])
def test_the_e0_wave_lane(wave):
    """The traced wave is the clean row's observed run (a claim of its own)."""
    holds("wave_clean" if wave == "traced" else f"wave_{wave}")


def test_greedy_adversary_reads_the_same_clocks_on_both_kernels():
    holds("greedy_topology")


def test_long_rows_advance_in_one_numpy_pass():
    holds("long_rows")


def test_property_churned_tick_groups_on_the_array_lane():
    """The hand-picked flip script, and drawn ones at the lane constant 1."""
    holds("lane_churned_tick_groups")
    holds("any_config[lane_1]")


def test_a_no_op_discovery_keeps_every_send_plan():
    holds("lane_no_op_discovery")


# --------------------------------------------------------------------- #
# Tick runs regroup by deadline; a run imports nothing
# --------------------------------------------------------------------- #


def test_a_tick_run_regroups_by_next_deadline():
    """The first timer run of a two-rate lockstep ring leaves one group
    record per rate class's next deadline, and no record per driver."""
    seen = []

    def first_timer_run(exp):
        exp.sim.run_until(0.0)
        seen.extend(
            (ev.kind, ev.b)
            for ev in exp.sim.queue.live_events()
            if ev.kind in (KIND_TIMER, KIND_TICK_BURST)
        )

    cfg = configs.huge_sync_ring(128, horizon=0.5)
    run(cfg, batch=False, hook=first_timer_run)
    assert len(seen) == 128 and set(seen) == {(KIND_TIMER, "tick")}
    seen.clear()
    run(cfg, batch=True, hook=first_timer_run)
    assert seen == [(KIND_TICK_BURST, None)] * 2


def test_a_run_imports_nothing():
    """Nothing a run calls imports a module (numpy's first ``np.unique``
    imports ``numpy.ma``: 13 ms inside the first lockstep run)."""
    code = (
        "import sys\n"
        "from repro.harness import configs\n"
        "from repro.harness.runner import Experiment\n"
        "exp = Experiment(configs.huge_sync_ring(256))\n"
        "before = set(sys.modules)\n"
        "exp.run()\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(batch_mod.__file__).parents[2])}
    env.pop("REPRO_BATCH", None)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
