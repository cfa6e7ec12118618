"""The array lane of the batch table, and the view contract of its store.

``test_batch_kernel.py`` pins the table against the ``handle()``
reference on every shape of workload, and its any-config property runs a
second time with the lane constant at 1.  This file names the cases where
the two lanes meet inside one batch -- each hand-over rule of
``repro.core.batch`` -- and what a reader of a table-covered node sees:
the run as it stands, mid-run, in plain Python floats.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_kernel import (
    CHURN_SCRIPT,
    _churned_sync_ring,
    _far_ahead,
    _fingerprint,
    _run,
)

from repro.adversary.topology import GreedyTopologyAdversary
from repro.core import batch as batch_mod
from repro.core.batch import NodeArrayTable
from repro.core.estimates import SlotSet
from repro.core.protocol import DCSACore, StaticGradientCore
from repro.harness import configs
from repro.harness.registry import ChurnRef
from repro.harness.runner import Experiment, run_experiment
from repro.network.transport import Transport
from repro.sim import simulator as simulator_mod
from repro.sim.clocks import ConstantRateClock, two_phase_clock
from repro.sim.events import KIND_TICK_BURST, KIND_TIMER, PRIORITY_TOPOLOGY
from repro.tracing import trace_session

# --------------------------------------------------------------------- #
# The hand-over rules, each inside a lockstep burst
# --------------------------------------------------------------------- #


def _spy_array_lane(monkeypatch):
    """Record ``(messages, left to the scalar lane, list-borne)`` per
    ``NodeArrayTable._deliver_array`` call."""
    calls = []
    original = NodeArrayTable._deliver_array

    def spy(self, us, vs, payloads):
        rest = original(self, us, vs, payloads)
        calls.append((len(us), len(rest), type(payloads) is list))
        return rest

    monkeypatch.setattr(NodeArrayTable, "_deliver_array", spy)
    return calls


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


#: ``(id, config factory, post-build hook, lane constant, check)``: each is
#: compared with the reference on the full fingerprint (``lost`` fire times
#: included); ``check(exp, res, array calls)`` then confirms the case is
#: what its comment claims.
LANE_CASES = [
    # PR 20's blocked ring (node 0 starts 3000 ahead, the rest chase it):
    # array-lane and scalar-lane destinations inside one burst.
    (
        "blocked",
        lambda: configs.huge_sync_ring(128, horizon=30.0),
        _far_ahead,
        None,
        lambda exp, res, calls: (
            res.blocked_rows > 0
            and any(0 < left < m for m, left, _ in calls)
            and res.total_jumps() > 0
        ),
    ),
    # A piecewise clock whose segment ends between two bursts: the row is
    # re-seated by the scalar lane, its neighbours stay on the array lane.
    (
        "segment_end",
        lambda: replace(
            configs.huge_sync_ring(64, horizon=12.0), clock_spec=_switching_5
        ),
        None,
        None,
        lambda exp, res, calls: (
            any(0 < left < m for m, left, _ in calls) and res.blocked_rows == 0
        ),
    ),
    # The same (u, v) twice in one run of individual records (the delay
    # script rules bulk sends out; the lane constant admits small runs):
    # every pair at 2.5, greeting and first tick together, then 1 -> 0
    # alone at 3.0 -- node 0 keeps its three messages, the rest merge.
    (
        "twice",
        lambda: replace(
            configs.huge_sync_ring(8, horizon=8.0),
            clock_spec="perfect",
            delay_spec=lambda params, rng: _Twice(),
        ),
        None,
        1,
        lambda exp, res, calls: calls[:2] == [(30, 30, True), (17, 3, True)],
    ),
    # Edges removed with bursts in flight: the drop rule per constituent,
    # the survivors -- a plain list by then -- on the array lane.
    (
        "dropped_in_flight",
        lambda: _churned_sync_ring(CHURN_SCRIPT, n=128, horizon=40.0),
        None,
        None,
        lambda exp, res, calls: (
            res.transport_stats["dropped_removed"] > 0
            and sum(listed and left < m for m, left, listed in calls) > 3
        ),
    ),
    # Unscripted churn: pairs the store has never seen take fresh slots
    # mid-run (and the columns grow past what the run started with).
    (
        "grown_slots",
        _rewired,
        None,
        None,
        lambda exp, res, calls: (
            exp.transport.plan.table.n_slots > 2 * 128
            and res.array_lane_events > res.scalar_lane_events
        ),
    ),
    # StaticGradientCore is a coefficient row of the same columns.
    (
        "static",
        lambda: configs.huge_sync_ring(128, horizon=30.0, algorithm="static"),
        _far_ahead,
        None,
        lambda exp, res, calls: (
            isinstance(exp.nodes[3].core, StaticGradientCore)
            and exp.transport.plan.table.b_slope == 0.0
            and res.blocked_rows > 0
            and res.array_lane_events > 0
        ),
    ),
]


@pytest.mark.parametrize(
    "name,make,hook,lane_min,check", LANE_CASES, ids=[c[0] for c in LANE_CASES]
)
def test_lanes_meet_inside_one_batch(name, make, hook, lane_min, check):
    with pytest.MonkeyPatch.context() as mp:
        if lane_min is not None:
            mp.setattr(batch_mod, "ARRAY_LANE_MIN", lane_min)
        exp_s, res_s = _run(make(), False, mp, hook)
        calls = _spy_array_lane(mp)
        exp_b, res_b = _run(make(), True, mp, hook)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_b.batch_gate_reason is None and res_s.array_events == 0
    assert res_b.array_events == res_b.array_lane_events + res_b.scalar_lane_events
    assert check(exp_b, res_b, calls), calls[:20]


def test_slot_columns_grow_without_moving_a_slot(monkeypatch):
    """Growth reallocates the columns; slots, and what they hold, stay.
    Every pair holds two slots, each the other's ``mate``."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(configs.huge_sync_ring(8, horizon=6.0))
    exp.sim.run_until(3.0)
    table = exp.transport.plan.table
    before = {v: dict(row) for v, row in enumerate(table.slotmap)}
    gamma = {i: sorted(node.core.gamma) for i, node in exp.nodes.items()}
    size = len(table.l_est)
    pairs = [(v, u) for v in range(8) for u in range(8) if u != v]
    fresh = [table.slot(v, u) for v, u in pairs]  # forces a doubling
    assert len(table.l_est) > size and len(set(fresh)) == len(fresh)
    assert all(table.mate[table.slot(v, u)] == table.slot(u, v) for v, u in pairs)
    assert [table.peer[s] for s in fresh] == [u for _, u in pairs]
    assert [bool(table.live[s]) for s in fresh] == [
        exp.graph.has_edge(v, u) for v, u in pairs
    ]
    assert all(table.slotmap[v][u] == s for v, row in before.items() for u, s in row.items())
    assert {i: sorted(node.core.gamma) for i, node in exp.nodes.items()} == gamma
    exp.sim.run_until(6.0)  # and the run goes on, on the new columns
    assert exp.nodes[0].core.gamma.get(1).l_est > 3.0


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
                core.messages_sent, sorted(core.upsilon),
                [
                    (v, est.added_h, est.l_est, core.perceived_skew(v), core.tolerance(v))
                    for v, est in sorted(core.gamma.items())
                ],
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
    ``np.float64(...)`` and every digest would move)."""
    if isinstance(value, (list, tuple)):
        return all(_plain_floats(x) for x in value)
    return type(value) in (float, int, bool, type(None))


@pytest.mark.parametrize(
    "make",
    [
        lambda: configs.huge_sync_ring(64, horizon=10.0),
        lambda: _churned_sync_ring(CHURN_SCRIPT, n=48, horizon=20.0),
        lambda: configs.huge_ring(32, horizon=10.0),
    ],
    ids=["lockstep", "churned", "drifting"],
)
def test_mid_run_reads_show_what_the_reference_shows(make, monkeypatch):
    """A ``sim.every`` callback reads clocks, Gamma rows, perceived skews
    and tolerances of every node every 0.7: same values, both kernels."""
    exp_s, res_s, log_s = _mid_run_reads(make(), False, monkeypatch)
    exp_b, res_b, log_b = _mid_run_reads(make(), True, monkeypatch)
    assert res_b.array_events > 0 and res_s.array_events == 0
    assert len(log_b) > 10 and log_b == log_s
    assert _plain_floats(log_b)
    assert any(gamma for row in log_b for _, _, _, _, _, gamma in row[1:])


def test_greedy_adversary_reads_the_same_clocks_on_both_kernels(monkeypatch):
    """The topology adversary picks edges by the logical clocks it reads
    mid-run: same reads, same moves, same run."""
    reads = {False: [], True: []}
    gap = GreedyTopologyAdversary._gap

    def run(batch):
        def spying_gap(self, clocks, e):
            reads[batch].append((self.sim.now, e, clocks[e[0]], clocks[e[1]]))
            return gap(self, clocks, e)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GreedyTopologyAdversary, "_gap", spying_gap)
            return _run(configs.greedy_topology(16, horizon=60.0), batch, mp)

    exp_s, res_s = run(False)
    exp_b, res_b = run(True)
    assert res_b.array_events > 0 and res_b.batch_gate_reason is None
    assert exp_b.adversary.moves == exp_s.adversary.moves > 0
    assert reads[True] == reads[False] and _plain_floats(reads[True])
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)


def test_result_nodes_stay_readable_after_the_experiment_is_dropped():
    cfg = configs.huge_sync_ring(64, horizon=6.0)
    res = run_experiment(cfg)  # the Experiment is gone; the views hold the store
    assert res.array_lane_events > 0
    node = res.nodes[7]
    assert type(node.logical_clock(cfg.horizon)) is float
    assert type(node.max_estimate(cfg.horizon)) is float
    assert node.logical_clock(cfg.horizon) <= node.max_estimate(cfg.horizon)
    assert sorted(node.core.gamma) == [6, 8] and node.messages_sent > 0
    assert type(node.core.gamma.get(6).l_est) is float
    assert isinstance(node.core.upsilon, SlotSet) and node.core.upsilon == {6, 8}


def test_a_covered_core_keeps_no_copy_of_its_row(monkeypatch):
    """One store: after adoption the instance holds neither ``L``, ``Lmax``,
    ``h_last`` nor a Gamma row; writes through the view land in the
    columns, and ``handle()``'s own methods run against them."""
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(configs.huge_sync_ring(64, horizon=6.0))
    core = exp.nodes[3].core
    assert type(core) is DCSACore and "_L" in vars(core)
    exp.sim.run_until(3.0)
    table = exp.transport.plan.table
    assert exp.nodes[3].core is core and isinstance(core, DCSACore)
    assert not {"_L", "_Lmax", "h_last", "messages_sent", "gamma", "upsilon"} & set(
        vars(core)
    )
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
        exp, res = _run(configs.huge_sync_ring(64, horizon=30.0), True, monkeypatch, _far_ahead)
    assert res.array_lane_events > 0 and res.blocked_rows > 0 and seen
    assert all(type(x) is float for payload in seen for x in payload)
    spans = res.spans
    assert len(spans) > 1000 and spans.dropped == 0
    kinds = {int, float}
    assert {type(x) for x in spans.data} <= kinds
    assert all(type(x) is float for x in spans.data[3::8] + spans.data[4::8])


def _heard_before_the_run(exp):
    """Nodes 0 and 1 take a message before the run: a Gamma row and a
    pending ``("lost", v)`` timer each, in the reference's own structures."""
    exp.nodes[0].on_message(1, (5.0, 6.0))
    exp.nodes[1].on_message(0, (0.25, 7.5))
    assert sorted(exp.nodes[0]._timers, key=str) == [("lost", 1), "tick"]


def test_state_fed_before_the_run_moves_into_the_store():
    """Adoption is a column fill: rows and ``lost`` timers a core acquired
    before the plan was made are seated in the slots, not dropped."""
    make = lambda: configs.huge_sync_ring(8, horizon=6.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp, _heard_before_the_run)
        exp_b, res_b = _run(make(), True, mp, _heard_before_the_run)
    assert res_b.batch_gate_reason is None and list(exp_b.nodes[0]._timers) == ["tick"]
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_b.total_jumps() > 0  # node 0 chased the 6.0 it heard


def test_long_rows_advance_in_one_numpy_pass():
    """A dense population: rows past ``_LONG_ROW`` slots advance their
    estimates by fancy-indexed ``+=`` -- the same IEEE adds, element-wise."""
    make = lambda: configs.mobile_network(24, horizon=40.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp)
        exp_b, res_b = _run(make(), True, mp)
    table = exp_b.transport.plan.table
    assert len(table.row_index) > 12 and res_b.blocked_rows > 0
    assert max(len(row) for row in table.slotmap) > batch_mod._LONG_ROW
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)


def _direct_message(exp):
    """At 5.123 node 0 takes a message from node 1 outside the transport:
    ``handle()`` cancels and re-arms its ``("lost", 1)`` timer."""
    nodes = exp.nodes
    exp.sim.schedule_at(
        5.123,
        lambda: nodes[0].on_message(1, (nodes[1].logical_clock(), nodes[1].max_estimate())),
    )


def test_a_direct_message_rearms_the_slot_not_the_queue():
    """A covered node's ``lost`` arm and cancel from ``handle()`` write its
    slot: no second record is queued beside the slot's deadline, so no
    ``lost`` fires that the reference does not fire."""
    make = lambda: configs.huge_sync_ring(16, horizon=12.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp, _direct_message)
        exp_b, res_b = _run(make(), True, mp, _direct_message)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_b.batch_gate_reason is None and list(exp_b.nodes[0]._timers) == ["tick"]


# --------------------------------------------------------------------- #
# Upsilon and adjacency as slot columns
# --------------------------------------------------------------------- #


def _believe_in_non_neighbours(exp):
    """Node 3 comes to believe in 9 at 3.0 and in 7 at 4.0 (no edge to
    either; the failed sends' absence discoveries take them out again),
    through its core's own ``upsilon`` -- a set, or the view of a column."""
    ups = lambda: exp.nodes[3].core.upsilon
    exp.sim.schedule_at(3.0, lambda: ups().add(9))
    exp.sim.schedule_at(4.0, lambda: ups().add(7))
    exp.sim.schedule_at(5.0, lambda: ups().discard(9))


def test_a_covered_cores_upsilon_is_a_view_of_the_ups_column(monkeypatch):
    monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
    exp = Experiment(configs.huge_sync_ring(64, horizon=6.0))
    exp.sim.run_until(3.0)
    table = exp.transport.plan.table
    core = exp.nodes[3].core
    ups = core.upsilon
    assert isinstance(ups, SlotSet)
    assert ups == {2, 4} and {2, 4} == ups and ups != {2} and sorted(ups) == [2, 4]
    assert len(ups) == 2 and 2 in ups and 9 not in ups and set(ups) == {2, 4}
    edits = table.edits
    ups.add(9)
    assert table.ups[table.slotmap[3][9]] and core.upsilon == {2, 4, 9}
    assert table.edits > edits  # a tick group's plan is rebuilt
    ups.discard(9)
    ups.discard(11)  # never believed: nothing to write
    assert core.upsilon == {2, 4} and not table.ups[table.slotmap[3][9]]
    assert 11 not in table.slotmap[3]


def test_writes_through_the_view_send_what_the_reference_sends():
    make = lambda: configs.huge_sync_ring(64, horizon=8.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp, _believe_in_non_neighbours)
        exp_b, res_b = _run(make(), True, mp, _believe_in_non_neighbours)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_b.transport_stats["dropped_no_edge"] > 0  # the ticks sent to 7, 9
    assert exp_b.nodes[3].core.upsilon == {2, 4} == exp_s.nodes[3].core.upsilon


_RING = 128  # two rate classes of 64: every tick group takes the array lane


def _spy_plans(monkeypatch):
    """Record ``(now, loose members)`` per ``NodeArrayTable._tick_plan``."""
    plans = []
    original = NodeArrayTable._tick_plan

    def spy(self, drivers, stale):
        plan = original(self, drivers, stale)
        plans.append((self.sim.now, len(plan.loose)))
        return plan

    monkeypatch.setattr(NodeArrayTable, "_tick_plan", spy)
    return plans


@settings(max_examples=10, deadline=None)
@given(
    cut=st.integers(0, _RING - 2),
    ops=st.lists(
        st.tuples(
            st.floats(0.05, 1.5, allow_nan=False),
            st.integers(0, _RING - 1),
            st.integers(0, _RING - 1),
        ).filter(lambda op: op[1] != op[2]),
        max_size=8,
    ),
)
def test_property_churned_tick_groups_on_the_array_lane(cut, ops):
    """Property: a lockstep ring under any flip script, its first flip a
    ring-edge outage -- tick groups with loose members, plans rebuilt
    after flips -- leaves the reference's state on the array lane."""
    present = {tuple(sorted(e)) for e in configs.huge_sync_ring(_RING).initial_edges}
    script = [(2.3, "remove", cut, cut + 1)]  # after E_0 is discovered, at 2.0
    present.discard((cut, cut + 1))
    t = 2.3
    for dt, u, v in ops:
        t += dt
        edge = (min(u, v), max(u, v))
        script.append((t, "remove" if edge in present else "add", *edge))
        present ^= {edge}
    make = lambda: _churned_sync_ring(script, n=_RING, horizon=12.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp)
        plans = _spy_plans(mp)
        exp_b, res_b = _run(make(), True, mp)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    assert res_b.array_lane_events > res_b.scalar_lane_events
    assert any(loose for _, loose in plans)
    assert any(now > script[0][0] for now, _ in plans)


def _spy_wave_lane(monkeypatch):
    """Record ``(rows, ran)`` per ``NodeArrayTable._discover_array`` call."""
    calls = []
    original = NodeArrayTable._discover_array

    def spy(self, rows):
        ran = original(self, rows)
        calls.append((len(rows), ran))
        return ran

    monkeypatch.setattr(NodeArrayTable, "_discover_array", spy)
    return calls


def _blocked_at_the_wave(exp):
    """Node 0 learns ``Lmax = 3000`` at 2.0, just before E_0 is discovered
    there: it enters the wave with ``Lmax > L``."""
    exp.sim.schedule_at(
        2.0, lambda: exp.nodes[0]._raise_max(3000.0), priority=PRIORITY_TOPOLOGY
    )


#: ``(id, config factory, post-build hook, traced, whether the wave takes
#: the array lane)``: the E_0 wave of a 64-ring (128 rows).
WAVE_CASES = [
    ("clean", lambda: configs.huge_sync_ring(64, horizon=6.0), None, False, True),
    (
        "blocked",
        lambda: configs.huge_sync_ring(64, horizon=6.0),
        _blocked_at_the_wave,
        False,
        False,
    ),
    (
        "reversed",
        lambda: _churned_sync_ring([(1.0, "remove", 3, 4)], n=64, horizon=6.0),
        None,
        False,
        False,
    ),
    ("traced", lambda: configs.huge_sync_ring(64, horizon=6.0), None, True, False),
]


@pytest.mark.parametrize(
    "name,make,hook,traced,array", WAVE_CASES, ids=[c[0] for c in WAVE_CASES]
)
def test_the_e0_wave_lane(name, make, hook, traced, array):
    with pytest.MonkeyPatch.context() as mp, trace_session() if traced else nullcontext():
        exp_s, res_s = _run(make(), False, mp, hook)
        calls = _spy_wave_lane(mp)
        exp_b, res_b = _run(make(), True, mp, hook)
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)
    if traced:
        assert res_b.spans.data == res_s.spans.data
    assert calls[0] == (128, array)
    if name == "blocked":
        assert res_b.total_jumps() > 0


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

    make = lambda: configs.huge_sync_ring(128, horizon=6.0)
    with pytest.MonkeyPatch.context() as mp:
        exp_s, res_s = _run(make(), False, mp, first_timer_run)
        assert len(seen) == 128 and set(seen) == {(KIND_TIMER, "tick")}
        seen.clear()
        exp_b, res_b = _run(make(), True, mp, first_timer_run)
    assert seen == [(KIND_TICK_BURST, None)] * 2
    assert _fingerprint(exp_b, res_b) == _fingerprint(exp_s, res_s)


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
