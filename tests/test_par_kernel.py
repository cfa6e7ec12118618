"""Tests for the space-partitioned parallel backend (repro.sim.par).

The load-bearing guarantee is the **parity contract**: a genuinely
sharded run is bit-identical to the serial backend on the same config --
per-node clocks and estimates, jump counts and float totals, message
counters, event tallies, oracle reports.  The tests here pin that
contract across shard counts on the flagship sync workload, under the
streaming oracle, and property-based over randomly generated static
topologies (topology is static under shards: any churn is a ``shards``
decline and the run is the serial one).  The partitioner and the
per-shard telemetry get unit coverage alongside; every way a run falls
back to serial is a row of ``test_batch_kernel.py::test_decline_table``.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import SystemParams
from repro.harness import configs
from repro.harness.registry import OracleRef, RuntimeRef
from repro.harness.runner import Experiment, ExperimentConfig, run_experiment
from repro.network.churn import ScriptedChurn
from repro.sim.par import run_par, shard_decline
from repro.sim.partition import crossing_counts, partition_ranges
from repro.telemetry.registry import get_registry


def _ring_cfg(n=48, **overrides):
    """A small two-rate-class sync ring that genuinely shards."""
    params = SystemParams(
        n=n, rho=1e-4, max_delay=1.0, tick_interval=0.25, b0=20.0
    )
    base = dict(
        params=params,
        initial_edges=[(i, (i + 1) % n) for i in range(n)],
        algorithm="dcsa",
        clock_spec="split",
        delay_spec="half",
        discovery_spec="max",
        horizon=40.0,
        sample_interval=5.0,
        seed=7,
        record=False,
        stagger_ticks=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fingerprint(cfg, res):
    """Every observable a shard-merge divergence could show up in.

    Floats are captured as ``repr`` so the comparison is bitwise, not
    tolerance-based.
    """
    n = cfg.params.n
    h = float(cfg.horizon)
    nodes = [res.nodes[i] for i in range(n)]
    return {
        "clock": [repr(nd.logical_clock(h)) for nd in nodes],
        "maxe": [repr(nd.max_estimate(h)) for nd in nodes],
        "jumps": [nd.jumps for nd in nodes],
        "total_jump": [repr(nd.total_jump) for nd in nodes],
        "messages_sent": [nd.messages_sent for nd in nodes],
        "transport": dict(res.transport_stats),
        "events": res.events_dispatched,
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


def _sharded(cfg, k):
    return replace(cfg, runtime=RuntimeRef("par", {"shards": k}))


def _assert_parity(cfg, shard_counts=(1, 2, 4)):
    serial = Experiment(cfg).run()
    expected = _fingerprint(cfg, serial)
    for k in shard_counts:
        res = run_par(cfg, k)
        assert res.par_fallback_reason is None, res.par_fallback_reason
        assert res.par_shards == min(k, cfg.params.n)
        assert _fingerprint(cfg, res) == expected, f"shards={k}"
    return serial


# --------------------------------------------------------------------- #
# Partitioner units
# --------------------------------------------------------------------- #


class TestPartitioner:
    def test_single_shard_is_whole_range(self):
        assert partition_ranges(10, 1, [(0, 9)]) == [(0, 10)]

    def test_ranges_are_contiguous_and_cover(self):
        edges = [(i, (i + 1) % 64) for i in range(64)]
        ranges = partition_ranges(64, 4, edges)
        assert ranges[0][0] == 0 and ranges[-1][1] == 64
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and a < b

    def test_cut_prefers_zero_crossing_boundary(self):
        # Two 8-node cliques joined nowhere: the only zero-crossing cut
        # near the middle is exactly at 8.
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(u, v) for u in range(8, 16) for v in range(u + 1, 16)]
        assert partition_ranges(16, 2, edges) == [(0, 8), (8, 16)]
        assert crossing_counts(16, edges)[8] == 0

    def test_shard_count_clamps_to_population(self):
        ranges = partition_ranges(3, 8, [])
        assert ranges[0][0] == 0 and ranges[-1][1] == 3
        assert len(ranges) == 3

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            partition_ranges(0, 2, [])
        with pytest.raises(ValueError):
            partition_ranges(8, 0, [])


# --------------------------------------------------------------------- #
# Fallback gate
# --------------------------------------------------------------------- #


class TestGenuineShardGate:
    def test_sync_ring_is_genuine(self):
        assert shard_decline(_ring_cfg()) is None

    def test_fallback_still_runs_and_records_reason(self):
        cfg = _ring_cfg(stagger_ticks=True)
        serial = Experiment(cfg).run()
        res = run_par(cfg, 2)
        assert res.par_fallback_reason is not None
        assert res.par_shards is None
        assert res.config is cfg
        assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)

    def test_churn_declines_shards_and_the_run_is_the_serial_one(self):
        # Boundary edges for K=2 (23-24) and the ring wrap (0-47), flipped
        # at non-barrier times: what the churned replay used to merge.
        churn = ScriptedChurn(
            [
                (3.1, "remove", 23, 24),
                (7.7, "add", 23, 24),
                (17.2, "remove", 0, 47),
                (22.6, "add", 0, 47),
            ]
        )
        cfg = _ring_cfg(churn=(churn,))
        serial = Experiment(cfg).run()
        assert serial.transport_stats["dropped_removed"] > 0
        res = run_par(cfg, 2)
        assert res.par_shards is None
        first = res.declines[0]
        assert (first.path, first.declined_by) == ("shards", "churn")
        assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


# --------------------------------------------------------------------- #
# Parity: bit-identical to serial
# --------------------------------------------------------------------- #


class TestParity:
    def test_sync_ring_bitwise_across_shard_counts(self):
        _assert_parity(_ring_cfg())

    def test_discovery_zero_bitwise(self):
        _assert_parity(_ring_cfg(discovery_spec="zero"))

    def test_distinct_rates_singletons_on_shard_tables(self):
        """Per-node rates: every tick after ``t = 0`` is a singleton.

        The shard tables execute them one record at a time (``tick_one``;
        boundary senders' messages and envelopes through ``deliver_one``),
        and the re-pushed tick records must carry the provenance slots the
        keys read.
        """
        cfg = replace(configs.huge_sync_ring(256, horizon=12.0), clock_spec="uniform")
        exp = Experiment(cfg)
        serial = exp.run()
        assert serial.batch_gate_reason is None
        assert exp.sim.batch_dispatches < 8  # runs are the exception here
        assert serial.array_events > 0.9 * serial.events_dispatched
        for k in (1, 2):
            res = run_par(cfg, k)
            assert res.par_fallback_reason is None, res.par_fallback_reason
            assert res.batch_gate_reason is None
            assert _fingerprint(cfg, res) == _fingerprint(cfg, serial), f"shards={k}"
            assert res.array_events == serial.array_events

    def test_oracle_report_bitwise(self):
        cfg = _ring_cfg(oracle=OracleRef("standard", {"bound_scale": 3.0}))
        serial = _assert_parity(cfg, shard_counts=(2,))
        assert serial.oracle_report is not None

    def test_zero_cross_edge_shard(self):
        # Two disjoint 24-node rings: the partitioner cuts between them,
        # so one shard exchanges zero envelopes -- the degenerate barrier
        # protocol (empty flushes both ways) must still agree.
        n = 48
        edges = [(i, (i + 1) % 24) for i in range(24)]
        edges += [(24 + i, 24 + (i + 1) % 24) for i in range(24)]
        _assert_parity(_ring_cfg(initial_edges=edges), shard_counts=(2,))

    def test_runtime_ref_and_workload_wiring(self):
        cfg = _sharded(configs.huge_sync_ring(96, horizon=10.0), 2)
        res = run_experiment(cfg)
        assert res.par_shards == 2
        assert res.par_fallback_reason is None
        serial = run_experiment(replace(cfg, runtime="sim"))
        assert res.events_dispatched == serial.events_dispatched


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_partitions_replay_bitwise(data):
    """Property: random static topology, shard-merged == serial.

    Configs are drawn to stay inside the genuine-shard gate (the point is
    to exercise the merge, not the fallback), with enough structural
    freedom -- random extra chords, rate classes, cut counts -- that
    ordering bugs in the envelope merge or the provenance keys surface as
    fingerprint diffs.
    """
    n = data.draw(st.integers(min_value=8, max_value=40), label="n")
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    extra = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=6,
        ),
        label="chords",
    )
    edges.update((min(u, v), max(u, v)) for u, v in extra)
    edge_list = sorted(edges)
    cfg = _ring_cfg(
        n=n,
        initial_edges=edge_list,
        # Dissolving tick groups, per-node rates and multi-cut partitions
        # all go through the one shared tick phase.
        clock_spec=data.draw(
            st.sampled_from(["split", "alternating", "uniform"]), label="clocks"
        ),
        horizon=25.0,
        seed=data.draw(st.integers(0, 2**20), label="seed"),
    )
    assert shard_decline(cfg) is None
    serial = Experiment(cfg).run()
    res = run_par(cfg, data.draw(st.integers(2, 4), label="shards"))
    assert res.par_fallback_reason is None
    assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


# --------------------------------------------------------------------- #
# Golden workloads under RuntimeRef("par", {"shards": k})
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make",
    [
        lambda: configs.static_path(8, horizon=60.0, seed=3),
        lambda: configs.backbone_churn(8, horizon=60.0, seed=5),
    ],
    ids=["static_path", "backbone_churn"],
)
def test_golden_workloads_fall_back_to_serial_under_shards_env(make):
    """The golden workloads (uniform delay, staggered ticks, recorder on)
    cannot shard: the ``"par"`` runtime must decline by name and run serial."""
    cfg = make()
    baseline = run_experiment(cfg)
    for k in (1, 2, 4):
        res = run_experiment(_sharded(make(), k))
        assert res.par_fallback_reason is not None
        assert res.par_shards is None
        assert res.max_global_skew == baseline.max_global_skew
        assert res.max_local_skew == baseline.max_local_skew
        assert res.total_jumps() == baseline.total_jumps()
        assert res.events_dispatched == baseline.events_dispatched


@pytest.mark.parametrize("shards", [2, 3])
def test_sync_grid_bitwise_under_shards_env(shards):
    """A genuinely sharded grid: each cut's frontier is a whole row, where
    the ring cases above only ever have a two-node frontier."""
    cfg = configs.huge_sync_grid(6, 8, horizon=20.0, seed=3)
    serial = run_experiment(cfg)
    res = run_experiment(_sharded(cfg, shards))
    assert res.par_fallback_reason is None
    assert res.par_shards == shards
    assert res.batch_gate_reason is None
    assert _fingerprint(cfg, res) == _fingerprint(cfg, serial)


# --------------------------------------------------------------------- #
# Batch-kernel gating diagnostics
# --------------------------------------------------------------------- #


class TestGateDiagnostics:
    def test_churn_records_scalar_path_reason(self):
        """Churn used to veto the shard tables onto the scalar path; it
        now declines ``shards``, and the serial run it becomes keeps the
        array step: no scalar-path reason is left to record."""
        churn = ScriptedChurn([(3.0, "remove", 5, 6), (9.0, "add", 5, 6)])
        res = run_par(_ring_cfg(churn=(churn,)), 2)
        assert res.batch_gate_reason is None
        assert "batch kernel declined" not in res.summary()
        assert "parallel fallback (churn)" in res.summary()

    def test_sync_workload_keeps_batch_kernel(self):
        res = run_par(_ring_cfg(), 2)
        assert res.batch_gate_reason is None
        assert "parallel backend: 2 shards" in res.summary()

    def test_fallback_reason_lands_in_summary(self):
        res = run_par(_ring_cfg(record=True), 2)
        assert res.par_fallback_reason is not None
        assert "parallel fallback" in res.summary()


# --------------------------------------------------------------------- #
# Per-shard telemetry
# --------------------------------------------------------------------- #


class TestTelemetry:
    def test_per_shard_metrics_surface(self):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            res = run_par(_ring_cfg(), 2)
            assert res.par_shards == 2
            snap = reg.snapshot()
        finally:
            reg.disable()
            reg.reset()
        counters = snap["counters"]
        gauges = snap["gauges"]
        assert gauges["par.shards"] == 2
        assert counters["par.shard0.events"] > 0
        assert counters["par.shard1.events"] > 0
        assert counters["par.shard0.envelopes_out"] > 0
        assert counters["par.shard1.envelopes_in"] > 0
        assert 0.0 < gauges["par.utilization"] <= 1.0
        assert gauges["par.shard0.busy_seconds"] > 0.0

    def test_no_metrics_without_registry(self):
        # Blank-beats-nonsense: with no ambient registry the run must not
        # create one as a side effect.
        reg = get_registry()
        reg.reset()
        run_par(_ring_cfg(n=24, horizon=20.0), 2)
        snap = reg.snapshot()
        assert not any(k.startswith("par.") for k in snap["counters"])
        assert not any(k.startswith("par.") for k in snap["gauges"])


# --------------------------------------------------------------------- #
# Fault injection: a worker dies mid-run
# --------------------------------------------------------------------- #


def test_killed_worker_raises_error_naming_the_shard():
    """SIGKILL one shard worker a few windows in: the coordinator must
    raise an error naming the shard, its node range and the exit code --
    not a bare ``EOFError`` -- promptly, and leave no child behind."""
    cfg = _ring_cfg(n=256, horizon=20000.0)  # far longer than the test allows
    ranges = partition_ranges(256, 2, cfg.initial_edges)
    reg = get_registry()
    reg.reset()
    reg.enable()

    def kill_once_running(_signum, _frame):
        kids = multiprocessing.active_children()
        window = reg.snapshot()["gauges"].get("par.window", 0)
        if len(kids) == 2 and window >= 3:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            os.kill(kids[0].pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill_once_running)
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeError) as excinfo:
            run_par(cfg, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        reg.disable()
        reg.reset()
    assert time.monotonic() - t0 < 10.0
    found = re.search(
        r"shard worker (\d+) \(nodes \[(\d+), (\d+)\)\) died in window (\d+)"
        r".*exitcode -9",
        str(excinfo.value),
    )
    assert found is not None, str(excinfo.value)
    w, lo, hi, window = map(int, found.groups())
    assert ranges[w] == (lo, hi)
    assert window >= 3
    assert multiprocessing.active_children() == []
