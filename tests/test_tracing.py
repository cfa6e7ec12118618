"""Tests for causal tracing (repro.tracing): spans, export, forensics.

The load-bearing guarantees:

* **Neutrality** — running with the tracer attached leaves every
  deterministic run metric bit-identical (``test_kernel_parity.py``
  holds every case and drawn config to it).  Hooks draw no RNG and
  schedule nothing; the flight span id rides the delivery record's
  observer slot, which physics never reads.
* **Accounting** — one flight span per transport send; delivered /
  dropped / still-in-flight statuses reconcile exactly with the
  transport's own counters (including the end-of-run fixup for the
  optimistically-closed spans of messages the horizon caught mid-air).
* **Kernel parity** — a traced run on the struct-of-arrays batch path
  writes the same per-message span multiset as the traced scalar run
  (``kernel_parity.canonical_spans``, on every run of the parity
  property), also when the table is full.
* **Export** — the Chrome-trace JSON validates (``ph``/``ts`` on every
  event) and carries at least one flow event per delivered message.
* **Forensics** — on a seeded broken-bound DelayAdversary run,
  ``explain`` attributes the violation to adversary-masked flights on
  the violating edge's causal path.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from kernel_parity import assert_same, run
from test_kernel_parity import holds

from repro.harness import configs, run_experiment
from repro.harness.registry import OracleRef
from repro.harness.runner import Experiment
from repro.sim import simulator as simulator_mod
from repro.sim.simulator import SimulationError
from repro.tracing import (
    SPAN_DISCOVER,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_TIMER,
    SPAN_VIOLATION,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
    SpanTable,
    Tracer,
    activate_tracing,
    active_tracer,
    chrome_trace_events,
    deactivate_tracing,
    explain_result,
    export_chrome_trace,
    trace_session,
)
from repro.tracing.forensics import CauseReport
from repro.tracing.spans import STRIDE


# --------------------------------------------------------------------- #
# Span table (storage layer)
# --------------------------------------------------------------------- #


class TestSpanTable:
    def test_flat_stride8_layout(self):
        t = SpanTable()
        sid = t.append(SPAN_FLIGHT, 1, 2, 0.5, 1.5, STATUS_PENDING)
        assert sid == 0
        assert len(t) == 1
        assert len(t.data) == STRIDE
        assert t.data[0] == SPAN_FLIGHT
        assert t.data[3] == 0.5 and t.data[4] == 1.5
        assert STRIDE == 7 and t.data[5] == STATUS_PENDING

    def test_close_updates_t1_and_status(self):
        t = SpanTable()
        sid = t.append(SPAN_FLIGHT, 1, 2, 0.5, 9.9, STATUS_PENDING)
        t.close(sid, 1.25, STATUS_DONE)
        assert t.t1 == [1.25]
        assert t.status == [STATUS_DONE]
        assert t.t1[sid] - t.t0[sid] == pytest.approx(0.75)

    def test_close_many_sets_status_and_end(self):
        t = SpanTable()
        ids = [t.append(SPAN_FLIGHT, 1, 2, 0.5, 9.9, STATUS_PENDING) for _ in range(3)]
        t.close_many(ids[:2], STATUS_DROPPED, 2.0)
        assert list(zip(t.status, t.t1)) == [
            (STATUS_DROPPED, 2.0), (STATUS_DROPPED, 2.0), (STATUS_PENDING, 9.9)
        ]

    def test_capacity_drops_and_counts(self):
        t = SpanTable(capacity=2)
        assert t.append(SPAN_TIMER, 0, -1, 0.0, 0.0, STATUS_DONE) == 0
        assert t.append(SPAN_TIMER, 0, -1, 1.0, 1.0, STATUS_DONE) == 1
        assert t.append(SPAN_TIMER, 0, -1, 2.0, 2.0, STATUS_DONE) == -1
        assert len(t) == 2
        assert t.dropped == 1

    def test_columns_and_counts(self):
        t = SpanTable()
        t.append(SPAN_FLIGHT, 1, 2, 0.0, 1.0, STATUS_DONE)
        t.append(SPAN_JUMP, 2, -1, 1.0, 1.0, STATUS_DONE, 0.25)
        assert t.kind == [SPAN_FLIGHT, SPAN_JUMP]
        assert t.node == [1, 2]
        assert t.detail[1] == 0.25
        assert t.kind_counts[SPAN_FLIGHT] == 1
        assert t.kind_counts[SPAN_JUMP] == 1

    def test_blocks_and_lists_read_as_one_table(self):
        """A column block takes the ids after the open list segment; the
        list rows written after it continue from its end, and readers,
        closes and counts see one table of Python ints and floats."""
        t = SpanTable()
        t.append(SPAN_TIMER, 0, -1, 1.0, 1.0, STATUS_DONE)
        block = (
            np.array([SPAN_TIMER, SPAN_FLIGHT]), np.array([1, 1]), np.array([-1, 2]),
            np.full(2, 2.0), np.array([2.0, 2.5]), np.full(2, STATUS_DONE), np.zeros(2),
        )
        assert t.write_block(block) == 1 and len(t) == 3
        assert t.append(SPAN_FLIGHT, 3, 4, 3.0, 3.5, STATUS_DONE) == 3
        assert t.base == 3 and len(t.data) == STRIDE
        assert t.kind == [SPAN_TIMER, SPAN_TIMER, SPAN_FLIGHT, SPAN_FLIGHT]
        assert {type(x) for x in t.node + t.peer + t.status} == {int}
        assert {type(x) for x in t.t0 + t.t1} == {float}
        columns = (t.kind, t.node, t.peer, t.t0, t.t1, t.status, t.detail)
        assert [c[2] for c in columns] == [SPAN_FLIGHT, 1, 2, 2.0, 2.5, STATUS_DONE, 0.0]
        t.close(2, 2.25, STATUS_DROPPED)
        assert (t.t1[2], t.status[2]) == (2.25, STATUS_DROPPED)
        t.close_many([3, 2], STATUS_PENDING)
        assert t.status == [STATUS_DONE, STATUS_DONE, STATUS_PENDING, STATUS_PENDING]
        assert t.t1 == [1.0, 2.0, 2.25, 3.5]
        assert t.kind_counts[SPAN_FLIGHT] == 2 and t.kind_counts[SPAN_TIMER] == 2


class TestTracerHooks:
    def test_flight_lifecycle_carried_sid(self):
        tr = Tracer()
        sid = tr.flight_send(3, 4, 1.0, 1.5)
        assert sid == 0
        assert tr.table.status[sid] == STATUS_PENDING
        tr.flight_deliver(sid, 1.5)
        assert tr.table.status[sid] == STATUS_DONE
        assert tr.table.t1[sid] == 1.5

    def test_flight_drop(self):
        tr = Tracer()
        sid = tr.flight_send(3, 4, 1.0, 1.5)
        tr.flight_drop(sid, 1.2)
        assert tr.table.status[sid] == STATUS_DROPPED
        assert tr.table.t1[sid] == 1.2

    def test_capacity_returns_minus_one_and_closes_are_noops(self):
        tr = Tracer(capacity=1)
        assert tr.flight_send(0, 1, 0.0, 1.0) == 0
        sid = tr.flight_send(1, 2, 0.0, 1.0)
        assert sid == -1
        assert tr.table.dropped == 1
        tr.flight_deliver(sid, 1.0)  # must not raise
        assert len(tr.table) == 1

    def test_ambient_activation(self):
        assert active_tracer() is None
        tracer = activate_tracing()
        try:
            assert active_tracer() is tracer
        finally:
            deactivate_tracing()
        assert active_tracer() is None
        with trace_session() as tr:
            assert active_tracer() is tr
        assert active_tracer() is None


# --------------------------------------------------------------------- #
# Sim integration
# --------------------------------------------------------------------- #


class TestSimTracing:
    def test_flight_accounting_reconciles_with_transport(self):
        with trace_session() as tr:
            res = run_experiment(
                configs.backbone_churn(8, horizon=60.0, seed=5)
            )
        assert res.spans is tr.table
        table = tr.table
        st = res.transport_stats
        kinds, status = table.kind, table.status
        by_status = {STATUS_DONE: 0, STATUS_PENDING: 0, STATUS_DROPPED: 0}
        for i in range(len(table)):
            if kinds[i] == SPAN_FLIGHT:
                by_status[status[i]] += 1
        # One span per send attempt (in-flight sends + failed sends).
        assert sum(by_status.values()) == st["sent"]
        assert table.dropped == 0
        assert by_status[STATUS_DONE] == st["delivered"]
        # Dropped >= send-time failures + in-flight drops: messages the
        # horizon caught mid-flight over an already-failed edge are doomed
        # and finalize_tracing closes them DROPPED too; only genuinely
        # live flights stay PENDING.
        assert (
            by_status[STATUS_DROPPED]
            >= st["dropped_no_edge"] + st["dropped_removed"]
        )
        assert by_status[STATUS_PENDING] + by_status[STATUS_DROPPED] == (
            st["sent"] - st["delivered"]
        )

    def test_mid_flight_edge_removal_closes_span_dropped(self):
        """A flight whose edge churns away mid-air must export DROPPED.

        Regression: ``finalize_tracing`` used to re-mark every still-queued
        delivery PENDING; for a destination removed before the horizon the
        flight then pointed at a track that may not exist in the Perfetto
        export.  The doomed flight (the delivery-time check would drop it
        anyway) must instead be closed ``STATUS_DROPPED`` at the horizon.
        """
        from repro.network.channels import ConstantDelay
        from repro.network.discovery import ConstantDiscovery
        from repro.network.graph import DynamicGraph
        from repro.network.transport import Transport
        from repro.sim.simulator import Simulator

        sim = Simulator()
        graph = DynamicGraph(range(2), [(0, 1)])
        transport = Transport(
            sim,
            graph,
            delay_policy=ConstantDelay(1.0),
            discovery_policy=ConstantDiscovery(0.5),
            max_delay=2.0,
            discovery_bound=2.0,
        )
        tracer = Tracer()
        transport.attach_tracer(tracer)
        transport.send(0, 1, "payload")  # delivery due at t=1.0
        table = tracer.table
        (sid,) = [i for i in range(len(table)) if table.kind[i] == SPAN_FLIGHT]
        # Optimistically closed DONE at send time (the common case).
        assert table.status[sid] == STATUS_DONE
        graph.remove_edge(0, 1, 0.4)  # churn strikes mid-flight
        sim.run_until(0.5)  # horizon before the delivery time
        transport.finalize_tracing()
        assert table.status[sid] == STATUS_DROPPED
        assert table.t1[sid] == 0.5  # closed at the horizon, not left open
        # The export stays self-consistent: no span lost, ph/ts everywhere.
        events = chrome_trace_events(table)
        assert all("ph" in e and "ts" in e for e in events)
        # A genuinely live flight (edge intact) still finalizes PENDING.
        graph.add_edge(0, 1, 0.5)
        transport.send(0, 1, "payload2")
        transport.finalize_tracing()
        flights = [i for i in range(len(table)) if table.kind[i] == SPAN_FLIGHT]
        assert table.status[flights[-1]] == STATUS_PENDING
        assert table.status[sid] == STATUS_DROPPED  # first verdict sticks

    def test_untraced_run_records_nothing(self):
        res = run_experiment(configs.static_path(8, horizon=30.0, seed=3))
        assert res.spans is None

    @pytest.mark.parametrize("workload", [
        ("static_path", "golden_static_path"),
        ("backbone_churn", "golden_backbone_churn"),
        ("adversarial_drift", "golden_adversarial_drift"),
        ("huge_sync_ring", "sync_ring256"),
        ("huge_ring", "ring256"),
    ], ids=lambda w: w[0])
    def test_traced_runs_bit_identical(self, workload):
        holds(workload[1])


# --------------------------------------------------------------------- #
# Kernel parity: the tracer rides the batch path
# --------------------------------------------------------------------- #


class TestBatchKernelSpans:
    def test_capacity_overflow_counts_agree(self):
        """A full table degrades to counting, identically on both kernels."""
        cfg = configs.huge_sync_grid(8, 8, horizon=20.0)
        with trace_session(capacity=1000):
            ref = run(cfg, batch=False)
        with trace_session(capacity=1000):
            default = run(cfg, batch=True)
        table_s, table_b = ref.res.spans, default.res.spans
        assert len(table_s) == len(table_b) == 1000
        assert table_b.dropped == table_s.dropped > 0
        assert default.res.batch_gate_reason is None
        assert_same(ref, default, "capped tracer")
        # The capped tracer did not change the physics either.
        assert_same(run(cfg, batch=True), default, "capped tracer", physics_only=True)

    def test_an_overflowing_table_moves_no_event_between_lanes(self):
        """A span table too small for the run takes what fits and counts
        the rest: the array lane runs what it runs untraced."""
        cfg = configs.huge_sync_ring(256, horizon=20.0)
        untraced = run(cfg, batch=True)
        with trace_session(capacity=5000):
            traced = run(cfg, batch=True)
        assert traced.res.spans.dropped > 0 and len(traced.res.spans) == 5000
        assert untraced.res.array_lane_events > 0
        lanes = lambda r: (
            r.res.declines, r.res.array_lane_events, r.res.scalar_lane_events,
            r.exp.sim.batch_dispatches,
        )
        assert lanes(traced) == lanes(untraced)

    def test_remaining_observer_declines_name_the_observer(self, monkeypatch):
        """An effect log is the one observer the table cannot carry: the
        default kernel refuses it by name; the reference kernel runs it."""
        cfg = configs.huge_sync_ring(16, horizon=5.0)
        for batch in (True, False):
            monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", batch)
            exp = Experiment(cfg)
            exp.nodes[3].effect_log = []
            if batch:
                with pytest.raises(SimulationError, match="node 3 has an effect log attached"):
                    exp.run()
            else:
                assert exp.run().batch_gate_reason.startswith("the handle() reference kernel")
                assert exp.nodes[3].effect_log

    # The span parity cases, under this file's names for their rows.
    @pytest.mark.parametrize("workload", [
        ("sync_ring", "sync_ring"),
        ("sync_grid", "sync_grid"),
        ("churned_ring", "churned_sync_ring"),
        ("transient", "run_transient"),
        ("absence", "run_absence"),
        ("zero_delay", "run_zero_delay"),
        ("lazy_lost", "run_lazy_lost"),
        ("piecewise", "rw_sync_ring_wide"),
        ("steered", "steered_sync_ring"),
    ], ids=lambda w: w[0])
    def test_batch_spans_equal_scalar_spans(self, workload):
        holds(workload[1])

    def test_jump_released_by_a_discovery_is_parented_on_it(self):
        holds("discovery_releases_jump")

    def test_singleton_spans_equal_scalar_spans(self):
        holds("ring64")

    def test_horizon_inside_a_burst_finalizes_every_constituent(self):
        holds("horizon_inside_a_burst")

    @pytest.mark.parametrize("name", ["sync_ring", "sync_grid", "churn_ring"])
    def test_tracing_does_not_change_which_kernel_runs(self, name):
        holds(name)  # ``check`` compares the plan observers on and off


def test_property_random_flip_scripts_span_parity():
    """Drawn flip scripts, and the one whose absence discovery ties with
    a tick run's deliveries."""
    holds("any_config[default_lane]")
    holds("flips_tie")


# --------------------------------------------------------------------- #
# Live integration
# --------------------------------------------------------------------- #


class TestLiveTracing:
    def test_live_flights_traced_and_closed(self):
        with trace_session() as tr:
            res = run_experiment(
                configs.live_ring(4, duration=0.5, sample_interval=0.1, seed=1)
            )
        table = tr.table
        assert res.spans is table
        flights = table.kind_counts[SPAN_FLIGHT]
        assert flights > 0
        # Loopback, no churn: every sent message is delivered and closed.
        kinds, status = table.kind, table.status
        closed = sum(
            1
            for i in range(len(table))
            if kinds[i] == SPAN_FLIGHT and status[i] == STATUS_DONE
        )
        assert closed == res.transport_stats["delivered"]
        assert table.kind_counts[SPAN_TIMER] > 0


# --------------------------------------------------------------------- #
# Chrome-trace / Perfetto export
# --------------------------------------------------------------------- #


class TestExport:
    @pytest.fixture(scope="class")
    def traced_run(self):
        with trace_session() as tr:
            res = run_experiment(configs.static_ring(8, horizon=60.0, seed=3))
        return res, tr.table

    def test_every_event_has_ph_and_ts(self, traced_run):
        _, table = traced_run
        events = chrome_trace_events(table)
        assert events
        for ev in events:
            assert "ph" in ev and "ts" in ev

    def test_flow_event_per_delivered_message(self, traced_run):
        res, table = traced_run
        events = chrome_trace_events(table)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        delivered = res.transport_stats["delivered"]
        assert len(starts) == delivered
        assert len(finishes) == delivered
        # Flow pairs share the flight's span id.
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        for e in finishes:
            assert e.get("bp") == "e"

    def test_exported_file_is_valid_chrome_json(self, traced_run, tmp_path):
        res, table = traced_run
        path = str(tmp_path / "trace.json")
        counts = export_chrome_trace(table, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        assert counts["events"] == len(doc["traceEvents"])
        assert counts["flows"] == 2 * res.transport_stats["delivered"]
        assert counts["spans_lost"] == 0
        # One named track (process metadata) per node.
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(names) >= res.config.params.n


# --------------------------------------------------------------------- #
# Forensics (repro explain)
# --------------------------------------------------------------------- #


def _broken_bound_adversarial_run():
    cfg = configs.adversarial_delay(8, horizon=120.0, seed=1)
    cfg = replace(
        cfg,
        record=False,
        oracle=OracleRef("standard", {"bound_scale": 0.3}),
    )
    with trace_session():
        return run_experiment(cfg)


class TestForensics:
    @pytest.fixture(scope="class")
    def explained(self):
        res = _broken_bound_adversarial_run()
        reports = explain_result(res, max_reports=2)
        return res, reports

    def test_violations_are_anchored_in_the_dag(self, explained):
        res, _ = explained
        rep = res.oracle_report
        assert rep is not None and not rep.ok
        assert res.spans is not None
        assert res.spans.kind_counts[SPAN_VIOLATION] >= len(rep.violations)

    def test_top_cause_is_a_masked_causal_chain(self, explained):
        res, reports = explained
        assert reports and res.cause_reports == reports
        top = reports[0].causes[0]
        assert top.kind == "causal_chain"
        # The adversary's fingerprint: flights on the last-contact path
        # held at max_delay.
        assert top.data["masked_count"] >= 1
        masked = [c for c in reports[0].causes if c.kind == "masked_flight"]
        assert masked
        # The chain's masked flights are the same spans the per-flight
        # masked_flight causes blame (the adversary held them at max_delay).
        masked_span_ids = {c.spans[0] for c in masked}
        assert set(top.data["masked"]) & masked_span_ids
        for cause in masked:
            assert cause.data["duration"] == pytest.approx(
                cause.data["max_delay"], rel=0.05
            )

    def test_report_window_and_describe(self, explained):
        _, reports = explained
        report = reports[0]
        lo, hi = report.window
        assert lo <= hi == report.violation.time
        text = report.describe()
        assert "causal_chain" in text
        d = report.to_dict()
        assert d["causes"][0]["kind"] == "causal_chain"
        assert json.dumps(d)  # JSON-serialisable

    def test_violations_and_dropped_flights_export(self, explained, tmp_path):
        res, _ = explained
        events = chrome_trace_events(res.spans)
        marks = [e for e in events if e["name"] == "violation"]
        assert len(marks) == res.spans.kind_counts[SPAN_VIOLATION]
        assert all(e["ph"] == "i" and e["cat"] == "violation" for e in marks)
        with trace_session() as tr:
            churned = run_experiment(configs.flapping_edges(16, horizon=30.0, seed=2))
        counts = export_chrome_trace(tr.table, str(tmp_path / "t.json"))
        dropped = churned.transport_stats["dropped_removed"]
        assert counts["flights_dropped"] >= dropped > 0

    def test_every_cause_kind_on_a_churned_run(self):
        """At a bound scale of 0.001, the backbone-churn run's violations
        are blamed on every cause kind: the chain, information that never
        arrived, slow flights, topology flips and jumps in the window."""
        cfg = replace(
            configs.backbone_churn(8, horizon=60.0, seed=1),
            record=False, track_edges=False, track_max_estimates=False,
            oracle=OracleRef("standard", {"bound_scale": 0.001}),
        )
        with trace_session():
            res = run_experiment(cfg)
        reports = explain_result(res, max_reports=50)
        kinds = {cause.kind for report in reports for cause in report.causes}
        assert kinds == {"causal_chain", "stale_information", "slow_flight", "churn", "jump"}
        text = "\n".join(report.describe() for report in reports)
        for phrase in ("no delivered flight chain", "topology flip(s)", "jumped its logical clock"):
            assert phrase in text

    def test_a_report_without_causes_says_so(self, explained):
        _, reports = explained
        bare = CauseReport(violation=reports[0].violation, causes=(), window=(0.0, 1.0))
        assert bare.describe().endswith("(no causes found in the trace)")

    def test_explain_without_violations_is_empty(self):
        with trace_session():
            res = run_experiment(configs.static_path(8, horizon=30.0, seed=3))
        assert explain_result(res) == []
        assert res.cause_reports == []
