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
from repro.tracing import (
    SPAN_DISCOVER,
    SPAN_FLIGHT,
    SPAN_JUMP,
    SPAN_TIMER,
    SPAN_VIOLATION,
    STATUS_DONE,
    STATUS_DROPPED,
    STATUS_PENDING,
    Span,
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
from repro.tracing.spans import STRIDE


# --------------------------------------------------------------------- #
# Span table (storage layer)
# --------------------------------------------------------------------- #


class TestSpanTable:
    def test_flat_stride8_layout(self):
        t = SpanTable()
        sid = t.append(SPAN_FLIGHT, 1, 2, 0.5, 1.5, -1, STATUS_PENDING)
        assert sid == 0
        assert len(t) == 1
        assert len(t.data) == STRIDE
        assert t.data[0] == SPAN_FLIGHT
        assert t.data[3] == 0.5 and t.data[4] == 1.5

    def test_close_updates_t1_and_status(self):
        t = SpanTable()
        sid = t.append(SPAN_FLIGHT, 1, 2, 0.5, 9.9, -1, STATUS_PENDING)
        t.close(sid, 1.25, STATUS_DONE)
        span = t.row(sid)
        assert span.t1 == 1.25
        assert span.status == STATUS_DONE
        assert span.duration == pytest.approx(0.75)

    def test_capacity_drops_and_counts(self):
        t = SpanTable(capacity=2)
        assert t.append(SPAN_TIMER, 0, -1, 0.0, 0.0, -1, STATUS_DONE) == 0
        assert t.append(SPAN_TIMER, 0, -1, 1.0, 1.0, -1, STATUS_DONE) == 1
        assert t.append(SPAN_TIMER, 0, -1, 2.0, 2.0, -1, STATUS_DONE) == -1
        assert len(t) == 2
        assert t.dropped == 1

    def test_columns_and_counts(self):
        t = SpanTable()
        t.append(SPAN_FLIGHT, 1, 2, 0.0, 1.0, -1, STATUS_DONE)
        t.append(SPAN_JUMP, 2, -1, 1.0, 1.0, 0, STATUS_DONE, 0.25)
        assert t.kind == [SPAN_FLIGHT, SPAN_JUMP]
        assert t.node == [1, 2]
        assert t.detail[1] == 0.25
        assert t.count(SPAN_FLIGHT) == 1
        assert t.kind_counts[SPAN_JUMP] == 1
        assert [s.kind for s in list(t.rows())] == [SPAN_FLIGHT, SPAN_JUMP]

    def test_blocks_and_lists_read_as_one_table(self):
        """A column block takes the ids after the open list segment; the
        list rows written after it continue from its end, and readers,
        closes and counts see one table of Python ints and floats."""
        t = SpanTable()
        t.append(SPAN_TIMER, 0, -1, 1.0, 1.0, -1, STATUS_DONE)
        block = (
            np.array([SPAN_TIMER, SPAN_FLIGHT]), np.array([1, 1]), np.array([-1, 2]),
            np.full(2, 2.0), np.array([2.0, 2.5]), np.array([-1, 1]),
            np.full(2, STATUS_DONE), np.zeros(2),
        )
        assert t.write_block(block) == 1 and len(t) == 3
        assert t.append(SPAN_FLIGHT, 3, 4, 3.0, 3.5, -1, STATUS_DONE) == 3
        assert t.base == 3 and len(t.data) == STRIDE
        assert t.kind == [SPAN_TIMER, SPAN_TIMER, SPAN_FLIGHT, SPAN_FLIGHT]
        assert t.parent == [-1, -1, 1, -1]
        assert {type(x) for x in t.node + t.parent} == {int}
        assert {type(x) for x in t.t0 + t.t1} == {float}
        assert t.row(2) == Span(2, SPAN_FLIGHT, 1, 2, 2.0, 2.5, 1, STATUS_DONE, 0.0)
        assert [s.span_id for s in t.rows()] == [0, 1, 2, 3]
        t.close(2, 2.25, STATUS_DROPPED)
        assert (t.row(2).t1, t.row(2).status) == (2.25, STATUS_DROPPED)
        t.close_many([3, 2], STATUS_PENDING)
        assert t.status == [STATUS_DONE, STATUS_DONE, STATUS_PENDING, STATUS_PENDING]
        assert t.t1 == [1.0, 2.0, 2.25, 3.5]
        assert t.kind_counts[SPAN_FLIGHT] == 2 and t.count(SPAN_TIMER) == 2


class TestTracerHooks:
    def test_flight_lifecycle_carried_sid(self):
        tr = Tracer()
        sid = tr.flight_send(3, 4, 1.0, 1.5)
        assert sid == 0
        assert tr.table.row(sid).status == STATUS_PENDING
        tr.flight_deliver(sid, 1.5)
        assert tr.table.row(sid).status == STATUS_DONE
        assert tr.current == sid  # delivery enters the causal scope
        tr.reset_current()
        assert tr.current == -1

    def test_flight_drop(self):
        tr = Tracer()
        sid = tr.flight_send(3, 4, 1.0, 1.5)
        tr.flight_drop(sid, 1.2)
        span = tr.table.row(sid)
        assert span.status == STATUS_DROPPED
        assert span.t1 == 1.2

    def test_capacity_returns_minus_one_and_closes_are_noops(self):
        tr = Tracer(capacity=1)
        assert tr.flight_send(0, 1, 0.0, 1.0) == 0
        sid = tr.flight_send(1, 2, 0.0, 1.0)
        assert sid == -1
        assert tr.table.dropped == 1
        tr.flight_deliver(sid, 1.0)  # must not raise
        assert len(tr.table) == 1

    def test_timer_parents_spans(self):
        tr = Tracer()
        tr.timer_fired(5, 2.0)
        timer_sid = tr.current
        assert tr.table.row(timer_sid).kind == SPAN_TIMER
        flight = tr.flight_send(5, 6, 2.0, 2.5)
        assert tr.table.row(flight).parent == timer_sid
        tr.jump(5, 2.0, 0.125)
        jump = tr.table.row(len(tr.table) - 1)
        assert jump.kind == SPAN_JUMP and jump.parent == timer_sid
        assert jump.detail == 0.125

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

    def test_dag_has_parented_spans(self):
        with trace_session() as tr:
            run_experiment(configs.static_path(8, horizon=60.0, seed=3))
        table = tr.table
        kinds, parents = table.kind, table.parent
        timer_parented_flights = sum(
            1
            for i in range(len(table))
            if kinds[i] == SPAN_FLIGHT
            and parents[i] >= 0
            and kinds[parents[i]] == SPAN_TIMER
        )
        delivery_parented = sum(
            1
            for i in range(len(table))
            if parents[i] >= 0 and kinds[parents[i]] == SPAN_FLIGHT
        )
        assert timer_parented_flights > 0  # ticks cause sends
        assert delivery_parented > 0  # deliveries cause jumps/sends
        assert table.count(SPAN_JUMP) > 0
        assert table.count(SPAN_DISCOVER) > 0

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

    def test_remaining_observer_declines_name_the_observer(self, monkeypatch):
        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", True)
        cfg = configs.huge_sync_ring(16, horizon=5.0)
        exp = Experiment(cfg)
        exp.nodes[3].effect_log = []
        assert exp.run().batch_gate_reason == "node 3 has an effect log attached"

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
        flights = table.count(SPAN_FLIGHT)
        assert flights > 0
        # Loopback, no churn: every sent message is delivered and closed.
        kinds, status = table.kind, table.status
        closed = sum(
            1
            for i in range(len(table))
            if kinds[i] == SPAN_FLIGHT and status[i] == STATUS_DONE
        )
        assert closed == res.transport_stats["delivered"]
        assert table.count(SPAN_TIMER) > 0


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
        assert res.spans.count(SPAN_VIOLATION) >= len(rep.violations)

    def test_top_cause_is_a_masked_causal_chain(self, explained):
        res, reports = explained
        assert reports and res.cause_reports == reports
        top = reports[0].top
        assert top is not None
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

    def test_explain_without_violations_is_empty(self):
        with trace_session():
            res = run_experiment(configs.static_path(8, horizon=30.0, seed=3))
        assert explain_result(res) == []
        assert res.cause_reports == []
