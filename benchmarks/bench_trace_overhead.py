"""Experiment: causal tracing overhead on both dispatch kernels.

PR 7's tracer (repro.tracing) hooks every message flight, timer fire and
jump on the simulator's hot path.  The design contract is that tracing is
(a) bit-identical -- hooks draw no RNG and schedule nothing -- and (b)
cheap: one ``list.extend`` per span against the flat stride-8 table,
written optimistically closed so deliveries touch nothing.  This
benchmark measures exactly that contract on two arms and fails if either
overhead budget is blown:

* **scalar** -- ``huge_ring`` (drifting clocks, one ``handle()`` per
  event): traced within 10% of the untraced wall clock;
* **batch** -- ``huge_sync_ring`` on the struct-of-arrays path, where the
  tracer rides the burst records instead of evicting them: both runs
  must keep the batch gate open, and traced stays within 35% (the same
  ~230k rows against a ~4x cheaper event).

**Measurement protocol.**  Shared-machine wall clocks drift by tens of
percent over seconds, so single before/after timings are meaningless.
Each traced run is paired with an immediately preceding untraced run
(adjacent runs share the machine's current speed, so their ratio cancels
the drift) and the reported overhead is the *median of the paired
ratios* -- robust to the occasional descheduled outlier in either arm.
A full garbage collection runs before every timed run; the harness
itself pauses the collector around the event loop.

Both runs execute inline (never through the sweep cache -- wall-clock is
the measurement); the traced runs also sanity-check the span table: one
flight span per transport send, zero spans lost to capacity.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.analysis import TextTable
from repro.harness import configs, run_experiment
from repro.tracing import SPAN_FLIGHT, trace_session

from _common import emit, run_once, write_bench_json

SEED = 1
#: Interleaved (untraced, traced) pairs; overhead = median of ratios.
PAIRS = 9

#: ``name -> (config, overhead budget)``; budgets are traced wall-clock
#: over untraced, minus one.
ARMS = {
    "scalar": (lambda: configs.huge_ring(512, horizon=30.0, seed=SEED), 0.10),
    "batch": (
        lambda: configs.huge_sync_ring(4096, horizon=10.0, seed=SEED),
        0.35,
    ),
}


def _run_arm(name: str) -> tuple[list[str], str, bool, dict]:
    make, budget = ARMS[name]
    cfg = make()
    run_experiment(cfg)  # warmup: imports, allocator, branch caches

    ratios: list[float] = []
    base_times: list[float] = []
    traced_times: list[float] = []
    base = traced = None
    for _ in range(PAIRS):
        gc.collect()
        t0 = time.perf_counter()
        base = run_experiment(cfg)
        base_times.append(time.perf_counter() - t0)
        gc.collect()
        with trace_session():
            t0 = time.perf_counter()
            traced = run_experiment(cfg)
            traced_times.append(time.perf_counter() - t0)
        ratios.append(traced_times[-1] / max(base_times[-1], 1e-9))
    assert base is not None and traced is not None
    overhead = statistics.median(ratios) - 1.0

    # Neutrality spot-check: identical physics with and without the
    # tracer, on the same kernel (the batch arm must keep the gate open).
    identical = (
        base.events_dispatched == traced.events_dispatched
        and base.total_jumps() == traced.total_jumps()
        and base.transport_stats == traced.transport_stats
        and base.batch_gate_reason == traced.batch_gate_reason
    )
    gate_open = traced.batch_gate_reason is None
    spans = traced.spans
    assert spans is not None
    flights = spans.kind_counts[SPAN_FLIGHT]
    sends = int(traced.transport_stats["sent"])
    accounted = flights == sends and spans.dropped == 0

    within_budget = overhead <= budget
    ok = within_budget and identical and accounted
    if name == "batch":
        ok = ok and gate_open

    base_med = statistics.median(base_times)
    traced_med = statistics.median(traced_times)
    rows = [
        [name, "untraced", f"{base_med:.3f}",
         round(base.events_dispatched / max(base_med, 1e-9)), "-"],
        [name, "traced", f"{traced_med:.3f}",
         round(traced.events_dispatched / max(traced_med, 1e-9)), len(spans)],
    ]
    note = (
        f"{name} ({cfg.name}): overhead (median of paired ratios) "
        f"{overhead:+.2%} (budget {budget:.0%}) -- "
        f"{'PASS' if within_budget else 'FAIL'}; "
        f"physics identical: {identical}; "
        f"batch kernel declined: {traced.batch_gate_reason}; "
        f"{flights} flight spans for {sends} sends, {spans.dropped} lost\n"
    )
    payload = {
        "workload": cfg.name,
        "n": cfg.params.n,
        "horizon": cfg.horizon,
        "paired_ratios": [round(r, 4) for r in ratios],
        "untraced_seconds": base_med,
        "traced_seconds": traced_med,
        "overhead": overhead,
        "overhead_budget": budget,
        "batch_gate_reason": traced.batch_gate_reason,
        "events_dispatched": base.events_dispatched,
        "spans": len(spans),
        "flight_spans": flights,
        "spans_dropped": spans.dropped,
        "identical_physics": identical,
        "ok": ok,
    }
    return rows, note, ok, payload


def _run_overhead() -> tuple[str, bool, dict]:
    table = TextTable(
        ["arm", "mode", "median s", "events/sec", "spans"],
        title=f"tracing overhead ({PAIRS} interleaved pairs per arm)",
    )
    notes = ""
    arms = {}
    for name in ARMS:
        rows, note, _, arms[name] = _run_arm(name)
        for row in rows:
            table.add_row(row)
        notes += note
    ok = all(arm["ok"] for arm in arms.values())
    payload = {
        "pairs": PAIRS,
        "arms": arms,
        "ok": ok,
    }
    return table.render() + "\n" + notes, ok, payload


def test_bench_trace_overhead(benchmark):
    txt, ok, payload = run_once(benchmark, _run_overhead)
    emit("trace_overhead", txt)
    write_bench_json("trace_overhead", payload)
    assert ok, (
        "tracing must stay neutral, lossless, on the same kernel and "
        "within each arm's budget"
    )
