"""The seven benchmark workloads, and the child process that measures one.

``run.py`` launches this file once per repetition (a fresh interpreter per
repetition, one at a time).  The child builds the workload's config from
the seed, times set-up and run from outside the program, checks the
outputs, and prints one JSON record as the last line of stdout.  With
``--trace 1`` it first installs the wrappers of :mod:`spantrace` and adds the
per-layer numbers to the record.

All workloads are closed-loop with a single generator: the simulator (or
the asyncio loop) takes its next event only after the previous one
completed.  Host time (wall, CPU) and simulated statistics (event counts,
skews, margins) are never mixed: everything timed here is host time.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import repro
from repro.harness import configs
from repro.harness.registry import OracleRef
from repro.harness.runner import Experiment, ExperimentConfig
from repro.live.driver import build_live_runtime
from repro.network.churn import ScriptedChurn
from repro.obs.timeline import activate_timeline, active_timeline, deactivate_timeline
from repro.sim.par import run_par
from repro.telemetry.registry import get_registry
from repro.tracing import activate_tracing, deactivate_tracing

from spantrace import HANDLER_SPANS, ROOT_LIVE, SpanTracer

ChurnEvent = tuple[float, str, int, int]

#: Fixed at 2 regardless of ``nproc`` so counts compare across hosts.
PAR_SHARDS = 2

#: A set-up faster than ``CHEAP_SETUP_S`` is repeated for
#: ``SETUP_REPEAT_S`` more (see :func:`measure`).
CHEAP_SETUP_S = 0.05
SETUP_REPEAT_S = 0.25


# ---------------------------------------------------------------------- #
# Host-speed calibration
# ---------------------------------------------------------------------- #

#: Median chunk times of the two kernels below at a quiet moment on the
#: host class of the first results (Xeon @ 2.10 GHz vCPU, CPython 3.11).
#: Only their constancy matters: they turn a chunk time into a ratio near 1.
REF_SPIN_S = 0.0045
REF_HEAP_S = 0.0040
CALIBRATE_S = 0.2


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


class HostSpeed:
    """How much slower than the reference host this one runs *right now*.

    A shared 2-vCPU host slows down in phases: the same code takes 1.0-2x
    its fastest time, for seconds or for an hour, CPU time inflating with
    wall time.  Two fixed kernels timed beside a repetition -- interpreter
    arithmetic, and heap + dict + attribute traffic like the simulator's
    own -- follow those phases (correlation 0.7-0.9 with the repetition's
    run time when the host is noisy), so dividing by their slowdown takes
    most of the host out of a time.  The kernels are the benchmark's, not
    the program's: no change to the program moves them.
    """

    def __init__(self) -> None:
        self._heap = [(float(i % 9973) * 0.37, i, _Cell(i, i)) for i in range(12000)]
        heapq.heapify(self._heap)
        self._cells = {i: _Cell(i, i) for i in range(4096)}

    @staticmethod
    def _spin() -> None:
        x = 0
        for i in range(100_000):
            x += i * i

    def _heap_traffic(self) -> None:
        heap, cells = self._heap, self._cells
        pop, push = heapq.heappop, heapq.heappush
        for _ in range(5000):
            t, i, cell = pop(heap)
            other = cells[i & 4095]
            other.a += 1
            other.b = cell.b
            push(heap, (t + 1.37, i, cell))

    def sample(self) -> float:
        """Geometric mean over the kernels of median chunk time / reference."""
        clock = time.perf_counter
        spin: list[float] = []
        heap: list[float] = []
        deadline = clock() + CALIBRATE_S
        while clock() < deadline:
            t0 = clock()
            self._spin()
            t1 = clock()
            self._heap_traffic()
            spin.append(t1 - t0)
            heap.append(clock() - t1)
        return math.sqrt(
            statistics.median(spin) / REF_SPIN_S * statistics.median(heap) / REF_HEAP_S
        )


# ---------------------------------------------------------------------- #
# Input generation (the program only ever sees the generated config)
# ---------------------------------------------------------------------- #


def churn_script(
    n: int, flips: int, t_lo: float, t_hi: float, seed: int
) -> list[ChurnEvent]:
    """Chord add/remove flips on an ``n``-ring: a pure function of ``seed``.

    Times are distinct and uniform in ``[t_lo, t_hi]``; each flip removes a
    present chord or adds an absent one with equal odds.  Ring edges are
    never touched (the backbone keeps the connectivity premise), and
    distinct times mean no edge is removed and re-added at one instant.
    """
    rng = np.random.default_rng(seed)
    times = np.unique(rng.uniform(t_lo, t_hi, size=flips))
    present: list[tuple[int, int]] = []
    members: set[tuple[int, int]] = set()
    script: list[ChurnEvent] = []
    for t in times.tolist():
        if present and rng.random() < 0.5:
            i = int(rng.integers(len(present)))
            edge = present[i]
            present[i] = present[-1]
            present.pop()
            members.discard(edge)
            script.append((t, "remove", edge[0], edge[1]))
            continue
        while True:
            u, v = sorted(int(x) for x in rng.integers(n, size=2))
            if 2 <= v - u < n - 1 and (u, v) not in members:
                break
        present.append((u, v))
        members.add((u, v))
        script.append((t, "add", u, v))
    return script


def _churn_ring(seed: int) -> list[ExperimentConfig]:
    cfg = configs.huge_sync_ring(8192, horizon=8.0, seed=seed)
    script = churn_script(8192, 1000, 1.0, 7.0, seed)
    return [replace(cfg, churn=[ScriptedChurn(script)])]


def _paper_suite(seed: int) -> list[ExperimentConfig]:
    c = configs
    h = 100.0
    suite = [
        c.static_path(32, horizon=h, seed=seed),
        c.edge_insertion(32, t_insert=h / 4, horizon=h, seed=seed),
        c.backbone_churn(32, horizon=h, seed=seed),
        c.rotating_backbone(16, horizon=h, seed=seed),
        c.mobile_network(32, horizon=h, seed=seed),
        c.flapping_edges(32, horizon=h, seed=seed),
        c.two_chain_insertion(32, t_insert=h / 4, horizon=h, seed=seed),
        c.adversarial_drift(32, horizon=h, seed=seed),
        c.greedy_topology(16, horizon=h, seed=seed),
    ]
    return [replace(cfg, oracle=OracleRef("standard", {})) for cfg in suite]


# ---------------------------------------------------------------------- #
# Workload table
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    """One named input set (why it exists is recorded in ``BENCHMARK.json``)."""

    name: str
    build: Callable[[int], list[ExperimentConfig]]
    runtime: str = "sim"  # "sim" | "par" | "live"
    #: Run with the program's own tracing, timeline and telemetry active.
    observed: bool = False
    #: The struct-of-arrays fast path must engage (a silent scalar
    #: fallback must fail, not get slower).
    expect_batch: bool = False


#: Sizes are set so one repetition's run phase takes ~2 s on a 2-CPU host:
#: the driver repeats it for ``--seconds`` and reports medians.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scalar_drift_ring",
            lambda seed: [configs.huge_ring(4096, horizon=6.0, seed=seed)],
        ),
        Workload(
            "batch_sync_grid",
            lambda seed: [configs.huge_sync_grid(128, 128, horizon=6.0, seed=seed)],
            expect_batch=True,
        ),
        Workload("batch_churn_ring", _churn_ring, expect_batch=True),
        Workload(
            "observed_sync_ring",
            lambda seed: [
                configs.huge_sync_ring(
                    4096, horizon=10.0, sample_interval=0.25, seed=seed
                )
            ],
            observed=True,
        ),
        Workload(
            "par_sync_ring",
            lambda seed: [configs.huge_sync_ring(16384, horizon=6.0, seed=seed)],
            runtime="par",
            expect_batch=True,
        ),
        Workload("paper_suite", _paper_suite),
        Workload(
            "live_loopback_ring",
            lambda seed: [
                configs.live_ring(128, duration=2.5, sample_interval=0.25, seed=seed)
            ],
            runtime="live",
        ),
    )
}


# ---------------------------------------------------------------------- #
# Engines: how each runtime is set up and run, timed from outside
# ---------------------------------------------------------------------- #


def _par_probe(cfg: ExperimentConfig) -> ExperimentConfig:
    """``run_par`` truncated to one lookahead window: fork, worker
    construction and teardown -- the set-up that is measurable from
    outside.  It is not part of the timed run."""
    run_par(replace(cfg, horizon=cfg.params.max_delay / 4), shards=PAR_SHARDS)
    return cfg


#: runtime -> (set-up, run).  Par's set-up is the probe above, so its
#: wall and CPU stay outside ``total_wall_s`` / ``cpu_us_per_event``.
ENGINES: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "sim": (Experiment, lambda exp: exp.run()),
    "par": (_par_probe, lambda cfg: run_par(cfg, shards=PAR_SHARDS)),
    "live": (build_live_runtime, lambda runtime: runtime.run()),
}


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sim_digest(result: Any, horizon: float) -> str:
    """sha256 over the simulated statistics that must repeat exactly."""
    report = result.oracle_report
    h = hashlib.sha256()
    h.update(
        repr(
            (
                result.events_dispatched,
                sorted(result.transport_stats.items()),
                report.checks,
                report.violation_count,
                result.total_jumps(),
            )
        ).encode()
    )
    for i in sorted(result.nodes):
        node = result.nodes[i]
        h.update(
            repr((node.logical_clock(horizon), node.max_estimate(horizon))).encode()
        )
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# One repetition
# ---------------------------------------------------------------------- #


def measure(workload: Workload, seed: int, trace: bool) -> dict[str, Any]:
    """Run ``workload`` once; return the repetition record."""
    setup, run = ENGINES[workload.runtime]
    live = workload.runtime == "live"
    par = workload.runtime == "par"
    Experiment(configs.static_ring(8, horizon=5)).run()  # throw-away warm-up

    asserts: list[dict[str, Any]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        asserts.append({"name": name, "ok": bool(ok), "detail": detail})

    tracer = SpanTracer() if trace else None
    registry = get_registry()
    # A fresh calibrator each time: the first is garbage before the
    # workload allocates, so it stays out of ``peak_rss_mb``.
    slowdown_before = HostSpeed().sample()
    try:
        if tracer is not None:
            {
                "sim": tracer.install_sim,
                "par": tracer.install_par_coordinator,
                "live": tracer.install_live,
            }[workload.runtime]()
        if trace or workload.observed:
            registry.enable()
        if workload.observed:
            activate_tracing()
            activate_timeline()
        t_begin = time.perf_counter()
        cfgs = workload.build(seed)
        setup_s = run_s = cpu_s = excluded_s = 0.0
        events = checks = violations = jumps = messages = 0
        transport: dict[str, int] = {}
        margins: dict[str, float] = {}
        skews: list[tuple[float, float]] = []
        digests: list[str] = []
        gate_reasons: list[str | None] = []
        snapshots: list[dict[str, Any]] = []
        for cfg in cfgs:
            registry.reset()  # each sub-run registers its own readbacks
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            handle = setup(cfg)
            t1 = time.perf_counter()
            if par:
                cpu0 = _cpu_seconds()
                excluded_s += t1 - t0
                if tracer is not None:
                    tracer.reset()  # the probe's pipe calls are set-up
            result = run(handle)
            t2 = time.perf_counter()
            cpu_s += _cpu_seconds() - cpu0
            setup_s += t1 - t0
            run_s += t2 - t1
            # Result extraction: what a user reads off a finished run.
            report = result.oracle_report
            events += result.events_handled if live else result.events_dispatched
            checks += report.checks
            violations += report.violation_count
            if cfg.record:
                skews.append((result.max_global_skew, result.max_local_skew))
            # Untimed from here: the benchmark's own checks and readouts.
            t3 = time.perf_counter()
            jumps += result.total_jumps()
            messages += sum(node.messages_sent for node in result.nodes.values())
            for key, value in result.transport_stats.items():
                transport[key] = transport.get(key, 0) + value
            for name, summary in report.monitors.items():
                if summary.worst_margin is not None:
                    margins[name] = min(
                        margins.get(name, summary.worst_margin), summary.worst_margin
                    )
            if live:
                check("live.events_handled", result.events_handled > 0)
                check(
                    "live.delivered_le_sent",
                    result.transport_stats["delivered"]
                    <= result.transport_stats["sent"],
                )
            else:
                digests.append(sim_digest(result, cfg.horizon))
                gate_reasons.append(result.batch_gate_reason)
            if par:
                check(
                    "par.sharded",
                    result.par_fallback_reason is None
                    and result.par_shards == PAR_SHARDS,
                    str(result.par_fallback_reason),
                )
            if registry.enabled:
                snapshots.append(registry.snapshot())
            excluded_s += time.perf_counter() - t3
        total_wall_s = time.perf_counter() - t_begin - excluded_s
        peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
        host_slowdown = (slowdown_before + HostSpeed().sample()) / 2
        if setup_s < CHEAP_SETUP_S:
            # Milliseconds of set-up are mostly timer and allocator jitter:
            # keep setting up (fresh configs, nothing run) for
            # ``SETUP_REPEAT_S`` and let the fastest count.
            deadline = time.perf_counter() + SETUP_REPEAT_S
            while time.perf_counter() < deadline:
                fresh = workload.build(seed)
                t0 = time.perf_counter()
                handles = [setup(cfg) for cfg in fresh]
                setup_s = min(setup_s, time.perf_counter() - t0)
                del handles
        if workload.expect_batch:
            check("batch.engaged", gate_reasons == [None], str(gate_reasons))

        record: dict[str, Any] = {
            "workload": workload.name,
            "seed": seed,
            "traced": trace,
            "events": events,
            "run_wall_s": run_s,
            "total_wall_s": total_wall_s,
            "cpu_s": cpu_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "host_slowdown": host_slowdown,
            # The live runtime's wall clock is set by its own timers.
            "paced": live,
            "oracle_checks": checks,
            "oracle_violations": violations,
            "asserts": asserts,
            "digest": (
                None
                if live
                else hashlib.sha256("".join(digests).encode()).hexdigest()
            ),
            "batch_gate_reasons": gate_reasons,
            "skews": skews,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "repro_version": repro.__version__,
            },
        }
        if tracer is not None:
            record["layers"] = layer_metrics(
                tracer, snapshots, events=events, transport=transport,
                margins=margins, checks=checks, violations=violations,
                jumps=jumps, messages=messages, run_s=run_s,
                gate_open=gate_reasons == [None],
            )
            record["span_table"] = tracer.rows()
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload.observed:
            deactivate_tracing()
            deactivate_timeline()
        registry.disable()
        registry.reset()


# ---------------------------------------------------------------------- #
# Per-layer readout (traced run only)
# ---------------------------------------------------------------------- #


def _histogram_quantile(hist: dict[str, Any], q: float) -> float:
    """Upper bound of the bucket holding quantile ``q`` (max for overflow)."""
    count = hist["count"]
    if not count:
        return 0.0
    seen = 0
    for bound, bucket in zip([*hist["bounds"], hist["max"]], hist["counts"]):
        seen += bucket
        if seen >= q * count:
            return float(min(bound, hist["max"]))
    return float(hist["max"])


def layer_metrics(
    tracer: SpanTracer,
    snapshots: list[dict[str, Any]],
    *,
    events: int,
    transport: dict[str, int],
    margins: dict[str, float],
    checks: int,
    violations: int,
    jumps: int,
    messages: int,
    run_s: float,
    gate_open: bool,
) -> dict[str, float]:
    """Flatten spans, the program's public counters and results by layer."""
    out: dict[str, float] = {}
    spans = tracer.spans()
    for name, row in spans.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]

    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, Any] = {}
    for snap in snapshots:
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
        gauges.update({k: v for k, v in snap["gauges"].items() if v is not None})
        hists.update(snap["histograms"])

    for key, value in counters.items():
        if key.startswith("kernel.dispatched."):
            out["sim.simulator.dispatched." + key.rsplit(".", 1)[1]] = value
    out["sim.simulator.batch_dispatches"] = counters.get("kernel.batch_dispatches", 0)
    # One kernel dispatch hands a batch of >= 1 events to a handler: a
    # wrapped handler call under the run loop, or one callback / sample /
    # topology record.
    dispatches = sum(
        row["calls"] for name, row in spans.items() if name in HANDLER_SPANS
    ) + sum(
        counters.get(f"kernel.dispatched.{kind}", 0)
        for kind in ("callback", "sample", "topology")
    )
    if dispatches:
        out["sim.simulator.events_per_batch_dispatch"] = events / dispatches
    pushes = counters.get("kernel.record_pushes", 0)
    if pushes:
        allocations = counters.get("kernel.record_allocations", 0)
        out["sim.queue.pushes"] = pushes
        out["sim.queue.allocations"] = allocations
        out["sim.queue.pool_hit_ratio"] = 1.0 - allocations / pushes

    for key, value in transport.items():
        out[f"network.transport.{key}"] = value
    out["network.transport.edge_flips"] = counters.get("transport.edge_flips", 0)
    if transport.get("sent"):
        out["network.transport.delivery_ratio"] = (
            transport["delivered"] / transport["sent"]
        )

    batch_calls = sum(
        row["calls"] for name, row in spans.items() if name.startswith("core.batch.")
    )
    # Shard workers run the batch kernel out of the coordinator's sight.
    sharded = "par.window" in gauges
    out["core.batch.engaged"] = float(gate_open and (batch_calls > 0 or sharded))
    out["core.protocol.jumps"] = jumps
    out["core.protocol.messages_sent"] = messages

    out["oracle.samples"] = counters.get("oracle.samples", 0)
    out["oracle.checks"] = checks
    out["oracle.violations"] = violations
    for name, margin in margins.items():
        out[f"oracle.worst_margin.{name}"] = margin

    timeline = active_timeline()
    if timeline is not None:
        out["obs.timeline.rows"] = timeline.rows
    for key in ("tracing.spans", "tracing.dropped"):
        if key in counters:
            out[key] = counters[key]

    if sharded:
        busy = [
            v for k, v in gauges.items()
            if k.startswith("par.shard") and k.endswith(".busy_seconds")
        ]
        wait = [
            v for k, v in gauges.items()
            if k.startswith("par.shard") and k.endswith(".barrier_wait_seconds")
        ]
        out["sim.par.windows"] = gauges["par.window"] + 1
        out["sim.par.envelopes"] = sum(
            v for k, v in counters.items()
            if k.startswith("par.shard") and k.endswith(".envelopes_out")
        )
        out["sim.par.busy_s.max"] = max(busy)
        out["sim.par.busy_s.sum"] = sum(busy)
        out["sim.par.barrier_wait_s.sum"] = sum(wait)
        out["sim.par.utilization"] = gauges["par.utilization"]
        out["sim.par.worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        recv = spans.get("sim.par.coord_recv", {}).get("total_s", 0.0)
        out["sim.par.coord_recv_share"] = recv / run_s

    if ROOT_LIVE in spans:
        lag = hists.get("live.timer_lag_s")
        if lag is not None:
            out["live.runtime.timer_lag_s.p50"] = _histogram_quantile(lag, 0.50)
            out["live.runtime.timer_lag_s.p99"] = _histogram_quantile(lag, 0.99)
        out["live.runtime.inbox_max"] = gauges.get("live.inbox_max", 0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = measure(WORKLOADS[args.workload], args.seed, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
