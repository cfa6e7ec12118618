#!/usr/bin/env python3
"""Quickstart: synchronize clocks on a small dynamic network.

Runs the paper's dynamic gradient clock synchronization algorithm (DCSA) on
a 12-node ring whose chordal edges are randomly rewired while the run is in
progress, prints the skew summary against the proven bounds, sweeps the
same workload over sizes and seeds in parallel through the cached sweep
engine (docs/sweeps.md), and finishes with a real-time asyncio session of
the same algorithm under the live runtime (docs/live.md).

Usage::

    python examples/quickstart.py [seed]
"""

from __future__ import annotations

import sys

from repro.analysis import TextTable, envelope_violations, gradient_profile
from repro.core import skew_bounds as sb
from repro.harness import configs, run_experiment
from repro.sweep import SweepEngine, SweepSpec, grid, seeds, sweep_table


def main(seed: int = 0) -> None:
    cfg = configs.backbone_churn(
        n=12,
        k_extra=3,
        rewire_interval=5.0,
        horizon=200.0,
        seed=seed,
        clock_spec="random_walk",
    )
    print(f"running {cfg.name} for {cfg.horizon} time units ...")
    result = run_experiment(cfg)
    params = result.params

    print()
    print(result.summary())
    print()

    table = TextTable(
        ["quantity", "measured", "proven bound", "headroom"],
        title="Skew summary (DCSA, 12 nodes, churned ring)",
    )
    g_meas = result.max_global_skew
    g_bound = sb.global_skew_bound(params)
    table.add_row(["global skew", g_meas, g_bound, g_bound / max(g_meas, 1e-12)])
    l_meas = result.max_local_skew
    l_bound = sb.stable_local_skew(params)
    table.add_row(["max edge skew", l_meas, l_bound, l_bound / max(l_meas, 1e-12)])
    print(table.render())

    chk = envelope_violations(result.record, params)
    print(
        f"dynamic local skew envelope (Cor 6.13): {chk.samples_checked} edge "
        f"samples checked, {chk.violations} violations, worst ratio "
        f"{chk.worst_ratio:.3f}"
    )

    profile = gradient_profile(result.record, result.graph, cfg.horizon)
    prof_table = TextTable(["hop distance", "max skew"], title="Gradient profile")
    for d in sorted(profile):
        prof_table.add_row([d, profile[d]])
    print()
    print(prof_table.render())
    print("nearby nodes are tightly synchronized; skew grows with distance —")
    print("this distance-sensitive profile is the 'gradient' property.")

    # A small parallel sweep over the same workload family: 3 sizes x 2
    # seeds across 2 worker processes. Results are bit-identical to a
    # serial run; add store=ResultStore(".sweep-cache") to make reruns
    # instant, or drive the same sweep from the shell:
    #   python -m repro sweep backbone_churn --set horizon=100 \
    #       --grid n=8,12,16 --seeds 2 --processes 2
    print()
    print("sweeping backbone_churn over n x seed on 2 processes ...")
    spec = SweepSpec(
        "backbone_churn",
        base={"horizon": 100.0},
        axes=[grid(n=[8, 12, 16]), seeds(2)],
    )
    swept = SweepEngine(processes=2).run(spec)
    print(
        sweep_table(
            swept,
            columns=["n", "seed", "max_global_skew", "global_skew_bound",
                     "max_local_skew", "stable_local_skew_bound"],
            title="sweep: global/local skew vs proven bounds",
        ).render()
    )

    # Everything above ran inside the discrete-event simulator. The same
    # algorithm cores also run *in real time* -- callbacks on an asyncio loop,
    # wall clocks with artificial drift, loopback or UDP channels -- with
    # the streaming conformance oracle attached online (docs/live.md):
    print()
    print("live asyncio session (1.5 s wall clock, oracle attached) ...")
    live = run_experiment(configs.live_ring(8, duration=1.5, seed=seed))
    print(live.summary())
    # Shell equivalent:  python -m repro live --workload live_ring \
    #     --duration 2 --json
    # Want to watch a run from the inside? Telemetry streams kernel,
    # transport and oracle metrics without perturbing the physics
    # (docs/observability.md):
    #   python -m repro run huge_ring --set n=512 --stats
    #   python -m repro run huge_ring --set n=512 --metrics out.jsonl
    #   python -m repro top out.jsonl
    # Scaling up? The sync workloads engage the struct-of-arrays batch
    # kernel automatically (docs/performance.md; `--shards K` splits a
    # churn-free population across worker processes, bit-identical to the
    # serial kernel and, on every input measured, slower than it):
    #   python -m repro run huge_sync_ring --set n=100000
    # And when you need *why*, not just *how much*: causal tracing
    # records every flight/timer/jump as a happens-before span, exports
    # a Perfetto timeline (open trace.json at https://ui.perfetto.dev),
    # and `repro explain` walks the DAG backward from a bound violation
    # to a ranked cause report:
    #   python -m repro run static_ring --set n=8 horizon=60 seed=3 \
    #       --trace-out trace.json
    #   python -m repro explain adversarial_delay --set n=8 horizon=120 \
    #       seed=1 --bound-scale 0.3


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
