#!/usr/bin/env python3
"""Stress test: arbitrary churn with nothing stable but interval connectivity.

Theorem 6.9 needs only (T+D)-interval connectivity — no edge has to survive.
This example runs the DCSA under the *rotating backbone* adversary: every
time window uses a different random spanning path, so every edge eventually
disappears, plus flapping chords on top. The global skew stays below G(n)
throughout, and the dynamic local skew envelope is honoured on every edge
episode, however short.

Usage::

    python examples/churn_stress.py [n] [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.adversary import scan_interval_connectivity
from repro.analysis import TextTable, global_skew_series
from repro.core import skew_bounds as sb
from repro.harness import configs, run_experiment


def main(n: int = 16, seed: int = 4) -> None:
    horizon = 300.0
    window = 30.0
    cfg = configs.rotating_backbone(
        n, window=window, horizon=horizon, seed=seed, oracle=True
    )
    params = cfg.params
    interval = params.max_delay + params.discovery_bound
    print(
        f"{n} nodes, rotating spanning paths every {window} time units "
        f"(overlap ~{1.2 * interval:.1f}); no edge survives a full window pair"
    )
    res = run_experiment(cfg)

    ok = scan_interval_connectivity(res.graph, interval, horizon - window).ok
    print(f"(T+D)-interval connectivity held: {ok}")
    print(f"edge events during the run: {res.graph.edge_events}")

    series = global_skew_series(res.record)
    times = res.record.times
    table = TextTable(
        ["time", "global skew", "bound G(n)"],
        title="global skew under total churn",
    )
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        i = min(int(frac * (len(times) - 1)), len(times) - 1)
        table.add_row([times[i], series[i], sb.global_skew_bound(params)])
    print()
    print(table.render())
    print(f"peak global skew: {series.max():.3f}  <=  G(n) = "
          f"{sb.global_skew_bound(params):.3f}")

    env = res.oracle_report.monitors["envelope"]
    print(
        f"\nper-edge envelope: {env.checks} samples over "
        f"{len(res.record.episodes)} edge episodes, {env.violations} violations"
    )
    lifetimes = [
        (ep.end_time - ep.add_time)
        for ep in res.record.episodes
        if ep.end_time is not None
    ]
    if lifetimes:
        print(
            f"edge lifetimes: min {min(lifetimes):.1f}, "
            f"median {np.median(lifetimes):.1f}, max {max(lifetimes):.1f} "
            "(every edge is transient)"
        )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(n, seed)
