#!/usr/bin/env python3
"""The Section 1 motivating example: a new edge between distant nodes.

A path network of n nodes runs under worst-case message delays until the
clocks settle; then an edge appears between the two ends. The new edge
inherits whatever skew the endpoints had (up to Theta(n) in the worst case)
and the algorithm must work it off *gradually* — a sudden jump would
violate the stable bound on the old path's edges.

The script prints the new edge's skew trajectory against the dynamic local
skew envelope s(n, I, edge age) of Corollary 6.13 and reports when the edge
reaches the stable bound, comparing with the theory's stabilization time.

Usage::

    python examples/edge_insertion.py [n] [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis import TextTable
from repro.core import skew_bounds as sb
from repro.harness import configs, run_experiment
from repro.lowerbound import settle_age


def main(n: int = 24, seed: int = 0) -> None:
    t_insert = 60.0
    cfg = configs.edge_insertion(n, t_insert=t_insert, seed=seed, oracle=True)
    print(
        f"path of {n} nodes, worst-case delays, split extremal clocks; "
        f"edge (0, {n - 1}) appears at t = {t_insert}"
    )
    res = run_experiment(cfg)
    params = res.params

    episodes = res.record.episodes_for(0, n - 1)
    assert episodes, "insertion episode missing"
    ep = episodes[-1]

    table = TextTable(
        ["edge age", "measured skew", "envelope s(n,I,age)", "within?"],
        title=f"new edge (0, {n - 1}) skew vs the Cor 6.13 envelope",
    )
    marks = np.linspace(0, ep.ages[-1], 12)
    for m in marks:
        i = int(np.argmin(np.abs(ep.ages - m)))
        age = float(ep.ages[i])
        skew = float(ep.skews[i])
        bound = sb.dynamic_local_skew(params, age)
        table.add_row([age, skew, bound, skew <= bound + 1e-9])
    print()
    print(table.render())

    stable = sb.stable_local_skew(params)
    settled = settle_age(list(zip(ep.ages, ep.skews)), 0.0, stable)
    print(f"stable local skew bound  : {stable:.3f}")
    print(f"measured settle age      : {settled if settled is None else round(settled, 2)}")
    print(f"guaranteed settle age    : {sb.stabilization_time(params):.2f}  (Cor 6.14: Theta(n/B0))")
    print(f"lower-bound time scale   : {sb.lb_reduction_time(params):.4f}  (Thm 4.1: Omega(n/s_bar))")

    env = res.oracle_report.monitors["envelope"]
    print(
        f"\nenvelope check across ALL edges: {env.checks} samples, "
        f"{env.violations} violations (worst ratio {env.extras['worst_ratio']:.3f})"
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    main(n, seed)
