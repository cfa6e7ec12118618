#!/usr/bin/env python3
"""Run the Section 4 lower-bound constructions end to end.

Part 1 — the Masking Lemma (Lemma 4.2): build the indistinguishable
executions alpha (perfect clocks, shifted delays) and beta (layered drifted
clocks, disguised delays), verify *numerically* that the real DCSA
implementation cannot tell them apart, and show the adversary extracting
skew T * dist_M between the chain ends.

Part 2 — Figure 1 / Theorem 4.1: the two-chain network with blocked end
segments; Omega(n) skew builds across chain A while every B-chain hop stays
small; Lemma 4.3 picks B-chain nodes whose clocks differ by ~I; new edges
appear between them at T1; the script reports the per-panel quantities and
how long the algorithm took to pull each new edge under the stable bound.

Usage::

    python examples/lower_bound_demo.py [n]
"""

from __future__ import annotations

import sys

from repro import SystemParams
from repro.analysis import TextTable
from repro.lowerbound import run_figure1_experiment, run_masking_experiment


def main(n: int = 16) -> None:
    params = SystemParams.for_network(n, rho=0.05)

    print("=" * 64)
    print("Part 1: the Masking Lemma (Lemma 4.2)")
    print("=" * 64)
    res = run_masking_experiment(params, constrained_prefix=2)
    print(f"chain of {res.n} nodes, first 2 edges delay-pinned at T")
    print(f"flexible distance dist_M(0, {n - 1}) = {res.flexible_distance}")
    print(
        "indistinguishability |L^beta(t) - L^alpha(H^beta(t))| = "
        f"{res.indistinguishability_error:.2e}  (proof's device, checked "
        "against the real implementation)"
    )
    table = TextTable(["execution", "skew(0, n-1)"], title="measured end skew")
    table.add_row(["alpha", abs(res.skew_alpha)])
    table.add_row(["beta", abs(res.skew_beta)])
    print(table.render())
    print(
        f"max = {res.skew:.3f}  >=  proven floor T*d/4 = {res.floor:.3f}  "
        f"(met: {res.floor_met})"
    )

    print()
    print("=" * 64)
    print("Part 2: Figure 1 / Theorem 4.1 (two chains + new edges)")
    print("=" * 64)
    fig = run_figure1_experiment(params, k=1, sample_interval=1.0)
    print(f"n={fig.n}, k={fig.k}, T1={fig.t1:.1f}, T2={fig.t2:.1f}")
    print()
    print("panel (a): skew across chain A at T2")
    print(f"  |L_u - L_v|    = {fig.skew_uv_t2:.3f}   (u={fig.u_node}, v={fig.v_node})")
    print(f"  |L_w0 - L_wn|  = {fig.skew_w0_wn_t2:.3f}")
    print()
    print("panel (d): corner logical clocks at T1")
    for name, val in fig.corner_clocks_t1.items():
        print(f"  L_{name:<3} = {val:10.3f}")
    print()
    print(
        f"panels (b)+(c): new B-chain edges (I = {fig.requested_initial_skew:.2f}, "
        f"per-hop slack d = {fig.gap_slack:.2f})"
    )
    table = TextTable(
        ["edge", "initial skew (T1)", "skew at T2", "settle age", "final skew"],
    )
    for e in fig.new_edges:
        table.add_row(
            [str(e.edge), e.initial_skew, e.skew_at_t2, e.reduction_time, e.final_skew]
        )
    print(table.render())
    print(f"stable bound s_bar(n)           : {fig.stable_skew:.3f}")
    print(f"guaranteed settle (Cor 6.14)    : {fig.theory_reduction_ceiling:.1f}")
    print(f"Thm 4.1 time-scale lambda*n/s   : {fig.theory_reduction_floor:.4f}")
    print()
    print("note: paper constants are asymptotic; at laptop n the scenario")
    print("demonstrates the construction's *structure* (see the scale note")
    print("in docs/reproduction.md).")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
