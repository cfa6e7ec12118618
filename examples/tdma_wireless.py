#!/usr/bin/env python3
"""TDMA slot sizing in a mobile wireless ad-hoc network.

The paper's introduction motivates gradient clock synchronization with TDMA
(time-division multiple access): radio neighbours must agree on slot
boundaries, so what matters is the skew between *interfering* (nearby)
nodes, not the network-wide skew.

This example runs the DCSA over a random-waypoint mobile network (nodes
roam the unit square; the unit-disk radio graph is recomputed as they move)
and derives the TDMA guard band the measured neighbour skew would require,
comparing against (a) the naive guard band sized for the *global* skew and
(b) the free-running baseline.

Usage::

    python examples/tdma_wireless.py [seed]
"""

from __future__ import annotations

import sys

from repro.analysis import TextTable
from repro.core import skew_bounds as sb
from repro.harness import configs, run_experiment


SLOT_WIDTH = 10.0  # nominal TDMA slot length, in time units


def guard_band(max_neighbor_skew: float) -> float:
    """Guard band so that transmissions never spill into the next slot:
    both neighbours may be off by the skew, once on each side."""
    return 2.0 * max_neighbor_skew


def slot_efficiency(band: float, slot: float = SLOT_WIDTH) -> float:
    """Fraction of the slot usable for payload after the guard band."""
    return max(0.0, 1.0 - band / slot)


def run(algorithm: str, seed: int):
    cfg = configs.mobile_network(
        n=16,
        radius=0.35,
        speed=0.02,
        update_interval=2.0,
        horizon=250.0,
        seed=seed,
        algorithm=algorithm,
    )
    return run_experiment(cfg)


def main(seed: int = 1) -> None:
    print("mobile ad-hoc network: 16 nodes, random-waypoint mobility,")
    print("unit-disk radio graph recomputed every 2 time units\n")

    table = TextTable(
        [
            "algorithm",
            "neighbor skew",
            "global skew",
            "guard band",
            "slot efficiency",
        ],
        title=f"TDMA sizing for slot width {SLOT_WIDTH}",
    )

    for algorithm in ("dcsa", "max", "free"):
        res = run(algorithm, seed)
        # Peak skew across simultaneously-live radio edges: the quantity
        # that determines whether neighbouring transmissions collide.
        local = res.max_local_skew
        band = guard_band(local)
        table.add_row(
            [
                algorithm,
                local,
                res.max_global_skew,
                band,
                f"{100 * slot_efficiency(band):.1f}%",
            ]
        )

    print(table.render())
    params = run("dcsa", seed).params
    print("for reference, sizing the guard band by the *global* skew bound")
    print(
        f"G(n) = {sb.global_skew_bound(params):.2f} would give efficiency "
        f"{100 * slot_efficiency(guard_band(sb.global_skew_bound(params))):.1f}% — "
        "the gradient property is what makes tight slots possible."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
