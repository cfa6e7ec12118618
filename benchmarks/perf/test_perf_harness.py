"""Self-test of the perf harness on shrunken configs (n <= 64, horizon <= 5).

Run with ``python -m pytest benchmarks/perf -q`` from the repo root; the
file sits outside tier-1's ``testpaths``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import NodeArrayTable
from repro.core.node import ClockSyncNode
from repro.core.protocol import ProtocolCore
from repro.harness import configs
from repro.network.churn import ScriptedChurn
from repro.network.graph import DynamicGraph
from repro.network.transport import Transport
from repro.oracle.monitors import MONITOR_FACTORIES
from repro.oracle.oracle import StreamingOracle
from repro.sim.queue import EventQueue
from repro.sim.simulator import Simulator

from run import e2e_values
from spantrace import ROOT_SIM
from workloads import Workload, churn_script, measure

HERE = Path(__file__).resolve().parent

PATCHED = (
    Simulator, EventQueue, Transport, DynamicGraph, ClockSyncNode, ProtocolCore,
    NodeArrayTable, StreamingOracle, *MONITOR_FACTORIES.values(),
)


def _tiny_churn(seed: int) -> list:
    cfg = configs.huge_sync_ring(64, horizon=5.0, seed=seed)
    script = churn_script(64, 40, 1.0, 4.0, seed)
    return [replace(cfg, churn=[ScriptedChurn(script)])]


TINY = [
    Workload("tiny_scalar", lambda seed: [configs.huge_ring(64, horizon=5.0, seed=seed)]),
    Workload("tiny_churn", _tiny_churn, expect_batch=True),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_is_neutral_complete_and_removable(workload: Workload) -> None:
    before = {cls: dict(vars(cls)) for cls in PATCHED}
    plain = measure(workload, 7, trace=False)
    traced = measure(workload, 7, trace=True)
    # Wrappers are fully removed: every patched class is as it was.
    assert {cls: dict(vars(cls)) for cls in PATCHED} == before
    # Wrapper neutrality: same simulated statistics with and without.
    assert traced["digest"] == plain["digest"]
    assert all(a["ok"] for a in plain["asserts"] + traced["asserts"])
    # self_s over all spans sums to the root span's total.
    rows = traced["span_table"]
    root_total = sum(r["total_s"] for r in rows if r["span"] == ROOT_SIM)
    self_sum = sum(r["self_s"] for r in rows)
    assert root_total > 0
    assert self_sum == pytest.approx(root_total, rel=0.01)
    assert traced["layers"]["sim.queue.pop.calls"] > 0


def test_times_are_calibrated_except_a_paced_wall_clock() -> None:
    rep = {
        "events": 1000, "run_wall_s": 2.0, "total_wall_s": 3.0, "cpu_s": 2.0,
        "setup_s": 0.5, "peak_rss_mb": 50.0, "host_slowdown": 2.0, "paced": False,
    }
    assert e2e_values(rep) == {
        "events_per_s": 1000.0, "total_wall_s": 1.5, "cpu_us_per_event": 1000.0,
        "setup_s": 0.25, "peak_rss_mb": 50.0,
    }
    assert e2e_values(rep, calibrated=False)["total_wall_s"] == 3.0
    paced = e2e_values({**rep, "paced": True})
    assert paced["events_per_s"] == 500.0 and paced["total_wall_s"] == 3.0
    assert paced["cpu_us_per_event"] == 1000.0 and paced["setup_s"] == 0.25


def test_churn_script_is_a_pure_function_of_the_seed_and_spares_the_ring() -> None:
    n = 64
    script = churn_script(n, 200, 1.0, 4.0, 5)
    assert script == churn_script(n, 200, 1.0, 4.0, 5)
    assert script != churn_script(n, 200, 1.0, 4.0, 6)
    times = [t for t, _op, _u, _v in script]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert 1.0 <= times[0] and times[-1] <= 4.0
    present: set[tuple[int, int]] = set()
    for _t, op, u, v in script:
        assert 2 <= v - u < n - 1, "ring edge touched"
        if op == "add":
            assert (u, v) not in present
            present.add((u, v))
        else:
            present.remove((u, v))
    assert {op for _t, op, _u, _v in script} == {"add", "remove"}


def test_wrong_pin_fails_the_run(tmp_path: Path) -> None:
    pins = tmp_path / "wrong.json"
    pins.write_text(
        json.dumps(
            {
                "fingerprint": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "machine": platform.machine(),
                },
                "seed": 0,
                "digests": {"paper_suite": "0" * 64},
            }
        )
    )
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "paper_suite",
            "--seed", "0", "--seconds", "0.1", "--trace", "0", "--pins", str(pins),
        ],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
