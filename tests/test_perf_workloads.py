"""The perf benchmark's own ``measure``, once per engine, in tier-1.

``benchmarks/perf/workloads.py`` calls program names that nothing else in
tier-1 has to reach (``run_par``, ``build_live_runtime``,
``LiveRunResult.total_jumps``, the ambient tracer and timeline of an
observed run ...), and it sits outside ``testpaths``.  Running its
``measure`` on tiny inputs, untraced, puts every one of those calls under
tier-1: deleting a name the benchmark uses fails here, not in the
benchmark run.  Each repetition also runs the harness's own checks (its
``asserts``), which must all hold.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.harness import configs

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
_MODULES = ("spantrace", "workloads")

#: engine kind -> (build(seed), Workload keyword arguments).
TINY = {
    "sim": (lambda seed: [configs.huge_ring(64, horizon=5.0, seed=seed)], {}),
    "observed": (
        lambda seed: [
            configs.huge_sync_ring(64, horizon=5.0, sample_interval=0.25, seed=seed)
        ],
        {"observed": True},
    ),
    "par": (
        lambda seed: [configs.huge_sync_ring(256, horizon=3.0, seed=seed)],
        {"runtime": "par", "expect_batch": True},
    ),
    "live": (
        lambda seed: [
            configs.live_ring(8, duration=0.3, sample_interval=0.1, seed=seed)
        ],
        {"runtime": "live"},
    ),
}


@pytest.fixture
def workloads(monkeypatch):
    """``benchmarks/perf/workloads.py``, forgotten again afterwards."""
    monkeypatch.syspath_prepend(str(PERF))
    yield importlib.import_module("workloads")
    for name in _MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_measure_runs_every_engine(workloads, kind):
    build, options = TINY[kind]
    workload = workloads.Workload(f"tiny_{kind}", build, **options)
    record = workloads.measure(workload, 0, trace=False)
    assert record["events"] > 0
    failed = [a for a in record["asserts"] if not a["ok"]]
    assert not failed, failed
    if kind == "par":
        assert [a["name"] for a in record["asserts"]] == ["par.sharded", "batch.engaged"]
    if kind == "live":
        assert record["digest"] is None
    else:
        assert len(record["digest"]) == 64
