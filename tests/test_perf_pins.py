"""The names the perf benchmark pins, checked in tier-1.

``benchmarks/perf`` patches program entry points *by name*
(``spantrace.SpanTracer``: ``NodeArrayTable.deliver_batch``,
``EventQueue.push_keyed``, ``StreamingOracle.sample``, every monitor's
``on_sample``, ``TimelineRecorder.record`` ...) and imports others
(``workloads.py``, ``micro.py``: ``run_par``, ``build_live_runtime``,
``activate_timeline`` ...), and it sits outside ``testpaths``.  A
refactor that renames one of them must fail here, not in the benchmark
run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
_MODULES = ("spantrace", "workloads", "micro")


@pytest.fixture
def perf(monkeypatch):
    """``benchmarks/perf`` importable, and forgotten again afterwards."""
    monkeypatch.syspath_prepend(str(PERF))
    yield
    for name in _MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "patch_set", ["install_sim", "install_live", "install_par_coordinator"]
)
def test_patch_set_installs_and_uninstalls(perf, patch_set):
    spantrace = importlib.import_module("spantrace")
    tracer = spantrace.SpanTracer()
    try:
        getattr(tracer, patch_set)()  # AttributeError names a renamed pin
        patches = list(tracer._patches)
        assert patches
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__.get(attr, spantrace._INHERITED) is original, (
            owner, attr,
        )


@pytest.mark.parametrize("module", ["workloads", "micro"])
def test_harness_module_imports(perf, module):
    importlib.import_module(module)
