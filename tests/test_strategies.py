"""Tests for the shared property-testing library (repro.testing.strategies)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.sweep.spec import SweepSpec
from repro.testing import strategies as strat


class TestSeedDrivenLayer:
    def test_fuzz_config_is_deterministic(self):
        a = strat.fuzz_config(7)
        b = strat.fuzz_config(7)
        assert a.to_dict() == b.to_dict()
        assert strat.fuzz_config(8).to_dict() != a.to_dict()

    def test_fuzz_configs_are_serializable(self):
        for seed in range(8):
            cfg = strat.fuzz_config(seed)
            assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_fuzz_config_backbone_always_present(self):
        # Interval connectivity is the theorems' premise: the initial
        # topology must be connected and (rewirer-) protected.
        for seed in range(8):
            cfg = strat.fuzz_config(seed)
            n = cfg.params.n
            adj = {i: set() for i in range(n)}
            for u, v in cfg.initial_edges:
                adj[u].add(v)
                adj[v].add(u)
            seen, stack = {0}, [0]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert len(seen) == n, f"seed {seed}: disconnected backbone"

    def test_fuzz_sweep_spec_expands_small(self):
        for seed in range(6):
            spec = strat.fuzz_sweep_spec(seed)
            assert isinstance(spec, SweepSpec)
            configs = spec.expand()
            assert 1 <= len(configs) <= 8
            for cfg in configs:
                assert cfg.params.n <= 6 and cfg.horizon <= 25.0

    def test_make_topology_unknown_name(self):
        with pytest.raises(KeyError, match="unknown topology"):
            strat.make_topology("moebius", 8)


def test_hypothesis_layer_names_its_missing_dependency(monkeypatch):
    monkeypatch.setattr(strat, "_HAVE_HYPOTHESIS", False)
    with pytest.raises(ImportError, match="need the 'hypothesis' package"):
        strat.topologies()


class TestHypothesisLayer:
    @settings(max_examples=20, deadline=None)
    @given(params=strat.system_params(min_n=2, max_n=16))
    def test_system_params_always_validate(self, params):
        params.validate()  # must not raise

    @settings(max_examples=20, deadline=None)
    @given(topo=strat.topologies(4, 10))
    def test_topologies_are_connected(self, topo):
        name, n, edges = topo
        ids = {x for e in edges for x in e}
        adj = {i: set() for i in ids}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        start = next(iter(ids))
        seen, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == ids

    @settings(max_examples=15, deadline=None)
    @given(cfg=strat.experiment_configs(4, 10, adversarial=True))
    def test_generated_configs_serialize_and_validate(self, cfg):
        cfg.params.validate()
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @settings(max_examples=10, deadline=None)
    @given(spec=strat.sweep_specs())
    def test_generated_sweep_specs_expand(self, spec):
        configs = spec.expand()
        assert len(configs) == len(spec.expand())
        for cfg in configs:
            cfg.to_dict()  # must be serializable (sweepable)

    @settings(max_examples=5, deadline=None)
    @given(cfg=strat.experiment_configs(4, 6, horizon=15.0))
    def test_generated_configs_actually_run(self, cfg):
        res = run_experiment(cfg)
        assert res.events_dispatched > 0
