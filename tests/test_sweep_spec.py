"""Tests for sweep specifications and their expansion."""

from __future__ import annotations

import pytest

from repro.harness import ExperimentConfig, configs
from repro.sweep import SweepSpec, grid, seeds, zip_


class TestCombinators:
    def test_grid_is_cartesian_product_last_fastest(self):
        axis = grid(a=[1, 2], b=[10, 20])
        assert axis.points == (
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        )

    def test_zip_is_lockstep(self):
        axis = zip_(a=[1, 2], b=[10, 20])
        assert axis.points == ({"a": 1, "b": 10}, {"a": 2, "b": 20})

    def test_zip_rejects_ragged_ranges(self):
        with pytest.raises(ValueError, match="equally long"):
            zip_(a=[1, 2], b=[10])

    def test_seeds_int_and_explicit(self):
        assert seeds(3).points == ({"seed": 0}, {"seed": 1}, {"seed": 2})
        assert seeds([7, 9]).points == ({"seed": 7}, {"seed": 9})

    def test_scalar_range_rejected(self):
        with pytest.raises(TypeError, match="iterable"):
            grid(n=8)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            grid(n=[])
        with pytest.raises(ValueError):
            grid()
        with pytest.raises(ValueError):
            seeds(0)


class TestNamedWorkloadExpansion:
    def test_expands_factory_kwargs(self):
        spec = SweepSpec(
            "static_path",
            base={"horizon": 50.0},
            axes=[grid(n=[4, 6]), seeds(2)],
        )
        cfgs = spec.expand()
        assert len(cfgs) == len(spec) == 4
        assert [c.params.n for c in cfgs] == [4, 4, 6, 6]
        assert [c.seed for c in cfgs] == [0, 1, 0, 1]
        assert all(c.horizon == 50.0 for c in cfgs)

    def test_point_labels_in_names(self):
        spec = SweepSpec("static_path", base={"n": 4}, axes=[seeds([3])])
        (cfg,) = spec.expand()
        assert "seed=3" in cfg.name

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="no_such"):
            SweepSpec("no_such_workload")

    def test_every_registered_workload_is_callable(self):
        for name, factory in configs.WORKLOADS.items():
            assert callable(factory), name
            assert getattr(configs, name) is factory


def _path_spec(**keys):
    """``static_path``'s spec at n = 6 with ``keys`` laid over it."""
    return {**configs.static_path.spec, "n": 6, **keys}


class TestConfigBaseExpansion:
    """A spec-mapping base: the plain-data form of a config, rebuilt at
    every point."""

    def test_field_overrides(self):
        base = _path_spec(horizon=40.0)
        spec = SweepSpec(base, axes=[grid(algorithm=["dcsa", "max"])])
        cfgs = spec.expand()
        assert [c.algorithm for c in cfgs] == ["dcsa", "max"]
        assert all(c.horizon == 40.0 for c in cfgs)
        # The base mapping is untouched.
        assert "algorithm" not in base

    def test_params_overrides_revalidate(self):
        params = configs.static_path(6).params
        floor = 2.0 * (1.0 + params.rho) * params.tau
        spec = SweepSpec(_path_spec(), axes=[grid(b0=[1.1 * floor, 2.0 * floor])])
        cfgs = spec.expand()
        assert [c.params.b0 for c in cfgs] == [1.1 * floor, 2.0 * floor]

    def test_rho_is_a_spec_key(self):
        spec = SweepSpec(_path_spec(), axes=[grid(rho=[0.01, 0.02])])
        assert [c.params.rho for c in spec.expand()] == [0.01, 0.02]

    def test_invalid_params_override_raises(self):
        spec = SweepSpec(_path_spec(), axes=[grid(b0=[0.001])])
        with pytest.raises(Exception, match="b0"):
            spec.expand()

    def test_every_point_is_rebuilt(self):
        # n, horizon and T + D reach the topology, the churn and the
        # adversary they were built from: a point cannot run stale.
        spec = SweepSpec(_path_spec(), axes=[grid(n=[6, 12])])
        assert [len(c.initial_edges) for c in spec.expand()] == [5, 11]
        base = {**configs.backbone_churn.spec, "n": 6}
        spec = SweepSpec(base, axes=[grid(horizon=[100.0, 200.0])])
        assert [c.churn[0].kwargs["horizon"] for c in spec.expand()] == [100.0, 200.0]

    def test_sweeping_n_over_concrete_config_rejected(self):
        # A built config's initial_edges are fixed for its n; only a spec
        # can be rebuilt at another size, so a concrete base is refused.
        base = configs.static_path(6)
        for key in ("n", "params.n"):
            with pytest.raises(TypeError, match="spec mapping"):
                SweepSpec(base, axes=[grid(**{key: [12]})])

    def test_sweeping_horizon_over_churned_config_rejected(self):
        # A built config's churn kwargs hold the horizon it was built for.
        with pytest.raises(TypeError, match="spec mapping"):
            SweepSpec(configs.backbone_churn(6), axes=[grid(horizon=[100.0, 200.0])])
        # Its spec sweeps horizon freely, churned or not.
        for name in ("backbone_churn", "static_path"):
            base = {**getattr(configs, name).spec, "n": 6}
            spec = SweepSpec(base, axes=[grid(horizon=[100.0, 200.0])])
            assert [c.horizon for c in spec.expand()] == [100.0, 200.0]

    def test_unknown_override_key_rejected(self):
        spec = SweepSpec(_path_spec(), axes=[grid(bogus=[1])])
        with pytest.raises(TypeError, match="bogus"):
            spec.expand()

    def test_duplicate_axis_key_rejected(self):
        spec = SweepSpec(_path_spec(), axes=[seeds(2), seeds(2)])
        with pytest.raises(ValueError, match="more than once"):
            spec.expand()

    def test_duplicate_axis_key_rejected_even_when_key_in_base(self):
        spec = SweepSpec(
            "static_path",
            base={"n": 8},
            axes=[grid(n=[8, 16]), grid(n=[4])],
        )
        with pytest.raises(ValueError, match="more than once"):
            spec.points()

    def test_axis_may_override_base_key(self):
        spec = SweepSpec("static_path", base={"n": 8, "horizon": 30.0}, axes=[grid(n=[4, 6])])
        assert [c.params.n for c in spec.expand()] == [4, 6]

    def test_no_axes_expands_to_base(self):
        (cfg,) = SweepSpec(_path_spec()).expand()
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.to_dict() == configs.static_path(6).to_dict()

    def test_bad_workload_type_rejected(self):
        with pytest.raises(TypeError, match="workload"):
            SweepSpec(42)
