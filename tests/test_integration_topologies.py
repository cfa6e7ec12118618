"""Cross-topology integration: the full bundle on every topology builder.

Runs the DCSA on grids, trees, rings, stars, random-regular and random
geometric graphs (static and churned) and checks the complete invariant
bundle, plus a couple of end-to-end determinism checks for the scenario
experiments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemParams
from repro.analysis import (
    envelope_violations,
    gradient_profile,
    max_global_skew,
)
from repro.core import skew_bounds as sb
from repro.harness import ExperimentConfig, run_experiment
from repro.lowerbound import run_masking_experiment
from repro.network.topology import (
    grid_edges,
    random_geometric,
    ring_edges,
    star_edges,
)


def _bundle(cfg: ExperimentConfig) -> None:
    res = run_experiment(cfg)
    params = cfg.params
    assert max_global_skew(res.record) <= sb.global_skew_bound(params) + 1e-9
    assert envelope_violations(res.record, params).compliant
    dl = np.diff(res.record.clocks, axis=0)
    dt = np.diff(res.record.times)
    assert np.all(dl >= 0.5 * dt[:, None] - 1e-9)


TOPOLOGIES = [
    ("grid_3x4", lambda rng: grid_edges(3, 4), 12),
    ("tree_13", lambda rng: [((i - 1) // 2, i) for i in range(1, 13)], 13),
    ("ring_11", lambda rng: ring_edges(11), 11),
    ("star_9", lambda rng: star_edges(9), 9),
    ("geometric_12", lambda rng: random_geometric(12, 0.45, rng)[0], 12),
]


class TestTopologies:
    @pytest.mark.parametrize("name,builder,n", TOPOLOGIES)
    def test_dcsa_bundle(self, name, builder, n, rng):
        cfg = ExperimentConfig(
            params=SystemParams.for_network(n),
            initial_edges=builder(rng),
            clock_spec="split",
            horizon=100.0,
            sample_interval=2.0,
            seed=13,
        )
        _bundle(cfg)

    @pytest.mark.parametrize("name,builder,n", TOPOLOGIES[:3])
    def test_max_sync_global_bound(self, name, builder, n, rng):
        cfg = ExperimentConfig(
            params=SystemParams.for_network(n),
            initial_edges=builder(rng),
            algorithm="max",
            clock_spec="split",
            horizon=100.0,
            seed=13,
        )
        res = run_experiment(cfg)
        assert res.max_global_skew <= sb.global_skew_bound(cfg.params) + 1e-9


class TestGradientShape:
    def test_profile_monotone_trend_on_path(self):
        """On a path under adversarial drift, the max skew at distance d is
        (weakly) increasing in d when aggregated — the gradient shape."""
        cfg = ExperimentConfig(
            params=SystemParams.for_network(16),
            initial_edges=[(i, i + 1) for i in range(15)],
            clock_spec="split",
            delay_spec="max",
            horizon=150.0,
            seed=17,
        )
        res = run_experiment(cfg)
        prof = gradient_profile(res.record, res.graph, 150.0)
        # Compare the nearest band against the farthest band.
        near = max(prof[d] for d in (1, 2))
        far = max(prof[d] for d in (max(prof), max(prof) - 1))
        assert far >= near


class TestFreeRunningCalibration:
    def test_drift_rate_matches_hardware(self):
        cfg = ExperimentConfig(
            params=SystemParams.for_network(6),
            initial_edges=[(i, i + 1) for i in range(5)],
            algorithm="free",
            clock_spec="split",
            horizon=100.0,
            seed=0,
        )
        res = run_experiment(cfg)
        # Half the clocks at 1+rho, half at 1-rho: the skew grows at exactly 2 rho t.
        expected = 2 * cfg.params.rho * 100.0
        assert res.max_global_skew == pytest.approx(expected, rel=0.02)


class TestScenarioDeterminism:
    def test_masking_experiment_deterministic(self):
        params = SystemParams.for_network(8, rho=0.05)
        a = run_masking_experiment(params, check_indistinguishability=False)
        b = run_masking_experiment(params, check_indistinguishability=False)
        assert a.skew_alpha == b.skew_alpha
        assert a.skew_beta == b.skew_beta

    def test_masking_floor_scales_with_distance(self):
        """Skew extracted is exactly proportional to flexible distance."""
        params = SystemParams.for_network(10, rho=0.05)
        skews = {}
        for prefix in (0, 2, 4):
            r = run_masking_experiment(params, constrained_prefix=prefix,
                                       check_indistinguishability=False)
            skews[r.flexible_distance] = r.skew
        dists = sorted(skews)
        ratios = [skews[d] / d for d in dists]
        assert max(ratios) - min(ratios) < 0.15 * max(ratios)
