"""Online/offline agreement: the streaming oracle vs the recorded metrics.

For a matrix of workloads -- static, churned, and all four adversarial --
one run carries *both* the offline recorder and the streaming oracle at
the same sampling interval.  Every verdict and worst margin the oracle
reports must match what the offline :mod:`repro.analysis.metrics`
computations find in the recorded history; any divergence means one of the
two checkers is wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import envelope_violations, max_estimate_lag, max_global_skew
from repro.core import skew_bounds as sb
from repro.harness import OracleRef, configs, run_experiment

HORIZON = 60.0

WORKLOADS = [
    ("static_path", lambda: configs.static_path(8, horizon=HORIZON, seed=3)),
    ("static_ring", lambda: configs.static_ring(8, horizon=HORIZON, seed=4)),
    ("backbone_churn", lambda: configs.backbone_churn(8, horizon=HORIZON, seed=5)),
    ("flapping_edges", lambda: configs.flapping_edges(8, horizon=HORIZON, seed=6)),
    ("adversarial_drift", lambda: configs.adversarial_drift(8, horizon=HORIZON, seed=7)),
    ("adversarial_delay", lambda: configs.adversarial_delay(8, horizon=HORIZON, seed=8)),
    ("greedy_topology", lambda: configs.greedy_topology(8, horizon=HORIZON, seed=9)),
    ("combined_adversary", lambda: configs.combined_adversary(8, horizon=HORIZON, seed=10)),
]


@pytest.fixture(scope="module", params=WORKLOADS, ids=[w[0] for w in WORKLOADS])
def monitored_run(request):
    _, make = request.param
    cfg = make()
    cfg.track_edges = True
    cfg.track_max_estimates = True
    cfg.oracle = OracleRef("standard", {})
    return run_experiment(cfg)


class TestAgreement:
    def test_verdict_matches_offline_bundle(self, monitored_run):
        res = monitored_run
        record, params = res.record, res.params
        dt = np.diff(record.times)
        dl = np.diff(record.clocks, axis=0)
        offline_ok = (
            bool(np.all(dl >= 0.5 * dt[:, None] - 1e-9))
            and bool(np.all(record.max_estimates >= record.clocks - 1e-9))
            and max_global_skew(record) <= sb.global_skew_bound(params) + 1e-9
            and float(max_estimate_lag(record).max())
            <= sb.max_propagation_bound(params) + 1e-9
            and envelope_violations(record, params).compliant
        )
        assert res.oracle_report.ok == offline_ok

    def test_global_skew_peak_matches(self, monitored_run):
        res = monitored_run
        online = res.oracle_report.monitors["global_skew"]
        assert online.worst_observed == pytest.approx(
            max_global_skew(res.record), abs=1e-12
        )
        assert online.checks == res.record.samples

    def test_estimate_lag_peak_matches(self, monitored_run):
        res = monitored_run
        online = res.oracle_report.monitors["estimate_lag"]
        assert online.worst_observed == pytest.approx(
            float(max_estimate_lag(res.record).max()), abs=1e-12
        )

    def test_envelope_agrees_sample_for_sample(self, monitored_run):
        res = monitored_run
        offline = envelope_violations(res.record, res.params)
        online = res.oracle_report.monitors["envelope"]
        assert online.checks == offline.samples_checked
        assert online.violations == offline.violations
        assert online.extras["worst_ratio"] == pytest.approx(
            offline.worst_ratio, abs=1e-12
        )
        if offline.worst_edge is not None:
            assert online.extras["worst_edge"] == offline.worst_edge
            assert online.extras["worst_age"] == pytest.approx(
                offline.worst_age, abs=1e-12
            )

    def test_progress_agrees_with_offline_rate_floor(self, monitored_run):
        res = monitored_run
        record = res.record
        dt = np.diff(record.times)
        dl = np.diff(record.clocks, axis=0)
        offline_ok = bool(np.all(dl >= 0.5 * dt[:, None] - 1e-9))
        online = res.oracle_report.monitors["progress"]
        assert (online.violations == 0) == offline_ok
        # Worst slack agrees with the recorded series.
        offline_margin = float((dl - 0.5 * dt[:, None]).min())
        assert online.worst_margin == pytest.approx(offline_margin, abs=1e-12)

    def test_lmax_dominance_agrees(self, monitored_run):
        res = monitored_run
        record = res.record
        offline_ok = bool(np.all(record.max_estimates >= record.clocks - 1e-9))
        online = res.oracle_report.monitors["lmax_dominates"]
        assert (online.violations == 0) == offline_ok
        offline_margin = float((record.max_estimates - record.clocks).min())
        assert online.worst_margin == pytest.approx(offline_margin, abs=1e-12)
