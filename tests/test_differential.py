"""The paper's orderings between algorithms on one execution.

Every algorithm faces the same topology schedule for a config (churn
draws from its own random stream), so running one config under each
algorithm compares them on one execution.  The input is the Section 1
motivating run: a path under ``split`` extremal clocks and maximal
delays at ``rho = 0.05``, with an endpoint shortcut inserted past the
Lemma 4.2 onset time.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from offline_reference import envelope_violations

from repro import SystemParams
from repro.core import skew_bounds as sb
from repro.harness import ALGORITHMS, configs, run_experiment


def shortcut_config(n, *, seed):
    """:func:`configs.edge_insertion` at rho = 0.05, the shortcut inserted
    at 1.1x the Lemma 4.2 onset time and run one stabilization time past
    it."""
    params = SystemParams.for_network(n, rho=0.05)
    t_insert = 1.1 * params.max_delay * (1.0 + 1.0 / params.rho)
    horizon = t_insert + sb.stabilization_time(params)
    cfg = configs.edge_insertion(n, t_insert=t_insert, horizon=horizon, seed=seed)
    return replace(cfg, params=params)


@pytest.fixture(scope="module")
def outcomes():
    cfg = shortcut_config(10, seed=2)
    return {algo: run_experiment(replace(cfg, algorithm=algo)) for algo in ALGORITHMS}


class TestFrozenSchedule:
    def test_every_contender_ran(self, outcomes):
        assert set(outcomes) == {"dcsa", "max", "static", "free"}
        for res in outcomes.values():
            assert res.max_global_skew > 0.0
        histories = [res.graph.event_history() for res in outcomes.values()]
        assert all(h == histories[0] for h in histories)


class TestOrderings:
    def test_all_paper_orderings_hold(self, outcomes):
        dcsa, params = outcomes["dcsa"], outcomes["dcsa"].params
        assert dcsa.max_local_skew <= outcomes["max"].max_local_skew + 1e-9
        assert dcsa.max_global_skew <= sb.global_skew_bound(params) + 1e-9
        assert envelope_violations(dcsa.record, params).compliant
        assert dcsa.max_local_skew >= sb.masking_skew_floor(params, 1) - 1e-9

    def test_dcsa_local_skew_at_most_max_syncs(self, outcomes):
        dcsa = outcomes["dcsa"]
        max_sync = outcomes["max"]
        assert dcsa.max_local_skew <= max_sync.max_local_skew + 1e-9

    def test_dcsa_within_global_bound_free_running_not_synced(self, outcomes):
        dcsa = outcomes["dcsa"]
        free = outcomes["free"]
        assert dcsa.max_global_skew <= sb.global_skew_bound(dcsa.params) + 1e-9
        # The unsynchronized baseline drifts well past every contender.
        assert free.max_global_skew > dcsa.max_global_skew
        assert free.total_jumps() == 0

    def test_dcsa_respects_masking_floor(self, outcomes):
        dcsa = outcomes["dcsa"]
        params = dcsa.params
        floor = sb.masking_skew_floor(params, 1)
        assert dcsa.record.times[-1] >= params.max_delay * (1.0 + 1.0 / params.rho)
        assert dcsa.max_local_skew >= floor - 1e-9


class TestChurnFreezing:
    def test_rng_churn_becomes_one_scripted_schedule(self):
        # backbone_churn uses an RNG-driven rewirer; its draws come from
        # their own stream, so every contender replays one schedule.
        cfg = configs.backbone_churn(6, horizon=30.0, seed=4, clock_spec="split")
        cfg.delay_spec = "max"
        runs = {algo: run_experiment(replace(cfg, algorithm=algo)) for algo in ("dcsa", "max")}
        schedule = runs["dcsa"].graph.event_history()
        assert len(schedule) > 0
        assert runs["max"].graph.event_history() == schedule
        dcsa, max_sync = runs["dcsa"], runs["max"]
        assert dcsa.max_local_skew <= max_sync.max_local_skew + 1e-9
        assert dcsa.max_global_skew <= sb.global_skew_bound(dcsa.params) + 1e-9
        assert envelope_violations(dcsa.record, dcsa.params).compliant
