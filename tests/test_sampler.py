"""One sampler per run: the recorder and the oracle share one schedule.

A run's :class:`~repro.core.batch.Sampler` arms one sample record per
distinct grid ``(interval, end)`` and reads the population once per
firing for every consumer on it.  The shared record counts as one sample
per consumer, so sharing moves no event tally, and every consumer sees
what a record of its own would have read.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import replace

import pytest

from repro.core.batch import PopulationReader, Sampler
from repro.harness import configs
from repro.harness.registry import OracleRef
from repro.harness.runner import Experiment
from repro.obs.timeline import timeline_session
from repro.telemetry import get_registry

STANDARD = OracleRef("standard", {})


def paper_suite(seed: int) -> list:
    """The nine paper scenarios at ``n <= 32``, recorded and checked."""
    c, h = configs, 100.0
    suite = [
        c.static_path(32, horizon=h, seed=seed),
        c.edge_insertion(32, t_insert=h / 4, horizon=h, seed=seed),
        c.backbone_churn(32, horizon=h, seed=seed),
        c.rotating_backbone(16, horizon=h, seed=seed),
        c.mobile_network(32, horizon=h, seed=seed),
        c.flapping_edges(32, horizon=h, seed=seed),
        c.two_chain_insertion(32, t_insert=h / 4, horizon=h, seed=seed),
        c.adversarial_drift(32, horizon=h, seed=seed),
        c.greedy_topology(16, horizon=h, seed=seed),
    ]
    return [replace(cfg, oracle=STANDARD) for cfg in suite]


class Separate(Sampler):
    """The wiring of one record per consumer: every :meth:`add` arms a
    one-record sampler of its own at once, reading the same transport."""

    def add(self, interval, consumer, **kwargs) -> None:
        own = Sampler(self.sim, self.read.nodes, self.read.transport)
        own.add(interval, consumer, **kwargs)
        own.install()

    def install(self) -> None:
        pass


@contextmanager
def observed():
    """An active timeline and telemetry registry, torn down afterwards."""
    registry = get_registry()
    registry.reset()
    registry.enable()
    try:
        with timeline_session() as timeline:
            yield timeline, registry
    finally:
        registry.disable()
        registry.reset()


def run(cfg, *, shared: bool = True):
    """``(result, timeline dict, sample count, reads)`` of one observed run."""
    reads = []
    read = PopulationReader.__call__

    def spy(self, t, estimates=None):
        reads.append(t)
        return read(self, t, estimates)

    with ExitStack() as stack, pytest.MonkeyPatch.context() as mp:
        timeline, registry = stack.enter_context(observed())
        mp.setattr(PopulationReader, "__call__", spy)
        if not shared:
            mp.setattr("repro.harness.runner.Sampler", Separate)
        result = Experiment(cfg).run()
        samples = registry.snapshot()["counters"]["kernel.dispatched.sample"]
        return result, timeline.to_dict(), samples, reads


def record_bytes(record) -> tuple:
    lmax = record.max_estimates
    return (
        record.node_ids,
        record.times.tobytes(),
        record.clocks.tobytes(),
        None if lmax is None else lmax.tobytes(),
        [
            (e.u, e.v, e.add_time, e.end_time, e.ages.tobytes(), e.skews.tobytes())
            for e in record.episodes
        ],
    )


class TestOneReadPerInstant:
    def test_recorder_and_oracle_share_one_read(self):
        """Recorder, standard oracle and an active timeline: one population
        read per sample instant, counted as one sample per consumer."""
        cfg = replace(configs.backbone_churn(16, horizon=30.0, seed=2), oracle=STANDARD)
        result, _, samples, reads = run(cfg)
        instants = result.record.times.tolist()
        assert len(instants) > 0
        assert reads == instants
        assert result.oracle_report.monitor("global_skew").checks == len(instants)
        assert samples == 2 * len(instants)

    def test_each_grid_reads_once_per_firing(self):
        """An oracle interval of its own keeps two records; each reads once
        per firing, and an instant on both grids is read once by each."""
        cfg = replace(
            configs.static_path(8, horizon=20.0, seed=1),
            oracle=OracleRef("standard", {"interval": 0.7}),
        )
        result, _, samples, reads = run(cfg)
        recorded = result.record.times.tolist()
        checked = result.oracle_report.monitor("global_skew").checks
        assert checked == int(cfg.horizon / 0.7) + 1
        assert len(reads) == len(recorded) + checked
        assert reads.count(0.0) == 2 and set(recorded) <= set(reads)
        assert samples == len(reads)


def sharing_cases() -> list:
    cases = [
        pytest.param(cfg, id=f"{cfg.name}-seed{seed}")
        for seed in (0, 7)
        for cfg in paper_suite(seed)
    ]
    lmax = replace(
        configs.backbone_churn(32, horizon=100.0, seed=3, track_max_estimates=True),
        oracle=STANDARD,
    )
    grids = replace(
        configs.flapping_edges(32, horizon=100.0, seed=0),
        oracle=OracleRef("standard", {"interval": 0.7}),
    )
    return cases + [
        pytest.param(lmax, id="track_max_estimates"),
        pytest.param(recorder_estimates_only(), id="recorder_estimates_only"),
        pytest.param(grids, id="own_oracle_interval"),
    ]


def recorder_estimates_only():
    """The recorder tracks ``Lmax``; no monitor of the oracle reads it."""
    return replace(
        configs.backbone_churn(32, horizon=100.0, seed=3, track_max_estimates=True),
        oracle=OracleRef("standard", {"monitors": ["progress", "global_skew"]}),
    )


def test_a_consumer_gets_estimates_only_if_it_asked():
    """The shared read carries ``Lmax`` for the recorder; the oracle, which
    asked for none, and the timeline it feeds see none."""
    result, timeline, _, reads = run(recorder_estimates_only())
    assert result.record.max_estimates is not None
    assert len(reads) == len(result.record.times)
    spread = timeline["columns"]["lmax_spread"]
    assert spread and set(spread) == {None}


@pytest.mark.parametrize("cfg", sharing_cases())
def test_sharing_changes_nothing_observable(cfg):
    """A shared record gives what one record per consumer gives: the same
    record, oracle report, timeline and event tallies."""
    shared, shared_timeline, shared_samples, shared_reads = run(cfg)
    apart, apart_timeline, apart_samples, apart_reads = run(cfg, shared=False)
    assert record_bytes(shared.record) == record_bytes(apart.record)
    assert shared.oracle_report.to_dict() == apart.oracle_report.to_dict()
    assert shared_timeline == apart_timeline
    assert shared.events_dispatched == apart.events_dispatched
    assert shared.non_node_events == apart.non_node_events
    assert shared_samples == apart_samples == len(apart_reads)


def test_an_oracle_probe_off_the_schedule_reads_through_its_sampler():
    """``sample(t)`` without columns reads through the joined sampler."""
    cfg = replace(configs.static_path(8, horizon=10.0, seed=4), record=False, oracle=STANDARD)
    exp = Experiment(cfg)
    exp.run()
    oracle = exp.oracle
    seen = oracle.samples_seen
    oracle.sample(10.0)
    assert oracle.samples_seen == seen + 1 and oracle.ok
