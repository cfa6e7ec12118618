"""Sim<->live parity of the sans-IO protocol cores.

The contract that lets one core run under both drivers is: given the same
``(now_h, event)`` input stream, a core emits the same effect stream and
ends in the same state, no matter which driver feeds it.  The drivers only
have to agree on *inputs* (which the deterministic zero-jitter loopback
configuration provides); the cores guarantee the rest.  These tests pin
the contract from both directions:

* **sim side** (property test over :mod:`repro.testing.strategies`
  configs): run a generated experiment with per-node effect logs enabled,
  then replay each node's logged events into a freshly built core and
  require the identical effect sequence and final state;
* **live side**: run a zero-jitter loopback asyncio session with effect
  capture and replay its logs the same way -- through cores built by the
  live driver itself, proving the two drivers construct interchangeable
  cores from one config.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.protocol import FreeRunningCore, JumpL, ProtocolCore
from repro.harness import configs
from repro.harness.runner import Experiment
from repro.live.driver import build_live_runtime
from repro.sim import simulator as simulator_mod
from repro.testing.strategies import experiment_configs


def replay_into(core: ProtocolCore, log) -> list[tuple]:
    """Feed a recorded ``(now_h, event, effects)`` log into a fresh core.

    Applies deferred jumps exactly like a driver; returns the effect
    tuples the replay produced.
    """
    replayed = []
    for now_h, event, _effects in log:
        out = core.handle(now_h, event)
        for eff in out:
            if isinstance(eff, JumpL):
                core.apply_jump(eff.new_value)
        replayed.append(tuple(out))
    return replayed


def rebuild_core(node_id: int, core: ProtocolCore) -> ProtocolCore:
    """Construct a fresh core of the same class and construction kwargs."""
    kwargs = {}
    if not isinstance(core, FreeRunningCore):
        kwargs["tick_stagger"] = core._tick_stagger
    return type(core)(node_id, core.params, **kwargs)


def assert_replay_matches(node_id: int, core: ProtocolCore, log) -> None:
    fresh = rebuild_core(node_id, core)
    replayed = replay_into(fresh, log)
    recorded = [effects for _now_h, _event, effects in log]
    assert replayed == recorded, f"node {node_id}: effect streams diverge"
    # Same inputs => same terminal state, bit for bit.
    assert fresh.h_last == core.h_last
    assert fresh.logical_clock_at(core.h_last) == core.logical_clock_at(core.h_last)
    assert fresh.max_estimate_at(core.h_last) == core.max_estimate_at(core.h_last)
    assert fresh.jumps == core.jumps
    assert fresh.total_jump == core.total_jump


def logged_experiment(cfg) -> Experiment:
    """``cfg`` wired for the ``handle()`` reference kernel (what
    ``REPRO_BATCH=0`` selects: the batch table cannot carry an effect
    log), every node logging."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_mod, "BATCH_DEFAULT", False)
        exp = Experiment(cfg)
    for node in exp.nodes.values():
        node.effect_log = []
    return exp


class TestSimDriverParity:
    @given(experiment_configs(min_n=4, max_n=8, horizon=25.0, churny=True))
    @settings(max_examples=6, deadline=None)
    def test_effect_streams_replay_identically(self, cfg):
        """Property: every node's sim effect log replays bit-identically.

        Nodes are started inside experiment construction (before logging
        can be enabled), but starting only arms the first tick and
        mutates no lazy state, so replaying from the first logged event is
        state-exact; the live-side test below covers Start too.
        """
        exp = logged_experiment(cfg)
        exp.run()
        for i, node in exp.nodes.items():
            assert_replay_matches(i, node.core, node.effect_log)

    @pytest.mark.parametrize("algorithm", ["max", "static", "free"])
    def test_baseline_cores_replay_identically(self, algorithm):
        cfg = configs.static_ring(6, horizon=20.0, seed=4, algorithm=algorithm)
        exp = logged_experiment(cfg)
        exp.run()
        for i, node in exp.nodes.items():
            assert_replay_matches(i, node.core, node.effect_log)


class TestLiveDriverParity:
    def test_live_effect_streams_replay_identically(self):
        """A zero-jitter loopback session's logs replay through cores built
        by a second, never-run live driver instance with the same seed --
        same inputs, same effects, same state, across driver boundaries."""
        cfg = configs.live_ring(8, duration=0.6, seed=3, sample_interval=0.1)
        live = build_live_runtime(cfg, capture_effects=True).run()
        assert live.oracle_report is not None and live.oracle_report.ok
        twin = build_live_runtime(cfg)  # identical seed => identical cores
        assert sorted(live.effect_logs) == sorted(twin.nodes)
        for i, log in live.effect_logs.items():
            assert len(log) > 0
            ran = live.nodes[i].core
            fresh = twin.nodes[i].core
            replayed = replay_into(fresh, log)
            assert replayed == [effects for _h, _e, effects in log]
            assert fresh.h_last == ran.h_last
            assert fresh.jumps == ran.jumps
            assert fresh.messages_sent == ran.messages_sent
            assert fresh.logical_clock_at(ran.h_last) == ran.logical_clock_at(
                ran.h_last
            )
