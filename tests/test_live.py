"""Tests for the live asyncio runtime (repro.live).

Real wall-clock sessions are kept under a second each; the loopback
channel with zero jitter is deterministic enough for exact message
conservation checks, while UDP runs only assert coarse liveness (and skip
gracefully where the sandbox forbids sockets).
"""

from __future__ import annotations

import asyncio
import math
import time
import pytest

from repro.core.protocol import DiscoverAdd, MessageReceived, Start, TimerFired
from repro.harness import ExperimentConfig, RuntimeRef, configs
from repro.harness.registry import ClockRef
from repro.harness.runner import Experiment, run_experiment
from repro.live import (
    ChannelError,
    LiveClock,
    LiveRuntime,
    LoopbackChannel,
    UdpChannel,
    build_live_runtime,
)
from repro.telemetry import get_registry


class TestLoopbackSession:
    def test_session_reports_oracle_ok(self):
        res = run_experiment(
            configs.live_ring(8, duration=0.6, sample_interval=0.1, seed=1)
        )
        rep = res.oracle_report
        assert rep is not None and rep.ok
        assert rep.checks > 0
        assert res.events_dispatched > 0
        # Zero jitter, no churn: every sent message is delivered.
        assert res.transport_stats["sent"] > 0
        assert res.transport_stats["sent"] == res.transport_stats["delivered"]
        assert "oracle: OK" in res.summary()

    def test_every_node_participates(self):
        cfg = configs.live_ring(8, duration=0.5, seed=2)
        live = build_live_runtime(cfg).run()
        p = cfg.params
        for view in live.nodes.values():
            assert view.messages_sent > 0
            # L advances at least at hardware rate >= (1 - rho) real time.
            assert view.logical_clock(live.elapsed) >= (1.0 - p.rho) * 0.5
        assert live.elapsed == pytest.approx(cfg.horizon, abs=0.3)

    def test_artificial_drift_rates_respect_envelope(self):
        cfg = configs.live_ring(8, duration=0.3, seed=5)
        live = build_live_runtime(cfg).run()
        rates = {view.clock.rate for view in live.nodes.values()}
        assert len(rates) > 1  # drift actually injected
        p = cfg.params
        for rate in rates:
            assert 1.0 - p.rho <= rate <= 1.0 + p.rho

    def test_no_oracle_session(self):
        res = run_experiment(configs.live_ring(8, duration=0.3, oracle=False))
        assert res.oracle_report is None

    def test_free_running_sends_nothing(self):
        res = run_experiment(
            configs.live_ring(8, duration=0.3, algorithm="free", oracle=False)
        )
        assert res.transport_stats["sent"] == 0
        assert res.total_jumps() == 0

    def test_telemetry_readbacks(self):
        """With the registry on, a session registers its health readbacks:
        the heartbeat age, a timer-lag histogram fed by every timer fire,
        and the transport counters the result reports."""
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            res = run_experiment(configs.live_ring(8, duration=0.3, seed=1))
            snap = reg.snapshot()
        finally:
            reg.disable()
            reg.reset()
        assert "live.heartbeat_age_s" in snap["gauges"]
        assert snap["histograms"]["live.timer_lag_s"]["count"] > 0
        assert snap["counters"]["transport.sent"] == res.transport_stats["sent"] > 0

    @pytest.mark.parametrize("algorithm", ["max", "static"])
    def test_baseline_algorithms_run_live(self, algorithm):
        res = run_experiment(
            configs.live_ring(8, duration=0.4, algorithm=algorithm)
        )
        assert res.oracle_report is not None and res.oracle_report.ok
        assert res.transport_stats["delivered"] > 0

    def test_jittered_loopback_still_conformant(self):
        res = run_experiment(
            configs.live_ring(8, duration=0.5, jitter=0.01, seed=7)
        )
        assert res.oracle_report is not None and res.oracle_report.ok
        assert res.transport_stats["delivered"] > 0


class TestScheduler:
    """The callback scheduler's failure, shutdown and ordering contracts."""

    def test_raising_core_fails_the_session_promptly(self):
        """An exception inside a loop callback is only logged by asyncio:
        the turn must route it into the session, well before ``duration``,
        and the failed session must leave nothing scheduled."""

        class Boom(RuntimeError):
            pass

        runtime = build_live_runtime(
            configs.live_ring(4, duration=5.0, oracle=False)
        )
        core = runtime.nodes[2].core
        real_handle, raised_at = core.handle, []

        def handle(now_h, event):
            if runtime.nodes[2].events_handled == 9:  # its 10th event
                raised_at.append(time.monotonic())
                raise Boom("10th event")
            return real_handle(now_h, event)

        core.handle = handle
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(Boom, match="10th event"):
                loop.run_until_complete(runtime.run_async())
            assert time.monotonic() - raised_at[0] < 1.0
            assert [h for h in loop._scheduled if not h.cancelled()] == []
            handled = [n.events_handled for n in runtime.nodes.values()]
            # Turns that were already queued behind the failure are no-ops.
            loop.run_until_complete(asyncio.sleep(0.15))
            assert [n.events_handled for n in runtime.nodes.values()] == handled
            assert [h for h in loop._scheduled if not h.cancelled()] == []
        finally:
            loop.close()

    def test_finished_session_is_inert_on_a_shared_loop(self):
        """Back to back on one loop: no stale wake-up or queued turn of the
        first session dispatches while the second one runs."""
        first = build_live_runtime(
            configs.live_ring(6, duration=0.3, seed=1), capture_effects=True
        )
        second = build_live_runtime(configs.live_ring(6, duration=0.3, seed=2))

        async def both():
            done = await first.run_async()
            frozen = {i: list(log) for i, log in done.effect_logs.items()}
            return done, frozen, await second.run_async()

        done, frozen, after = asyncio.run(both())
        assert after.events_handled > 0
        assert done.effect_logs == frozen
        assert (
            sum(n.events_handled for n in first.nodes.values())
            == done.events_handled
            == sum(len(log) for log in frozen.values())
        )

    # asyncio may run a timer handle before its ``when`` (one clock
    # resolution; up to 1 ms of epoll rounding hides that on Linux), so the
    # second case reads the session clock 1 ms behind the loop's: *every*
    # wake-up then finds nothing due yet and must re-arm, not go to sleep.
    @pytest.mark.parametrize("behind", [0.0, 1e-3])
    def test_no_node_sleeps_through_a_deadline(self, monkeypatch, behind):
        monkeypatch.setattr(
            LiveRuntime, "now", lambda self: self._loop.time() - self._t0 - behind
        )
        # No edges: no incoming message can mask a missed wake-up.
        cfg = configs.live_ring(8, duration=0.5, seed=6, oracle=False, topology="none")
        live = build_live_runtime(cfg, capture_effects=True).run()
        p = cfg.params
        floor = math.floor(cfg.horizon * (1.0 - p.rho) / p.tick_interval) - 2
        assert floor >= 5
        for i, log in live.effect_logs.items():
            ticks = sum(event == TimerFired("tick") for _h, event, _fx in log)
            assert ticks >= floor, f"node {i} ticked {ticks} times"
        # Each FIFO only ever held its node's Start.
        assert live.queue_depth_max == 1 and live.timer_lag_max >= 0.0

    def test_per_node_order_is_start_then_e0_then_arrivals(self):
        runtime = build_live_runtime(
            configs.live_ring(8, duration=0.3, seed=4, oracle=False),
            capture_effects=True,
        )
        edges = list(runtime.graph.edges())
        live = runtime.run()
        for i, log in live.effect_logs.items():
            events = [event for _h, event, _fx in log]
            assert events[0] == Start()
            e0 = [DiscoverAdd(v if u == i else u) for u, v in edges if i in (u, v)]
            assert len(e0) == 2
            # A first tick may interleave when the stagger draw is near 0.
            rest = [e for e in events[1:] if not isinstance(e, TimerFired)]
            assert rest[: len(e0)] == e0
            assert all(isinstance(e, MessageReceived) for e in rest[len(e0) :])
            assert len(rest) > len(e0)


class TestLiveChurn:
    def test_scripted_churn_injects_discoveries(self):
        cfg = configs.live_churn_ring(8, duration=0.8, seed=2)
        res = run_experiment(cfg)
        assert res.oracle_report is not None and res.oracle_report.ok
        # 8 ring edges at t=0, chord add + chord remove mid-session.
        assert res.graph.edge_events == 10
        assert not res.graph.has_edge(0, 4)

    def test_failed_churn_event_fails_the_session_loudly(self):
        """A dead auxiliary task must not yield a vacuous oracle_ok."""
        from repro.network.graph import GraphError

        cfg = configs.live_ring(  # unknown node
            4, duration=0.3, churn="scripted", events=[(0.05, "add", 0, 99)]
        )
        with pytest.raises(GraphError):
            build_live_runtime(cfg).run()

    def test_churn_discoveries_reach_the_cores(self):
        cfg = configs.live_churn_ring(8, duration=0.8, seed=3)
        live = build_live_runtime(cfg).run()
        # After the remove at 80% of the session, the chord endpoints no
        # longer believe in the edge (DiscoverRemove was dispatched).
        assert 4 not in live.nodes[0].core.upsilon
        assert 0 not in live.nodes[4].core.upsilon


class TestUdpSession:
    def test_udp_round_trip(self):
        cfg = configs.live_ring(4, duration=0.5, sample_interval=0.1, channel="udp")
        try:
            res = run_experiment(cfg)
        except ChannelError as exc:  # pragma: no cover - sandboxed CI
            pytest.skip(f"UDP sockets unavailable: {exc}")
        assert res.transport_stats["delivered"] > 0
        assert res.oracle_report is not None and res.oracle_report.ok


class TestDriverValidation:
    def _cfg(self, **overrides) -> ExperimentConfig:
        return configs.live_ring(8, duration=0.2, **overrides)

    def test_recorder_rejected(self):
        with pytest.raises(ValueError, match="recorder"):
            build_live_runtime(self._cfg(record=True))

    def test_adversary_rejected(self):
        cfg = self._cfg(adversary="delay")
        with pytest.raises(ValueError, match="adversar"):
            build_live_runtime(cfg)

    def test_non_scripted_churn_rejected(self):
        cfg = self._cfg(churn="edge_flapper", endpoints=(0, 2), up=0.1, down=0.1)
        with pytest.raises(ValueError, match="ScriptedChurn"):
            build_live_runtime(cfg)

    def test_config_runtime_kwargs_are_the_channel_defaults(self):
        """A direct caller builds the session ``run_experiment`` would run."""
        cfg = configs.live_ring(4, duration=0.2, channel="udp", jitter=0.01)
        assert isinstance(build_live_runtime(cfg).channel, UdpChannel)
        explicit = build_live_runtime(cfg, channel="loopback").channel
        assert isinstance(explicit, LoopbackChannel)
        assert explicit.jitter == 0.01
        assert build_live_runtime(cfg, channel="loopback", jitter=0.0).channel.jitter == 0.0

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            build_live_runtime(self._cfg(), channel="carrier-pigeon")

    def test_callable_clock_spec_rejected(self):
        """A clock ref builds simulated clock objects a wall-clock session
        cannot run at: refused, naming the constant entries it can."""
        cfg = self._cfg(clock_spec=ClockRef("segments", {"segments": [[[0.0, 1.0]]] * 8}))
        with pytest.raises(ValueError, match="perfect, split, alternating, uniform"):
            build_live_runtime(cfg)

    def test_experiment_class_rejects_live_configs(self):
        with pytest.raises(ValueError, match="sim"):
            Experiment(self._cfg())

    def test_unknown_runtime_string_rejected(self):
        cfg = configs.static_ring(5, horizon=5.0, runtime="warp")
        with pytest.raises(ValueError, match="unknown runtime"):
            run_experiment(cfg)


class TestRuntimeSerialization:
    def test_live_config_round_trips(self):
        cfg = configs.live_ring(8, duration=1.0, jitter=0.002)
        data = cfg.to_dict()
        assert data["runtime"]["kind"] == "ref"
        assert data["runtime"]["name"] == "live"
        clone = ExperimentConfig.from_dict(data)
        assert isinstance(clone.runtime, RuntimeRef)
        assert clone.runtime.kwargs["jitter"] == 0.002
        assert clone.to_dict() == data

    def test_sim_default_serializes_as_string(self):
        cfg = configs.static_ring(5, horizon=5.0)
        data = cfg.to_dict()
        assert data["runtime"] == "sim"
        assert ExperimentConfig.from_dict(data).runtime == "sim"

    def test_unknown_runtime_ref_rejected(self):
        with pytest.raises(KeyError, match="unknown runtime"):
            RuntimeRef("warp", {})


class TestLiveClocks:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveClock(0.0)

    def test_inverse_is_exact(self):
        clock = LiveClock(1.05)
        assert clock.h_at(2.0) == pytest.approx(2.1)
        assert clock.real_delay(2.1) == pytest.approx(2.0)

    @pytest.mark.parametrize("spec", ["perfect", "split", "alternating", "uniform"])
    def test_specs_respect_envelope(self, spec):
        """The live rates are the sim's rate column bit for bit: the same
        clock entry drawn from the stream the live driver spawns first (a
        sim run spawns its delay and discovery streams before its clocks,
        so only the constant specs also equal a sim run's own column)."""
        from dataclasses import replace

        from repro.sim.rng import RngFactory

        n = 37
        cfg = configs.live_ring(n, duration=0.2, seed=5, clock_spec=spec)
        nodes = build_live_runtime(cfg).nodes
        assert sorted(nodes) == list(range(n))
        rates = [nodes[i].clock.rate for i in range(n)]
        column, _ = ClockRef(spec)(cfg.params, RngFactory(5).spawn(), cfg.horizon)
        assert rates == column.tolist()
        if spec != "uniform":
            sim = Experiment(replace(cfg, runtime="sim"))
            assert rates == sim._store.np.rate[:n].tolist()
        for rate in rates:
            assert 0.95 - 1e-12 <= rate <= 1.05 + 1e-12
        if spec == "perfect":
            assert all(rate == 1.0 for rate in rates)
        if spec == "split":
            assert rates[0] > 1.0 > rates[n - 1]


class TestLoopbackChannelUnit:
    def test_negative_jitter_rejected(self):
        with pytest.raises(ChannelError):
            LoopbackChannel(jitter=-0.1)

    def test_send_before_open_rejected(self):
        with pytest.raises(ChannelError, match="not opened"):
            LoopbackChannel().send(0, 1, (0.0, 0.0))


class TestLiveChurnValidation:
    def test_bad_op_rejected(self):
        cfg = configs.live_ring(
            8, duration=0.2, churn="scripted", events=[(0.1, "add", 0, 2)]
        )
        runtime = build_live_runtime(cfg)  # valid script builds fine
        assert runtime._churn_events == [(0.1, "add", 0, 2)]
