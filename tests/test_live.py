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

from repro.core.protocol import (
    DiscoverAdd,
    DiscoverRemove,
    MessageReceived,
    Start,
    TimerFired,
)
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
from repro.live.runtime import _LiveNode
from repro.telemetry import get_registry
from repro.telemetry.registry import MetricsRegistry
from repro.tracing import trace_session
from repro.tracing.context import Tracer
from repro.tracing.spans import SPAN_DISCOVER, SPAN_EDGE, SPAN_FLIGHT, STATUS_DROPPED


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

    def test_one_wake_up_handle_at_a_time(self):
        """Every wake-up shares one loop timer: no ``call_at`` of it is made
        while an earlier one is still armed (neither fired nor cancelled).
        Jittered deliveries kick pumps between timer firings, so some pumps
        move the earliest wake-up under an armed timer and must cancel it."""
        runtime = build_live_runtime(
            configs.live_ring(32, duration=0.5, seed=3, jitter=0.01)
        )
        armed: list[asyncio.TimerHandle] = []
        fired: set[int] = set()
        live_at_arm: list[int] = []

        async def session():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def spy(when, callback, *args, **kwargs):
                if callback != runtime._woken:
                    return call_at(when, callback, *args, **kwargs)
                live_at_arm.append(
                    sum(id(h) not in fired and not h.cancelled() for h in armed)
                )

                def fire():
                    fired.add(id(handle))
                    callback()

                handle = call_at(when, fire)
                armed.append(handle)
                return handle

            loop.call_at = spy
            return await runtime.run_async()

        live = asyncio.run(session())
        assert live.events_handled > 0 and len(armed) > 10
        assert max(live_at_arm) == 0
        assert all(id(h) in fired or h.cancelled() for h in armed)
        assert any(h.cancelled() for h in armed)

    def test_an_early_timer_leaves_a_fresh_handle_for_its_deadline(self):
        """asyncio runs a timer handle up to one clock resolution before its
        ``when``: the pump then finds nothing due, and must arm a new handle
        for the same ``when`` rather than keep the spent one."""
        runtime = build_live_runtime(
            configs.live_ring(2, duration=5.0, seed=1, oracle=False, topology="none"),
            capture_effects=True,
        )
        clock = [100.0]
        loop = asyncio.new_event_loop()
        loop.time = lambda: clock[0]

        def ticked():
            return [
                i for i, node in runtime.nodes.items()
                for _h, event, _fx in node.effect_log if event == TimerFired("tick")
            ]

        try:
            runtime._loop, runtime._done = loop, loop.create_future()
            runtime._t0, runtime._epoch_set = clock[0], True
            for node in runtime.nodes.values():
                node.post(Start())
            loop.run_until_complete(asyncio.sleep(0))  # the kicked pump
            spent = runtime._timer
            when = spent.when()
            assert when > clock[0] + 2e-3
            loop._clock_resolution = 2e-3
            clock[0] = when - 1e-3
            loop.run_until_complete(asyncio.sleep(0))  # runs ``spent`` early
            assert all(h is not spent for h in loop._scheduled)
            assert ticked() == []
            armed = runtime._timer
            assert armed is not spent and any(h is armed for h in loop._scheduled)
            assert armed.when() == when and not armed.cancelled()
            clock[0] = when + 1e-3
            loop.run_until_complete(asyncio.sleep(0))
            assert ticked()  # the node whose deadline it was has ticked
        finally:
            loop.close()

    # Jittered loopback: every delivery is a ``call_later`` callback outside
    # any pump.  Zero jitter: deliveries are posts inside the sender's pump.
    @pytest.mark.parametrize("jitter", [0.0, 0.01])
    def test_posts_kick_a_pump_only_from_outside_one(self, monkeypatch, jitter):
        chord = [(0.15, "add", 0, 4), (0.3, "remove", 0, 4)]
        runtime = build_live_runtime(
            configs.live_ring(
                8, duration=0.45, seed=5, jitter=jitter, churn="scripted", events=chord
            )
        )
        kicks: list[object] = []
        posts: list[tuple[bool, int, object, bool, int]] = []
        real_post = _LiveNode.post

        def post(node, event):
            inside, idle, before = runtime._pumping, runtime._kick is None, len(kicks)
            real_post(node, event)
            posts.append((inside, node.node_id, event, idle, len(kicks) - before))
            assert runtime._pumping or runtime._kick is not None

        monkeypatch.setattr(_LiveNode, "post", post)

        async def session():
            loop = asyncio.get_running_loop()
            call_soon = loop.call_soon

            def spy(callback, *args, **kwargs):
                if callback == runtime._pump:
                    kicks.append(callback)
                return call_soon(callback, *args, **kwargs)

            loop.call_soon = spy
            return await runtime.run_async()

        live = asyncio.run(session())
        assert live.transport_stats["delivered"] > 0
        for inside, _i, _event, idle, made in posts:
            assert made == (0 if inside else int(idle))
        outside = [(i, e) for inside, i, e, _idle, _made in posts if not inside]
        churned = {
            (0, DiscoverAdd(4)), (4, DiscoverAdd(0)),
            (0, DiscoverRemove(4)), (4, DiscoverRemove(0)),
        }
        assert churned <= set(outside)
        inside_messages = sum(
            inside and isinstance(e, MessageReceived) for inside, _i, e, _d, _m in posts
        )
        if jitter:
            assert inside_messages == 0
            assert any(isinstance(e, MessageReceived) for _i, e in outside)
        else:
            assert inside_messages == live.transport_stats["delivered"]


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


#: Datagrams no ``UdpChannel.send`` writes: each is counted and dropped.
MALFORMED = {
    "not_json": b"clock",
    "not_utf8": b"\xff\xfe",
    "too_deep": b"[" * 5_000,
    "not_an_object": b"[0, 1, [1.0, 2.0]]",
    "one_value": b'{"src": 0, "dst": 1, "p": [1.0]}',
    "three_values": b'{"src": 0, "dst": 1, "p": [1.0, 2.0, 3.0]}',
    "infinite": b'{"src": 0, "dst": 1, "p": [Infinity, Infinity]}',
    "nan": b'{"src": 0, "dst": 1, "p": [NaN, 1.0]}',
    "string_values": b'{"src": 0, "dst": 1, "p": "ab"}',
    "bool_value": b'{"src": 0, "dst": 1, "p": [true, 1.0]}',
    "integer_value": b'{"src": 0, "dst": 1, "p": [1.0, 2]}',
    "no_payload": b'{"src": 0, "dst": 1}',
    "unknown_dst": b'{"src": 0, "dst": 7, "p": [1.0, 2.0]}',
    "negative_src": b'{"src": -1, "dst": 1, "p": [1.0, 2.0]}',
    "float_src": b'{"src": 0.5, "dst": 1, "p": [1.0, 2.0]}',
    "string_dst": b'{"src": 0, "dst": "1", "p": [1.0, 2.0]}',
    "list_context": b'{"src": 0, "dst": 1, "p": [1.0, 2.0], "tc": [1, 2, 3]}',
    "float_context": b'{"src": 0, "dst": 1, "p": [1.0, 2.0], "tc": 3.5}',
    "bool_context": b'{"src": 0, "dst": 1, "p": [1.0, 2.0], "tc": true}',
}


class TestUdpDatagrams:
    """A datagram is input from outside the program: the channel delivers
    exactly two finite floats between opened endpoints, with an optional
    integer flight span id, and counts anything else in ``errors``."""

    @staticmethod
    def _exchange(
        datagrams: list[bytes], sends: tuple = (), via: int | None = None
    ) -> tuple[list[tuple], int]:
        """Send raw ``datagrams`` to node 1 of an open two-node channel --
        from an unbound socket, or from node ``via``'s own endpoint --
        then ``channel.send(*args)`` for each of ``sends``, then one
        well-formed frame from node 1 to node 0; return what reached
        ``deliver`` once every datagram is accounted for, and the
        channel's error count."""
        import socket

        delivered: list[tuple] = []
        total = len(datagrams) + len(sends) + 1

        async def session() -> int:
            channel = UdpChannel()
            await channel.open(lambda *frame: delivered.append(frame), [0, 1])
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sendto = sock.sendto if via is None else channel._transports[via].sendto
                    for data in datagrams:
                        sendto(data, channel._addrs[1])
                    for args in sends:
                        channel.send(*args)
                    channel.send(1, 0, (3.0, 4.0))
                deadline = time.monotonic() + 5.0
                while channel.errors + len(delivered) < total:
                    assert time.monotonic() < deadline, (channel.errors, delivered)
                    await asyncio.sleep(0.005)
                return channel.errors
            finally:
                await channel.aclose()

        try:
            errors = asyncio.run(session())
        except ChannelError as exc:
            pytest.skip(f"UDP sockets unavailable: {exc}")
        return delivered, errors

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_datagram_is_counted_and_dropped(self, name):
        """Sent from node 0's own endpoint, so that only the frame's
        content can be what the channel rejects."""
        delivered, errors = self._exchange([MALFORMED[name]], via=0)
        assert delivered == [(1, 0, (3.0, 4.0), None)]
        assert errors == 1

    def test_a_raw_frame_from_its_source_is_delivered(self):
        """The malformed cases' path: a well-formed frame sent from node
        0's own endpoint reaches node 1."""
        delivered, errors = self._exchange(
            [b'{"src": 0, "dst": 1, "p": [1.5, 2.0]}'], via=0
        )
        assert errors == 0
        assert sorted(delivered) == [(0, 1, (1.5, 2.0), None), (1, 0, (3.0, 4.0), None)]

    def test_well_formed_frames_are_delivered(self):
        delivered, errors = self._exchange(
            [b'{"src": 0, "dst": 1, "p": [1.5, 2.0]}'],
            sends=[(0, 1, (1.0, 2.0), 4), (1, 0, (5.0, 6.0))],
        )
        assert errors == 1  # the raw frame: a spoof of node 0
        assert sorted(delivered) == [
            (0, 1, (1.0, 2.0), 4),
            (1, 0, (3.0, 4.0), None),
            (1, 0, (5.0, 6.0), None),
        ]

    def test_a_spoofed_source_is_counted_and_not_delivered(self):
        """A frame naming ``src: 0`` from a socket that is not node 0's."""
        delivered, errors = self._exchange([b'{"src": 0, "dst": 1, "p": [1.5, 2.0]}'])
        assert delivered == [(1, 0, (3.0, 4.0), None)]
        assert errors == 1

    def test_a_frame_naming_another_destination_is_counted(self):
        """Node 0's own endpoint sends node 1's socket a frame naming
        ``dst: 0``: the socket that got it is not the one it names."""
        delivered, errors = self._exchange(
            [b'{"src": 0, "dst": 0, "p": [1.5, 2.0]}'], via=0
        )
        assert delivered == [(1, 0, (3.0, 4.0), None)]
        assert errors == 1

    def test_a_wildcard_bind_still_delivers(self):
        """Bound to ``0.0.0.0``, endpoints still hear each other: their
        datagrams come from the loopback address."""

        async def session() -> tuple[list[tuple], int]:
            delivered: list[tuple] = []
            channel = UdpChannel(host="0.0.0.0")
            await channel.open(lambda *frame: delivered.append(frame), [0, 1])
            try:
                channel.send(0, 1, (1.0, 2.0))
                channel.send(1, 0, (3.0, 4.0))
                deadline = time.monotonic() + 5.0
                while len(delivered) + channel.errors < 2:
                    assert time.monotonic() < deadline, (channel.errors, delivered)
                    await asyncio.sleep(0.005)
                return sorted(delivered), channel.errors
            finally:
                await channel.aclose()

        try:
            result = asyncio.run(session())
        except ChannelError as exc:
            pytest.skip(f"UDP sockets unavailable: {exc}")
        assert result == ([(0, 1, (1.0, 2.0), None), (1, 0, (3.0, 4.0), None)], 0)

    def test_late_datagram_after_close_is_counted(self):
        async def session() -> tuple[list[tuple], int]:
            delivered: list[tuple] = []
            channel = UdpChannel()
            await channel.open(lambda *frame: delivered.append(frame), [0, 1])
            await channel.aclose()
            channel._on_datagram(1, b'{"src": 0, "dst": 1, "p": [1.0, 2.0]}', None)
            return delivered, channel.errors

        try:
            assert asyncio.run(session()) == ([], 1)
        except ChannelError as exc:
            pytest.skip(f"UDP sockets unavailable: {exc}")

    def test_socket_errors_are_counted(self):
        from repro.live.channels import _UdpNodeProtocol

        channel = UdpChannel()
        _UdpNodeProtocol(channel, 0).error_received(ConnectionRefusedError())
        assert channel.errors == 1

    def test_send_to_an_unknown_endpoint_is_refused(self):
        with pytest.raises(ChannelError, match="unknown endpoint for send 0 -> 1"):
            UdpChannel().send(0, 1, (0.0, 0.0))

    def test_a_taken_port_is_a_channel_error(self):
        import socket

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            port = taken.getsockname()[1]
            # Node 1 binds ``base_port + 1``: the taken port.
            channel = UdpChannel(base_port=port - 1)
            with pytest.raises(ChannelError, match=f"node 1 on 127.0.0.1:{port}"):
                asyncio.run(channel.open(lambda *frame: None, [1]))
            assert channel._transports == {} and channel._addrs == {}


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

    @pytest.mark.parametrize(
        "events,message",
        [
            ([(0.1, "flip", 0, 2)], "bad churn op 'flip'"),
            ([(-0.1, "add", 0, 2)], "negative churn event time -0.1"),
        ],
    )
    def test_bad_script_rejected(self, events, message):
        with pytest.raises(ValueError, match=message):
            _runtime_like(build_live_runtime(configs.live_ring(8, duration=0.2)),
                          churn_events=events)

    def test_tolerant_replay_skips_what_already_holds(self):
        """Wall-clock replay may race a toggle: an add of a present edge
        and a remove of an absent one are skipped, an event at or after
        the session's end is never applied, and every applied flip is a
        traced edge span."""
        events = [
            (0.02, "add", 0, 1),  # a ring edge: already present
            (0.04, "remove", 0, 2),  # absent
            (0.06, "add", 0, 2),
            (0.10, "remove", 0, 2),
            (9.0, "add", 0, 3),  # after the end
        ]
        cfg = configs.live_ring(
            8, duration=0.6, seed=3, churn="scripted", events=events
        )
        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            with trace_session() as tracer:
                live = build_live_runtime(cfg).run()
            counters = registry.snapshot()["counters"]
        finally:
            registry.disable()
            registry.reset()
        assert counters["tracing.spans"] == len(tracer.table)  # the tracer's readback
        assert live.transport_stats["discoveries_skipped"] == 2
        # Both ends of the eight ring edges at the start, then of 0 - 2 twice.
        assert live.transport_stats["discoveries_delivered"] == 16 + 4
        assert tracer.table.kind.count(SPAN_EDGE) == 2
        assert 3 not in live.nodes[0].core.upsilon


def _runtime_like(runtime: LiveRuntime, **overrides) -> LiveRuntime:
    """A fresh ``LiveRuntime`` with ``runtime``'s cores and clocks."""
    kwargs = {
        "params": runtime.params,
        "cores": {i: node.core for i, node in runtime.nodes.items()},
        "clocks": {i: node.clock for i, node in runtime.nodes.items()},
        "channel": LoopbackChannel(),
        "duration": 0.2,
        **overrides,
    }
    return LiveRuntime(**kwargs)


class TestRuntimeUnit:
    """The session's input checks and its fabric, driven without a loop."""

    @pytest.fixture
    def runtime(self):
        runtime = build_live_runtime(configs.live_ring(4, duration=0.2))
        runtime._loop = loop = asyncio.new_event_loop()  # turns queue, never run
        yield runtime
        loop.close()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"duration": 0.0}, "duration must be positive"),
            ({"cores": {}}, "clocks and cores must cover the same node ids"),
            ({"clocks": {}}, "clocks and cores must cover the same node ids"),
        ],
    )
    def test_constructor_checks(self, runtime, overrides, message):
        with pytest.raises(ValueError, match=message):
            _runtime_like(runtime, **overrides)

    def test_core_ids_must_be_a_range(self, runtime):
        cores = {i + 1: node.core for i, node in runtime.nodes.items()}
        with pytest.raises(ValueError, match="core ids must be exactly 0..n-1"):
            _runtime_like(runtime, cores=cores)

    def test_send_over_a_missing_edge_is_a_traced_absence_discovery(self, runtime):
        runtime._tracer = tracer = Tracer()
        runtime._transmit(0, 2, (0.0, 0.0))  # 0 - 2 is a ring chord: no edge
        assert runtime.stats["dropped_no_edge"] == 1
        assert runtime.stats["discoveries_delivered"] == 1
        (event,) = runtime.nodes[0].pending
        assert isinstance(event, DiscoverRemove) and event.other == 2
        assert tracer.table.kind == [SPAN_FLIGHT, SPAN_DISCOVER]

    def test_arrival_over_a_removed_edge_is_a_traced_drop(self, runtime):
        runtime._tracer = tracer = Tracer()
        sent: list[tuple] = []
        runtime._loop.run_until_complete(
            runtime.channel.open(lambda *frame: sent.append(frame), [0, 1, 2, 3])
        )
        runtime._transmit(0, 1, (0.0, 0.0))  # a ring edge: handed to the channel
        runtime.graph.remove_edge(0, 1, 0.1)
        runtime._deliver(*sent[0])
        assert runtime.stats["dropped_removed"] == 1
        assert runtime.stats["delivered"] == 0
        assert tracer.table.status == [STATUS_DROPPED]

    def test_telemetry_reads_nothing_before_the_epoch(self, runtime):
        registry = MetricsRegistry()
        registry.enable()
        runtime.instrument(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["live.wall_vs_subjective_drift"] is None
        assert gauges["live.heartbeat_age_s"] is None
