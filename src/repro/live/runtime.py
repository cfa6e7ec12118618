"""The asyncio runtime: sans-IO protocol cores on a callback scheduler.

:class:`LiveRuntime` is the second driver for the protocol cores of
:mod:`repro.core.protocol` (the first being the discrete-event simulator).
No node owns a coroutine: each keeps a FIFO of pending events and a table
of subjective-timer deadlines, driven by plain event-loop callbacks.

1. Posting an event (``Start``, a message, a discovery) appends it to the
   destination's FIFO and queues one ``loop.call_soon`` *turn* for that
   node, unless one is already queued.
2. A turn fires the node's due timers, then drains its FIFO: each event is
   stamped with the hardware reading ``H_u(t) = rate_u * t`` at dispatch
   (``t`` = seconds since the shared session epoch) and fed to the core.
   It ends by re-arming the node's one ``loop.call_at`` *wake-up*, only if
   its earliest deadline moved.
3. Effects apply synchronously inside the dispatch: sends through the
   pluggable :class:`~repro.live.channels.LiveChannel`, timers into the
   deadline table (subjective delays converted through the clock's exact
   inverse), deferred jumps back into the core.

The loop runs one callback at a time and a dispatch neither awaits nor
re-enters (a message the zero-jitter loopback delivers inside the sender's
dispatch only joins the destination's FIFO), so each event dispatch is
atomic -- the sampler can only ever observe cores between events, exactly
like the simulator's ``PRIORITY_SAMPLE`` convention.

**Topology and churn.**  The runtime owns a
:class:`~repro.network.graph.DynamicGraph` (real-time timestamps).  Sends
on absent edges are dropped and surface to the sender as a
``DiscoverRemove`` (the model's MAC-ack abstraction); scripted churn
events are replayed at their wall-clock offsets and surface to both
endpoints as discovery events.

**Online conformance.**  A :class:`~repro.oracle.oracle.StreamingOracle`
attaches through its driver-agnostic half
(:meth:`~repro.oracle.oracle.StreamingOracle.attach`): the runtime samples
it on a wall-clock cadence and feeds it graph events, so live runs are
checked against the paper's bounds by the *same* monitor code as
simulations.  Sampling uses the exact arithmetic map ``H_u(t) = rate_u *
t`` for every node at one shared ``t``, so rate-floor checks see no
sampling noise.

The whole session is wall-clock capped: no turn dispatches at or after
``duration``, and one ``call_at(epoch + duration)`` resolves the future
:meth:`LiveRuntime.run_async` awaits.  A turn that raises resolves it too,
or the loop's callback handler would log the exception and carry on.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.protocol import (
    CancelTimer,
    DiscoverAdd,
    DiscoverRemove,
    Effect,
    Event,
    JumpL,
    MessageReceived,
    ProtocolCore,
    Send,
    SetTimer,
    Start,
    TimerFired,
)
from ..network.graph import DynamicGraph
from ..oracle.oracle import OracleReport, StreamingOracle
from ..params import SystemParams
from ..telemetry.registry import Gauge, Histogram, MetricsRegistry, active_registry
from ..tracing.context import Tracer, active_tracer
from .channels import LiveChannel
from .clocks import LiveClock

__all__ = ["LiveNodeView", "LiveRunResult", "LiveRuntime"]

#: Churn script entry, mirroring ScriptedChurn: ``(t_real, op, u, v)``.
ChurnEvent = tuple[float, str, int, int]

#: Per-dispatch effect-log entry (enabled per node for parity tests).
EffectLogEntry = tuple[float, Event, tuple[Effect, ...]]


class LiveNodeView:
    """Read-only node facade: what recorders, oracles and results see.

    Exposes the same sampling surface as the sim driver
    (:class:`repro.core.node.ClockSyncNode`): ``logical_clock(t)`` /
    ``max_estimate(t)`` plus the core's counters, with ``t`` in session
    seconds.
    """

    __slots__ = ("node_id", "core", "clock")

    def __init__(self, node_id: int, core: ProtocolCore, clock: LiveClock) -> None:
        self.node_id = node_id
        self.core = core
        self.clock = clock

    def hardware_clock(self, t: float) -> float:
        """``H_u(t)``."""
        return self.clock.h_at(t)

    def logical_clock(self, t: float) -> float:
        """``L_u(t)`` (``t`` at or after the node's last handled event)."""
        return self.core.logical_clock_at(self.clock.h_at(t))

    def max_estimate(self, t: float) -> float:
        """``Lmax_u(t)`` -- same contract as :meth:`logical_clock`."""
        return self.core.max_estimate_at(self.clock.h_at(t))

    @property
    def jumps(self) -> int:
        """Number of discrete clock jumps so far."""
        return self.core.jumps

    @property
    def total_jump(self) -> float:
        """Total jumped distance so far."""
        return self.core.total_jump

    @property
    def messages_sent(self) -> int:
        """Messages the core asked to send so far."""
        return self.core.messages_sent


class _LiveNode:
    """One node: pending-event FIFO, subjective-timer table, effect application."""

    __slots__ = (
        "runtime",
        "node_id",
        "core",
        "clock",
        "pending",
        "timers",
        "queued",
        "wake",
        "events_handled",
        "effect_log",
    )

    def __init__(
        self,
        runtime: "LiveRuntime",
        node_id: int,
        core: ProtocolCore,
        clock: LiveClock,
    ) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.core = core
        self.clock = clock
        #: Events awaiting this node's turn, in arrival order.
        self.pending: deque[Event] = deque()
        #: key -> absolute session-time deadline of the pending timer.
        self.timers: dict[Any, float] = {}
        #: A ``call_soon`` turn is queued / the armed ``call_at`` wake-up.
        self.queued = False
        self.wake: asyncio.TimerHandle | None = None
        self.events_handled = 0
        #: Set to a list to capture ``(now_h, event, effects)`` per dispatch.
        self.effect_log: list[EffectLogEntry] | None = None

    def post(self, event: Event) -> None:
        """Queue ``event`` for this node's next turn (never dispatches)."""
        self.pending.append(event)
        runtime = self.runtime
        if len(self.pending) > runtime.queue_depth_max:
            runtime.queue_depth_max = len(self.pending)
        if not self.queued:
            self.queued = True
            runtime._loop.call_soon(self.turn)

    def dispatch(self, t: float, event: Event) -> None:
        """Feed one event to the core at session time ``t``; apply effects."""
        tracer = self.runtime._tracer
        if tracer is not None:
            # Enter the event's causal scope: a delivered message closes
            # its flight span (mapped at enqueue time), a timer firing
            # opens a timer span; effects below parent onto it.
            sid = self.runtime._event_spans.pop(id(event), -1)
            if sid >= 0:
                if type(event) is MessageReceived:
                    tracer.flight_deliver(sid, t)
                tracer.current = sid
            elif type(event) is TimerFired:
                tracer.timer_fired(self.node_id, t)
        now_h = self.clock.h_at(t)
        effects = self.core.handle(now_h, event)
        self.events_handled += 1
        heartbeat = self.runtime._tele_heartbeat
        if heartbeat is not None:
            heartbeat.set(t)
        if self.effect_log is not None:
            self.effect_log.append((now_h, event, tuple(effects)))
        for eff in effects:
            if isinstance(eff, Send):
                self.runtime._transmit(self.node_id, eff.dest, eff.payload)
            elif isinstance(eff, SetTimer):
                self.timers[eff.key] = t + self.clock.real_delay(eff.delay_h)
            elif isinstance(eff, CancelTimer):
                self.timers.pop(eff.key, None)
            elif isinstance(eff, JumpL):
                if tracer is not None:
                    core = self.core
                    tracer.jump(
                        self.node_id,
                        t,
                        eff.new_value - core.logical_clock_at(core.h_last),
                    )
                self.core.apply_jump(eff.new_value)
            # RaiseLmax is informational: already applied by the core.
        if tracer is not None:
            tracer.reset_current()

    def _fire_due_timers(self, t: float) -> None:
        """Dispatch every timer due at ``t``, in ``(deadline, repr(key))`` order."""
        timers = self.timers
        if not timers or min(timers.values()) > t:
            return
        due = sorted(
            (deadline, repr(key), key)
            for key, deadline in timers.items()
            if deadline <= t
        )
        runtime = self.runtime
        lag_hist = runtime._tele_timer_lag
        for deadline, _tag, key in due:
            # A previous firing in this batch may have re-armed/cancelled.
            current = timers.get(key)
            if current is None or current > t:
                continue
            del timers[key]
            lag = t - deadline
            if lag > runtime.timer_lag_max:
                runtime.timer_lag_max = lag
            if lag_hist is not None:
                lag_hist.observe(lag)
            self.dispatch(t, TimerFired(key))

    def turn(self, woken: bool = False) -> None:
        """One loop callback: due timers, then the FIFO, then the wake-up."""
        runtime = self.runtime
        if woken:
            # asyncio may run a timer handle a clock resolution before its
            # ``when``: the handle is spent, so the re-arm below must cover
            # a deadline this turn finds not yet due.
            self.wake = None
        else:
            self.queued = False
        if runtime._done.done():
            return
        duration = runtime.duration
        try:
            t = runtime.now()
            if t >= duration:
                return
            self._fire_due_timers(t)
            pending = self.pending
            while pending and (t := runtime.now()) < duration:
                self.dispatch(t, pending.popleft())
        except Exception as exc:
            # The loop would only log it: fail the session instead.
            runtime._done.set_exception(exc)
            return
        # Deadlines at or past ``duration`` never fire: teardown cancels.
        when = runtime._t0 + min(self.timers.values(), default=duration)
        wake = self.wake
        if wake is None or wake.when() != when:
            if wake is not None:
                wake.cancel()
            self.wake = runtime._loop.call_at(when, self.turn, True)


@dataclass
class LiveRunResult:
    """Everything a finished live session produced."""

    params: SystemParams
    duration: float
    elapsed: float
    nodes: dict[int, LiveNodeView]
    graph: DynamicGraph
    transport_stats: dict[str, int]
    events_handled: int
    oracle_report: OracleReport | None = None
    name: str = ""
    #: Per-node effect logs, populated when the runtime ran with
    #: ``capture_effects=True`` (parity tests).
    effect_logs: dict[int, list[EffectLogEntry]] = field(default_factory=dict)
    #: What the session cost the host: process CPU, the latest any timer
    #: fired after its deadline, the deepest any node's FIFO got.
    cpu_seconds: float = 0.0
    timer_lag_max: float = 0.0
    queue_depth_max: int = 0

    def total_jumps(self) -> int:
        """Total discrete clock jumps across all nodes."""
        return sum(view.jumps for view in self.nodes.values())

    def cost(self) -> dict[str, float]:
        """The ``"live"`` block of ``repro live --json`` (docs/observability.md)."""
        return {
            "cpu_us_per_event": 1e6 * self.cpu_seconds / max(self.events_handled, 1),
            "timer_lag_max_s": self.timer_lag_max,
            "queue_depth_max": self.queue_depth_max,
        }

    def cost_line(self) -> str:
        """The cost as one summary line, lag read against the delay bound."""
        return (
            f"  cost: {self.cost()['cpu_us_per_event']:.0f} µs CPU/event · "
            f"worst timer lag {1e3 * self.timer_lag_max:.1f} ms of 𝒯 = "
            f"{1e3 * self.params.max_delay:.0f} ms · deepest queue {self.queue_depth_max}"
        )

    def summary(self) -> str:
        """One-paragraph human-readable session summary."""
        lines = [
            f"live run '{self.name or 'session'}': n={self.params.n} "
            f"duration={self.duration:.3g}s (elapsed {self.elapsed:.3g}s)",
            f"  events: {self.events_handled}  messages: "
            f"{self.transport_stats['sent']} sent / "
            f"{self.transport_stats['delivered']} delivered  "
            f"jumps: {self.total_jumps()}",
            self.cost_line(),
        ]
        if self.oracle_report is not None:
            rep = self.oracle_report
            lines.append(
                f"  oracle: {'OK' if rep.ok else 'VIOLATED'} "
                f"({rep.checks} checks, {rep.violation_count} violations)"
            )
        return "\n".join(lines)


class LiveRuntime:
    """Run a set of protocol cores in wall-clock time on one asyncio loop.

    Parameters
    ----------
    params:
        Model parameters; in live mode one model time unit is one real
        second, so ``max_delay``/``tick_interval`` are in seconds.
    cores:
        ``node_id -> ProtocolCore``; ids must be ``0..n-1``.
    clocks:
        ``node_id -> LiveClock`` (see :func:`repro.live.clocks.build_live_clocks`).
    channel:
        The message fabric (loopback or UDP).
    duration:
        Wall-clock session length in seconds (hard cap).
    initial_edges:
        ``E_0``; endpoints learn about them at session start.
    churn_events:
        Scripted ``(t, op, u, v)`` topology events, ``t`` in session
        seconds.
    oracle:
        Optional un-installed :class:`StreamingOracle` to attach.
    sample_interval:
        Oracle sampling cadence in seconds (default 0.25).
    capture_effects:
        Record per-node ``(now_h, event, effects)`` logs (parity tests).
    """

    #: Bound by :meth:`run_async`: the loop the turns run on, and the
    #: future the end-of-session timer (or a failing turn) resolves.
    _loop: asyncio.AbstractEventLoop
    _done: asyncio.Future[None]

    def __init__(
        self,
        params: SystemParams,
        cores: Mapping[int, ProtocolCore],
        clocks: Mapping[int, LiveClock],
        channel: LiveChannel,
        *,
        duration: float,
        initial_edges: Sequence[tuple[int, int]] = (),
        churn_events: Sequence[ChurnEvent] = (),
        oracle: StreamingOracle | None = None,
        sample_interval: float = 0.25,
        capture_effects: bool = False,
        name: str = "",
    ) -> None:
        if duration <= 0.0:
            raise ValueError(f"duration must be positive; got {duration!r}")
        if sorted(cores) != list(range(len(cores))):
            raise ValueError("core ids must be exactly 0..n-1")
        if sorted(clocks) != sorted(cores):
            raise ValueError("clocks and cores must cover the same node ids")
        self.params = params
        self.channel = channel
        self.duration = float(duration)
        self.sample_interval = float(sample_interval)
        self.oracle = oracle
        self.name = name
        self.graph = DynamicGraph(sorted(cores), initial_edges)
        self.nodes: dict[int, _LiveNode] = {
            i: _LiveNode(self, i, core, clocks[i]) for i, core in cores.items()
        }
        if capture_effects:
            for node in self.nodes.values():
                node.effect_log = []
        self.views: dict[int, LiveNodeView] = {
            i: LiveNodeView(i, node.core, node.clock)
            for i, node in self.nodes.items()
        }
        self._churn_events: list[ChurnEvent] = sorted(
            churn_events, key=lambda e: e[0]
        )
        for t, op, _u, _v in self._churn_events:
            if op not in ("add", "remove"):
                raise ValueError(f"bad churn op {op!r}")
            if t < 0.0:
                raise ValueError(f"negative churn event time {t!r}")
        self.stats = {
            "sent": 0,
            "delivered": 0,
            "dropped_no_edge": 0,
            "dropped_removed": 0,
            "discoveries_delivered": 0,
            "discoveries_skipped": 0,
        }
        self._t0 = 0.0
        self._epoch_set = False
        #: Run cost (one compare per timer fire / per post, no registry).
        self.timer_lag_max = 0.0
        self.queue_depth_max = 0
        #: Telemetry instruments, populated by :meth:`instrument`; hot
        #: paths pay one ``is not None`` check each while telemetry is off.
        self._tele_timer_lag: Histogram | None = None
        self._tele_heartbeat: Gauge | None = None
        #: Span tracer, picked up from the ambient slot in :meth:`run_async`.
        self._tracer: Tracer | None = None
        #: ``id(queued event) -> span id`` for events whose span was opened
        #: at enqueue time (flights, discoveries); popped at dispatch.
        self._event_spans: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register live-session health metrics on ``registry``.

        Transport-style counters reuse the sim's ``transport.*`` names so
        ``repro top`` reads identically for both drivers; the live-only
        signals (inbox depths, timer lag, heartbeat age, wall-vs-subjective
        drift) live under ``live.*``.  Everything is either polled
        out-of-band or a plain attribute write on the dispatch path.
        """
        stats = self.stats

        def _stat_reader(field: str) -> Any:
            return lambda: stats[field]

        for field_name in stats:
            registry.counter_fn(f"transport.{field_name}", _stat_reader(field_name))
        nodes = list(self.nodes.values())
        registry.counter_fn(
            "live.events_handled", lambda: sum(n.events_handled for n in nodes)
        )
        registry.gauge_fn(
            "live.inbox_depth", lambda: sum(len(n.pending) for n in nodes)
        )
        registry.gauge_fn(
            "live.inbox_max", lambda: max(len(n.pending) for n in nodes)
        )
        registry.gauge_fn(
            "live.timers_pending", lambda: sum(len(n.timers) for n in nodes)
        )
        registry.gauge_fn(
            "live.session_time", lambda: self.now() if self._epoch_set else None
        )

        def _max_drift() -> float | None:
            if not self._epoch_set:
                return None
            t = self.now()
            return max(abs(n.clock.h_at(t) - t) for n in nodes)

        registry.gauge_fn("live.wall_vs_subjective_drift", _max_drift)

        def _heartbeat_age() -> float | None:
            last = self._tele_heartbeat.value if self._tele_heartbeat else None
            if last is None or not self._epoch_set:
                return None
            return self.now() - last

        registry.gauge_fn("live.heartbeat_age_s", _heartbeat_age)
        self._tele_heartbeat = registry.gauge("live.last_dispatch_t")
        self._tele_timer_lag = registry.histogram("live.timer_lag_s")

    # ------------------------------------------------------------------ #
    # Session clock
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """Seconds since the session epoch (shared by every node), on the
        loop's own clock -- the one its ``call_at`` deadlines are read on."""
        return self._loop.time() - self._t0

    # ------------------------------------------------------------------ #
    # Message fabric
    # ------------------------------------------------------------------ #

    def _transmit(self, src: int, dst: int, payload: Any) -> None:
        """Apply one Send effect: edge check, then hand to the channel."""
        self.stats["sent"] += 1
        tracer = self._tracer
        if not self.graph.has_edge(src, dst):
            # The MAC-ack abstraction: a failed send surfaces to the
            # sender as (prompt) discovery that the edge is gone.
            self.stats["dropped_no_edge"] += 1
            if tracer is not None:
                tracer.flight_fail(
                    src, dst, self.now() if self._epoch_set else 0.0
                )
            self._discover(src, DiscoverRemove(dst))
            return
        if tracer is not None:
            t = self.now() if self._epoch_set else 0.0
            sid = tracer.flight_send(src, dst, t, t)
            self.channel.send(src, dst, payload, (sid, src, tracer.current))
        else:
            self.channel.send(src, dst, payload)

    def _deliver(
        self,
        src: int,
        dst: int,
        payload: Any,
        ctx: tuple[int, int, int] | None = None,
    ) -> None:
        """Channel callback: queue a received message for ``dst``'s turn."""
        tracer = self._tracer
        if not self.graph.has_edge(src, dst):
            self.stats["dropped_removed"] += 1
            if tracer is not None and ctx is not None:
                tracer.flight_drop(
                    ctx[0], self.now() if self._epoch_set else 0.0
                )
            return
        self.stats["delivered"] += 1
        event = MessageReceived(src, payload)
        if tracer is not None and ctx is not None:
            # The flight closes at dispatch time (when the receiving core
            # actually processes it), so map the queued event to its span.
            self._event_spans[id(event)] = ctx[0]
        self.nodes[dst].post(event)

    def _discover(self, node_id: int, event: DiscoverAdd | DiscoverRemove) -> None:
        self.stats["discoveries_delivered"] += 1
        tracer = self._tracer
        if tracer is not None:
            sid = tracer.discover_queued(
                node_id,
                event.other,
                self.now() if self._epoch_set else 0.0,
                isinstance(event, DiscoverAdd),
            )
            if sid >= 0:
                self._event_spans[id(event)] = sid
        self.nodes[node_id].post(event)

    # ------------------------------------------------------------------ #
    # Auxiliary tasks
    # ------------------------------------------------------------------ #

    async def _run_churn(self) -> None:
        for t_ev, op, u, v in self._churn_events:
            delay = t_ev - self.now()
            if delay > 0.0:
                await asyncio.sleep(delay)
            t = self.now()
            if t >= self.duration:
                return
            # Tolerant replay (unlike the sim's exact ScriptedChurn):
            # wall-clock scheduling may race a previous toggle.
            if op == "add":
                if self.graph.has_edge(u, v):
                    self.stats["discoveries_skipped"] += 1
                    continue
                self.graph.add_edge(u, v, t)
                if self._tracer is not None:
                    self._tracer.edge_flip(t, u, v, True)
                self._discover(u, DiscoverAdd(v))
                self._discover(v, DiscoverAdd(u))
            else:
                if not self.graph.has_edge(u, v):
                    self.stats["discoveries_skipped"] += 1
                    continue
                self.graph.remove_edge(u, v, t)
                if self._tracer is not None:
                    self._tracer.edge_flip(t, u, v, False)
                self._discover(u, DiscoverRemove(v))
                self._discover(v, DiscoverRemove(u))

    async def _run_sampler(self) -> None:
        oracle = self.oracle
        if oracle is None:
            return
        next_t = self.sample_interval
        while next_t <= self.duration:
            delay = next_t - self.now()
            if delay > 0.0:
                await asyncio.sleep(delay)
            t = self.now()
            if t > self.duration:
                return
            oracle.sample(t)
            next_t += self.sample_interval

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def _end(self) -> None:
        """The end-of-session timer (a failed turn may have got there first)."""
        if not self._done.done():
            self._done.set_result(None)

    async def run_async(self) -> LiveRunResult:
        """Run the session on the current event loop."""
        telemetry = active_registry()
        self._tracer = active_tracer()
        if telemetry is not None:
            self.instrument(telemetry)
            if self.oracle is not None:
                self.oracle.instrument(telemetry)
            if self._tracer is not None:
                self._tracer.instrument(telemetry)
        if self._tracer is not None and self.oracle is not None:
            self.oracle.attach_tracer(self._tracer)
        loop = self._loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        await self.channel.open(self._deliver, sorted(self.nodes))
        oracle = self.oracle
        if oracle is not None:
            oracle.attach(self.views, interval=self.sample_interval)
            oracle.attach_graph(self.graph)
        # Per-node order: Start, E_0 (known to its endpoints from the start)
        # in edge order, then arrivals.  Turns first run at the await below.
        for _i, node in sorted(self.nodes.items()):
            node.post(Start())
        for u, v in self.graph.edges():
            self._discover(u, DiscoverAdd(v))
            self._discover(v, DiscoverAdd(u))
        cpu0 = time.process_time()
        # The epoch starts after transport setup (UDP binds can take a
        # while) so the full duration belongs to protocol activity.
        self._t0 = loop.time()
        self._epoch_set = True
        if oracle is not None:
            oracle.sample(0.0)
        end = loop.call_at(self._t0 + self.duration, self._end)
        aux_tasks = [
            asyncio.ensure_future(self._run_churn()),
            asyncio.ensure_future(self._run_sampler()),
        ]
        try:
            await self._done
        finally:
            # Leave nothing on the loop (a turn still queued is a no-op).
            end.cancel()
            for node in self.nodes.values():
                if node.wake is not None:
                    node.wake.cancel()
            for task in aux_tasks:
                task.cancel()
            settled = await asyncio.gather(*aux_tasks, return_exceptions=True)
            await self.channel.aclose()
            # A dead churn script or oracle sampler must fail the session
            # loudly -- a vacuous oracle_ok would defeat the whole gate.
            # (CancelledError subclasses BaseException, so end-of-session
            # cancellations fall through this filter.)
            for outcome in settled:
                if isinstance(outcome, Exception):
                    raise outcome
        elapsed = self.now()
        if oracle is not None:
            # One last sample at session end, like the recorder's horizon.
            oracle.sample(elapsed)
        return LiveRunResult(
            params=self.params,
            duration=self.duration,
            elapsed=elapsed,
            nodes=self.views,
            graph=self.graph,
            transport_stats=dict(self.stats),
            events_handled=sum(n.events_handled for n in self.nodes.values()),
            oracle_report=oracle.report() if oracle is not None else None,
            name=self.name,
            effect_logs={
                i: node.effect_log
                for i, node in self.nodes.items()
                if node.effect_log is not None
            },
            cpu_seconds=time.process_time() - cpu0,
            timer_lag_max=self.timer_lag_max,
            queue_depth_max=self.queue_depth_max,
        )

    def run(self) -> LiveRunResult:
        """Run the session to completion (owns a fresh event loop)."""
        return asyncio.run(self.run_async())
