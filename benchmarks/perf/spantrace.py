"""Outside-in span tracing for the perf benchmark's traced run.

Every layer is measured from outside the program: :class:`SpanTracer`
replaces public entry points *on their classes* with timing wrappers,
before the experiment is built (constructors cache bound methods such as
``ClockSyncNode._push``, so a later patch would be bypassed), keeps one
aggregate row per ``(span, parent span)`` in memory, and restores every
original on :meth:`SpanTracer.uninstall`.

A span only records while a *root* span (``Simulator.run_until``,
``LiveRuntime.run``, the par coordinator's pipe calls) is open, so the
table describes the run phase alone and

    self_s(span) = total_s(span) - time covered by its child spans

sums over all spans to the root spans' total.  Set-up has its own
end-to-end metric and is not traced.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

ROOT_SIM = "sim.simulator.run"
ROOT_LIVE = "live.runtime.run"

#: Kernel event kind -> span of the handler registered for it.
_HANDLER_SPANS = {
    "deliver": "network.transport.deliver",
    "deliver_burst": "network.transport.deliver",
    "discover": "network.transport.discover",
    "timer": "core.node.timer",
    "tick_burst": "core.node.timer",
}
#: Spans that are one kernel dispatch each (a handler invocation).
HANDLER_SPANS = frozenset(_HANDLER_SPANS.values())

_INHERITED = object()


def _layer_of(fn: Callable[..., Any]) -> str | None:
    """Layer (module path below ``repro``) owning a bound-method callback."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else ""
    return module[len("repro."):] if module.startswith("repro.") else None


class SpanTracer:
    """Aggregate span table plus the class-level patches that feed it."""

    def __init__(self) -> None:
        #: ``(span, parent) -> [calls, total_s, child_s]``
        self.table: dict[tuple[str, str], list[Any]] = {}
        self._stack: list[list[Any]] = [["", 0.0]]
        self._patches: list[tuple[type, str, Any]] = []
        self._wrapped: dict[Any, Callable[..., Any]] = {}

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        root: bool = False,
        namer: Callable[..., str] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` timed as span ``name`` (``namer(*args)`` if given)."""
        stack = self._stack
        table = self.table
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            if not root and len(stack) == 1:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name if namer is None else namer(*args), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (frame[0], parent[0])
                row = table.get(key)
                if row is None:
                    table[key] = [1, dt, frame[1]]
                else:
                    row[0] += 1
                    row[1] += dt
                    row[2] += frame[1]

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _wrap_once(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """One wrapper per ``(span, callable)``.

        Bound methods compare equal per ``(instance, function)``, so
        re-registering the same handler yields the same wrapper and
        ``Simulator.set_handler``'s same-handler check still holds.
        """
        wrapper = self._wrapped.get((name, fn))
        if wrapper is None:
            wrapper = self._wrapped[(name, fn)] = self.wrap(name, fn)
        return wrapper

    def replace(self, owner: type, attr: str, new: Any) -> None:
        """Install ``new`` as ``owner.attr``, remembering what was there
        (``_INHERITED`` when the class only inherits the attribute)."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def patch(self, owner: type, attr: str, name: str, **kwargs: Any) -> None:
        """Time ``owner.attr`` as span ``name``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        self.table.clear()

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._wrapped.clear()

    # ------------------------------------------------------------------ #
    # Patch sets (imports are local: the tracer is importable without repro)
    # ------------------------------------------------------------------ #

    def install_protocol(self) -> None:
        """Spans shared by the sim and live runtimes: core and oracle."""
        from repro.core.protocol import ProtocolCore
        from repro.obs.timeline import TimelineRecorder
        from repro.oracle.monitors import MONITOR_FACTORIES
        from repro.oracle.oracle import StreamingOracle

        names: dict[type, str] = {}

        def handle_span(_core: Any, _now_h: float, event: Any) -> str:
            kind = type(event)
            name = names.get(kind)
            if name is None:
                name = names[kind] = f"core.protocol.handle.{kind.__name__}"
            return name

        self.patch(ProtocolCore, "handle", "core.protocol.handle", namer=handle_span)
        self.patch(StreamingOracle, "sample", "oracle.sample")
        self.patch(StreamingOracle, "edge_event", "oracle.edge_event")
        for monitor_cls in MONITOR_FACTORIES.values():
            self.patch(
                monitor_cls,  # type: ignore[arg-type]
                "on_sample",
                f"oracle.monitor.{monitor_cls.name}",  # type: ignore[attr-defined]
            )
        self.patch(TimelineRecorder, "record", "obs.timeline.record")

    def install_sim(self) -> None:
        """Spans of the serial discrete-event runtime."""
        from repro.core.batch import NodeArrayTable
        from repro.core.node import ClockSyncNode
        from repro.network.graph import DynamicGraph
        from repro.network.transport import Transport
        from repro.sim.events import KIND_NAMES
        from repro.sim.queue import EventQueue
        from repro.sim.simulator import Simulator

        self.install_protocol()
        self.patch(Simulator, "run_until", ROOT_SIM, root=True)
        for attr in ("push_typed", "push_keyed", "repush"):
            self.patch(EventQueue, attr, "sim.queue.push")
        for attr in ("pop", "pop_until", "pop_run"):
            self.patch(EventQueue, attr, "sim.queue.pop")
        self.patch(EventQueue, "cancel", "sim.queue.cancel")
        self.patch(Transport, "send", "network.transport.send")
        for attr in ("add_edge", "remove_edge"):
            self.patch(DynamicGraph, attr, "network.graph.mutate")
        for attr in ("on_message", "on_discover_add", "on_discover_remove"):
            self.patch(ClockSyncNode, attr, "core.node.on_message")
        for attr in ("deliver_batch", "deliver_burst"):
            self.patch(NodeArrayTable, attr, "core.batch.deliver")
        for attr in ("handle_timer_batch", "handle_tick_group"):
            self.patch(NodeArrayTable, attr, "core.batch.timer")
        for attr in ("clock_column", "max_estimate_column"):
            self.patch(NodeArrayTable, attr, "core.batch.column")

        # Handlers, periodic callbacks and graph listeners are private
        # callables handed to a public registration call: wrap them there.
        def registering(attr: str) -> Callable[..., None]:
            original = Simulator.__dict__[attr]

            def register(sim: Any, kind: int, handler: Any) -> None:
                name = _HANDLER_SPANS.get(KIND_NAMES[kind])
                if name is not None:
                    handler = self._wrap_once(name, handler)
                original(sim, kind, handler)

            return register

        self.replace(Simulator, "set_handler", registering("set_handler"))
        self.replace(Simulator, "set_batch_handler", registering("set_batch_handler"))

        every = Simulator.__dict__["every"]

        def traced_every(sim: Any, interval: float, callback: Any, **kw: Any) -> None:
            layer = _layer_of(callback)
            # StreamingOracle.sample is already a class-level span.
            if layer is not None and not hasattr(callback, "__wrapped__"):
                callback = self._wrap_once(f"{layer}.sample", callback)
            every(sim, interval, callback, **kw)

        self.replace(Simulator, "every", traced_every)

        subscribe = DynamicGraph.__dict__["subscribe"]

        def traced_subscribe(graph: Any, listener: Any) -> None:
            layer = _layer_of(listener)
            if layer is not None and not hasattr(listener, "__wrapped__"):
                listener = self._wrap_once(f"{layer}.edge_event", listener)
            subscribe(graph, listener)

        self.replace(DynamicGraph, "subscribe", traced_subscribe)

    def install_live(self) -> None:
        """Spans of the asyncio runtime (synchronous entry points only)."""
        from repro.live.channels import LoopbackChannel
        from repro.live.runtime import LiveRuntime

        self.install_protocol()
        self.patch(LiveRuntime, "run", ROOT_LIVE, root=True)
        self.patch(LoopbackChannel, "send", "live.channels.send")

    def install_par_coordinator(self) -> None:
        """Coordinator-side spans of the sharded runtime.

        Forked workers inherit the patched classes; the pid check makes
        the wrappers pass-through there (worker span tables could not be
        shipped back from outside -- worker numbers come from the
        program's own ``par.*`` readbacks).
        """
        from multiprocessing.connection import Connection

        from repro.sim.simulator import Simulator

        pid = os.getpid()

        def coordinator_only(timed: Any, plain: Any) -> Callable[..., Any]:
            return lambda *args, **kw: (
                timed if os.getpid() == pid else plain
            )(*args, **kw)

        for owner, attr, name in (
            (Connection, "recv", "sim.par.coord_recv"),
            (Connection, "send", "sim.par.coord_send"),
            (Simulator, "run_until", "sim.par.coord_oracle"),
        ):
            plain = getattr(owner, attr)
            timed = self.wrap(name, plain, root=True)
            self.replace(owner, attr, coordinator_only(timed, plain))

    # ------------------------------------------------------------------ #
    # Readout
    # ------------------------------------------------------------------ #

    def spans(self) -> dict[str, dict[str, float]]:
        """Per-span ``calls`` / ``total_s`` / ``self_s`` summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, total, child) in self.table.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += total - child
        return out

    def rows(self) -> list[dict[str, Any]]:
        """The raw ``(span, parent)`` table, JSON-safe, for the artifact."""
        return [
            {
                "span": name,
                "parent": parent,
                "calls": calls,
                "total_s": total,
                "self_s": total - child,
            }
            for (name, parent), (calls, total, child) in sorted(self.table.items())
        ]
