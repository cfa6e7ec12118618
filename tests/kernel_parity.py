"""Kernel parity as one property: one runner, one fingerprint, one check.

Every fast path must leave exactly what the ``handle()`` reference
(``Simulator(batch=False)``, i.e. ``REPRO_BATCH=0``) leaves.  :func:`check`
runs a config four ways -- {reference, default kernel} x {observers off,
span tracer + skew timeline + telemetry on} -- and a fifth, the default
kernel with no node touched before the run returns, folds each run into
one :func:`fingerprint` and fails on the first ``(t, node, field)`` where
two runs part.  Floats are compared bit for bit.

``tests/test_kernel_parity.py`` drives it over drawn configs, the named
case table and the benchmark workloads; the configs and hooks several
test files share live here too.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np
import pytest

from repro.core import batch as batch_mod
from repro.core.batch import NodeArrayTable, PopulationReader
from repro.core.node import ClockSyncNode, Population
from repro.core.protocol import DCSACore, JumpL, ProtocolCore
from repro.harness import configs
from repro.harness.registry import DiscoveryRef
from repro.harness.runner import Experiment, RunResult
from repro.obs import timeline_session
from repro.sim import simulator as simulator_mod
from repro.sim.events import KIND_DELIVER_BURST, KIND_TICK_BURST, N_KINDS
from repro.telemetry import get_registry
from repro.tracing import SPAN_DISCOVER, SPAN_FLIGHT, trace_session

#: What ``ProtocolCore.handle`` receives for a node event (a ``lost``
#: timer counted apart from ticks).
NODE_EVENTS = ("MessageReceived", "tick", "lost", "DiscoverAdd", "DiscoverRemove")


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


@dataclass
class Run:
    """One execution: ``samples`` are ``(t, L, Lmax, jumps, transport
    stats)`` at the config's ``sample_interval``; ``handled`` tallies
    ``ProtocolCore.handle`` calls by kind in the run (``tick_jump``: ticks
    that emitted ``JumpL``); ``lost_fires`` are ``(t, node, neighbour)``."""

    exp: Experiment
    res: RunResult
    samples: list
    handled: Counter
    lost_fires: list
    spied: Any = None
    timeline: Any = None
    telemetry_events: int | None = None


@contextmanager
def telemetry_session():
    """The process-wide registry, enabled and always torn down."""
    registry = get_registry()
    registry.reset()
    registry.enable()
    try:
        yield registry
    finally:
        registry.disable()
        registry.reset()


def run(
    cfg,
    *,
    batch: bool,
    observed: bool = False,
    hook: Callable[[Experiment], None] | None = None,
    lane_min: int | None = None,
    spy: Callable[[pytest.MonkeyPatch], Any] | None = None,
    untouched: bool = False,
) -> Run:
    """Run ``cfg`` on the reference (``batch=False``) or the default
    kernel, observers on or off; ``hook(exp)`` touches the built
    experiment, ``lane_min`` sets ``ARRAY_LANE_MIN`` and
    ``spy(monkeypatch)``'s return value lands in ``Run.spied``.
    ``untouched``: the samples read a column population's columns, so no
    node is touched before the run returns (unless ``hook`` does)."""
    handled: Counter = Counter()
    fires: list = []
    samples: list = []
    handle = ProtocolCore.handle
    lost_fire, fire_timer = NodeArrayTable._lost_fire, ClockSyncNode._fire_timer

    def counting_handle(self, now_h, event):
        name = type(event).__name__
        if name == "TimerFired":
            name = "tick" if event.key == "tick" else "lost"
        handled[name] += 1
        effects = handle(self, now_h, event)
        if name == "tick" and any(type(eff) is JumpL for eff in effects):
            handled["tick_jump"] += 1
        return effects

    def table_fire(self, slot, tracer):
        fires.append((self.sim.now, self.owner[slot], self.peer[slot]))
        lost_fire(self, slot, tracer)

    def reference_fire(self, key):
        if key != "tick":
            fires.append((self.sim.now, self.node_id, key[1]))
        fire_timer(self, key)

    with ExitStack() as stack:
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(simulator_mod, "BATCH_DEFAULT", batch)
        if lane_min is not None:
            mp.setattr(batch_mod, "ARRAY_LANE_MIN", lane_min)
        mp.setattr(NodeArrayTable, "_lost_fire", table_fire)
        mp.setattr(ClockSyncNode, "_fire_timer", reference_fire)
        spied = spy(mp) if spy is not None else None
        timeline = registry = None
        if observed:
            stack.enter_context(trace_session())
            timeline = stack.enter_context(timeline_session())
            registry = stack.enter_context(telemetry_session())
        exp = Experiment(cfg)
        assert exp.sim.batch is batch
        if hook is not None:
            hook(exp)
        if exp.sim.kind_counts is None:  # telemetry allocates its own
            exp.sim.kind_counts = [0] * N_KINDS
        read = PopulationReader(exp.nodes, exp.transport)
        store = exp.nodes.store if untouched and isinstance(exp.nodes, Population) else None
        nodes = [exp.nodes[i] for i in sorted(exp.nodes)] if store is None else None
        stats = exp.transport.stats

        def sample(t):
            clocks, estimates = read(t, True)
            if store is None:
                jumps = np.array([node.jumps for node in nodes])
            else:
                jumps = np.array(store.np.jumps[store.ids.start : store.ids.stop])
            samples.append((t, clocks.copy(), estimates.copy(), jumps, stats.as_dict()))

        exp.sim.every(cfg.sample_interval, sample, end=cfg.horizon)
        mp.setattr(ProtocolCore, "handle", counting_handle)
        res = exp.run()
        mp.setattr(ProtocolCore, "handle", handle)
        events = None
        if registry is not None:
            events = registry.snapshot()["counters"]["kernel.events_dispatched"]
    return Run(exp, res, samples, handled, fires, spied, timeline, events)


# --------------------------------------------------------------------- #
# The fingerprint
# --------------------------------------------------------------------- #


def canonical_spans(table) -> np.ndarray:
    """The span table as a kernel-independent sorted row array: its rows'
    content ``(t0, kind, node, peer, t1, status, detail)`` in lexicographic
    order, so two tables holding the same rows compare equal whatever
    order their rows were written in."""
    rows = np.array(
        (table.t0, table.kind, table.node, table.peer, table.t1, table.status,
         table.detail),
        dtype=float,
    )
    return rows.T[np.lexsort(rows[::-1])]


def _delay_stream(policy) -> Any:
    """The delay generator's position: its bit generator's state and its
    unread buffer (bulk sends may skip ``delay()`` calls, never draws)."""
    while policy is not None:
        rng = getattr(policy, "_rng", None)
        if rng is not None:
            return repr(rng.bit_generator.state), list(getattr(policy, "_buf", ()))
        policy = getattr(policy, "_fallback", None)
    return None


def gamma_upsilon(exp, i: int) -> tuple[list | None, list[int]]:
    """Node ``i``'s Gamma as sorted ``(u, repr(C^u), repr(L^u))`` rows
    (``None`` for a core that keeps none) and its Upsilon, sorted: its
    core's own, or -- a column population's -- read off the table's slot
    columns, where ``l_est = inf`` is "not in Gamma"."""
    store = getattr(exp.nodes, "store", None)
    if store is None:
        core = exp.nodes[i].core
        if not hasattr(core, "gamma"):  # baseline cores keep no Gamma
            return None, sorted(getattr(core, "upsilon", ()))
        gamma = [(u, repr(e.added_h), repr(e.l_est)) for u, e in core.gamma.items()]
        return sorted(gamma), sorted(core.upsilon)
    slots = store.row(i).items()
    gamma = [(u, repr(store.added_h[s]), repr(store.l_est[s]))
             for u, s in slots if store.l_est[s] != np.inf]
    return sorted(gamma), list(store.believed(i))


def fingerprint(run: Run) -> list[tuple[float, str, bool, Any]]:
    """Every observable a kernel divergence could show up in, as entries
    ``(t, field, per_node, value)`` in time order: a per-node ``value`` is
    indexed in node-id order.  Observed runs add the span and timeline
    entries at the end."""
    exp, res = run.exp, run.res
    entries: list[tuple[float, str, bool, Any]] = []
    for t, clocks, estimates, jumps, stats in run.samples:
        entries += [
            (t, "L", True, clocks),
            (t, "Lmax", True, estimates),
            (t, "jumps", True, jumps),
            (t, "transport", False, stats),
        ]
    h = exp.cfg.horizon
    cores = [exp.nodes[i].core for i in sorted(exp.nodes)]
    report = res.oracle_report
    entries += [
        (h, "events", False, res.events_dispatched),
        (h, "kind_counts", False, list(exp.sim.kind_counts)),
        (h, "transport", False, res.transport_stats),
        (h, "jumps", True, np.array([c.jumps for c in cores])),
        (h, "h_last", True, np.array([c.h_last for c in cores], dtype=float)),
        (h, "total_jump", True, np.array([c.total_jump for c in cores], dtype=float)),
        (h, "messages_sent", True, np.array([c.messages_sent for c in cores])),
        (h, "gamma", True, [gamma_upsilon(exp, i)[0] for i in sorted(exp.nodes)]),
        (h, "upsilon", True, [gamma_upsilon(exp, i)[1] for i in sorted(exp.nodes)]),
        (h, "lost_fires", False, sorted(run.lost_fires)),
        (h, "delay_stream", False, _delay_stream(exp.transport.delay_policy)),
        (h, "oracle", False, None if report is None else (
            report.ok, report.checks, report.violation_count, repr(report.worst_margin)
        )),
    ]
    if res.spans is not None:
        entries += [
            (h, "spans_dropped", False, res.spans.dropped),
            (h, "spans", False, canonical_spans(res.spans)),
        ]
    if run.timeline is not None and run.timeline.bound:
        entries.append((h, "timeline", False, run.timeline.to_dict()))
    return entries


def _same(a, b) -> bool:
    if isinstance(a, (np.ndarray, np.generic)) or isinstance(b, (np.ndarray, np.generic)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def first_divergence(expected: list, actual: list) -> str | None:
    """``None``, or the first ``(t, node, field)`` where ``actual`` leaves
    ``expected`` -- both values included."""
    for (t, name, per_node, want), (t2, name2, _, got) in zip(expected, actual):
        if (t, name) != (t2, name2):
            return f"(t={t!r}, field={name!r}) vs (t={t2!r}, field={name2!r}): no sample"
        if _same(want, got):
            continue
        node = None
        if per_node and len(want) == len(got):
            node = next(i for i, (x, y) in enumerate(zip(want, got)) if not _same(x, y))
            want, got = want[node], got[node]
        elif name == "spans" and len(want) and len(got):
            row = next(
                (i for i, (x, y) in enumerate(zip(want, got)) if not _same(x, y)),
                min(len(want), len(got)) - 1,
            )
            t, node = want[row][0], int(want[row][2])
            want, got = want[row], got[row]
        return f"(t={t!r}, node={node}, field={name!r}): expected {want!r}, got {got!r}"
    if len(expected) != len(actual):
        t, name = (expected if len(expected) > len(actual) else actual)[
            min(len(expected), len(actual))
        ][:2]
        return f"(t={t!r}, field={name!r}): present on one side only"
    return None


def assert_same(expected: Run, actual: Run, what: str, *, physics_only=False) -> None:
    want, got = fingerprint(expected), fingerprint(actual)
    if physics_only:
        extra = {"spans", "spans_dropped", "timeline"}
        want = [e for e in want if e[1] not in extra]
        got = [e for e in got if e[1] not in extra]
    divergence = first_divergence(want, got)
    assert divergence is None, f"{what}: first divergence at {divergence}"


# --------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------- #


@dataclass
class Runs:
    ref: Run
    default: Run
    ref_on: Run
    default_on: Run
    untouched: Run


def check(cfg, *, hook=None, lane_min=None, spy=None, handled=None) -> Runs:
    """The parity property on one config.

    Four runs, each held to the reference's fingerprint -- the observed
    pair also on spans and timeline rows -- and the kernel claims:

    * the reference executes nothing on a table, and the default's
      aggregate records are tallied as their constituents;
    * no observer changes which kernel runs (plan, table events on each
      lane, batch dispatches);
    * where the plan has a table, ``handle()`` sees no node event in the
      run beyond ``handled`` (what a hook calls directly) and the table
      executed exactly the node events the reference handled; where it
      declined, ``handle()`` sees what the reference's saw;
    * a population of plain ``DCSACore`` cores never runs without the table;
    * an observed run accounts for what it observed;
    * a column population nothing touches before the run returns builds
      no node object (its fingerprint is held to the reference's too).
    """
    make = lambda observed, batch, untouched=False: run(
        replace(cfg), batch=batch, observed=observed, hook=hook,
        lane_min=lane_min, spy=spy, untouched=untouched,
    )
    runs = Runs(
        make(False, False), make(False, True), make(True, False), make(True, True),
        make(False, True, untouched=True),
    )
    assert_same(runs.ref, runs.default, "default kernel")
    assert_same(runs.ref, runs.untouched, "untouched default kernel")
    if hook is None and cfg.adversary is None:  # nothing else touches a node
        built = runs.untouched.res.materialised_nodes
        assert built == (0 if isinstance(runs.untouched.exp.nodes, Population) else cfg.params.n)
    assert_same(runs.ref, runs.ref_on, "observed reference", physics_only=True)
    assert_same(runs.ref_on, runs.default_on, "observed default kernel")
    for ref in (runs.ref, runs.ref_on):
        assert ref.res.array_events == 0 and ref.exp.sim.batch_dispatches == 0
    for each in (runs.default, runs.default_on):  # aggregates re-book as constituents
        kinds = each.exp.sim.kind_counts
        assert kinds[KIND_DELIVER_BURST] == kinds[KIND_TICK_BURST] == 0
    off, on = runs.default, runs.default_on
    divergence = first_divergence(_kernel(off), _kernel(on))
    assert divergence is None, f"observers changed the kernel at {divergence}"
    direct = Counter(handled or {})
    for ref, default in ((runs.ref, off), (runs.ref_on, on)):
        calls = Counter({k: n for k, n in default.handled.items() if k != "tick_jump"})
        if default.res.batch_gate_reason is None:
            assert calls == direct, calls
            node_events = sum(ref.handled[k] for k in NODE_EVENTS)
            assert default.res.array_events == node_events - sum(direct.values())
        else:
            assert default.handled == ref.handled
    if all(type(node.core) is DCSACore for node in runs.ref.exp.nodes.values()):
        assert off.res.batch_gate_reason is None and off.res.array_events > 0
    for observed in (runs.ref_on, on):
        _accounts_for_what_it_observed(observed)
    return runs


def _kernel(run: Run) -> list[tuple[float, str, bool, Any]]:
    """Which kernel ran: the plan's declines, the table's events on each
    lane and the batch dispatches (fingerprint entries at the horizon)."""
    h = run.exp.cfg.horizon
    return [
        (h, "declines", False, run.res.declines),
        (h, "array_lane_events", False, run.res.array_lane_events),
        (h, "scalar_lane_events", False, run.res.scalar_lane_events),
        (h, "batch_dispatches", False, run.exp.sim.batch_dispatches),
    ]


def _accounts_for_what_it_observed(run: Run) -> None:
    res, spans = run.res, run.res.spans
    stats = res.transport_stats
    assert run.telemetry_events == res.events_dispatched
    if run.timeline.bound:
        assert run.timeline.rows > 0
    if spans.dropped == 0:
        assert spans.kind_counts[SPAN_FLIGHT] == stats["sent"]
        assert spans.kind_counts[SPAN_DISCOVER] == stats["discoveries_delivered"]


# --------------------------------------------------------------------- #
# Shared configs and hooks
# --------------------------------------------------------------------- #


#: Long-lived chords plus ring-edge outages on the batch-eligible ring.
#: Ticks fire every ~0.5 and messages fly for 0.5, so every removal catches
#: messages in flight (``dropped_removed``), and removals are discovered
#: 2.0 later, so the endpoints keep sending meanwhile (``dropped_no_edge``).
CHURN_SCRIPT = [
    (2.3, "add", 5, 20),
    (3.1, "add", 10, 30),
    (6.37, "remove", 7, 8),
    (9.8, "add", 7, 8),
    (12.05, "remove", 30, 31),
    (13.6, "add", 30, 31),
    (17.2, "add", 2, 40),
    (21.45, "remove", 5, 20),
    (24.9, "remove", 40, 41),
    (28.3, "add", 40, 41),
    (33.15, "remove", 10, 30),
]


def churned_sync_ring(script=CHURN_SCRIPT, n=48, horizon=40.0, **overrides):
    return configs.huge_sync_ring(
        n, horizon=horizon, churn="scripted", events=script, **overrides
    )


#: Constant latency 0.5 (half the default ``max_delay``), under ``Delta
#: T'``: a removal is discovered while the ``lost`` timer is still pending
#: (and lazily extended).
FAST_DISCOVERY = DiscoveryRef("constant", {"latency": 0.5})


def far_ahead(exp, ahead=3000.0):
    """Node 0 starts 3000 ahead: the rest chase it for the whole run, each
    held back by its Gamma rows (``Lmax > L`` at most of their ticks)."""
    exp.nodes[0]._raise_max(ahead)
    exp.nodes[0]._jump_logical(ahead)
