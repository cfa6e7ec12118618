"""Property tests: a DCSA node under arbitrary event sequences.

Drives a single node with randomized interleavings of messages, discovery
events and time advances (the node cannot tell whether the environment is
'legal', so its local invariants must hold under *any* sequence):

* the logical clock never decreases and respects the rate floor;
* ``Lmax >= L`` after every event;
* after ``AdjustClock``, no tracked neighbour's constraint is exceeded
  *at the moment of adjustment* (modulo estimates, per Lemma 6.6);
* eviction: a neighbour silent for Delta T' subjective time leaves Gamma.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fakes import FakeTransport

from repro import SystemParams
from repro.core import ClockSyncNode, DCSACore
from repro.sim.clocks import ConstantRateClock
from repro.sim.simulator import Simulator


def dcsa_node(sim, params):
    return ClockSyncNode(
        0, sim, ConstantRateClock(1.0), FakeTransport(), params, core=DCSACore(0, params)
    )


events = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(min_value=0.01, max_value=5.0)),
        st.tuples(
            st.just("msg"),
            st.integers(min_value=1, max_value=4),
            st.floats(min_value=0.0, max_value=50.0),  # L_v
            st.floats(min_value=0.0, max_value=80.0),  # Lmax_v
        ),
        st.tuples(st.just("add"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("remove"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=40,
)


def drive(node: ClockSyncNode, sim: Simulator, script) -> list[tuple[float, float, float]]:
    """Apply the script; return (time, L, Lmax) after each event."""
    out = []
    t = 0.0
    for ev in script:
        if ev[0] == "advance":
            t += ev[1]
            sim.run_until(t)
        elif ev[0] == "msg":
            _, v, l_v, lmax_v = ev
            node.on_message(v, (float(l_v), float(max(l_v, lmax_v))))
        elif ev[0] == "add":
            node.on_discover_add(ev[1])
        else:
            node.on_discover_remove(ev[1])
        out.append((sim.now, node.logical_clock(), node.max_estimate()))
    return out


@settings(max_examples=80)
@given(events)
def test_property_node_invariants_under_arbitrary_events(script):
    sim = Simulator()
    params = SystemParams.for_network(5)
    node = dcsa_node(sim, params)
    node.start()
    trace = drive(node, sim, script)
    # Monotone logical clock with rate floor between consecutive readings.
    for (t1, l1, m1), (t2, l2, m2) in zip(trace, trace[1:]):
        assert l2 >= l1 - 1e-9, "logical clock decreased"
        assert l2 - l1 >= 0.5 * (t2 - t1) - 1e-9, "rate floor violated"
    # Lmax dominates L everywhere.
    for _t, l, m in trace:
        assert m >= l - 1e-9


@settings(max_examples=80)
@given(events)
def test_property_jumps_respect_constraints(script):
    """A *discrete jump* never lands above any tracked neighbour's
    constraint ``est + B(age)`` nor above ``Lmax`` (AdjustClock's
    postcondition). Between jumps the clock may sit above a newly formed
    constraint — the node is then 'blocked' and only drifts, which the
    monotonicity test covers.

    The per-neighbour check is evaluated only after *instantaneous* input
    events (msg/add/remove), where the jump demonstrably happened at the
    current instant.  A jump inside an ``advance`` window fired at some
    interior timer, and ``B`` decays while ``L`` only drifts, so
    re-evaluating the constraint at the window's end is not the
    algorithm's postcondition (AdjustClock held at the jump instant); the
    ``Lmax`` dominance check remains valid at any later time because both
    quantities advance at the same hardware rate."""
    sim = Simulator()
    params = SystemParams.for_network(5)
    node = dcsa_node(sim, params)
    node.start()
    t = 0.0
    jumps_before = 0
    for ev in script:
        instantaneous = ev[0] != "advance"
        if ev[0] == "advance":
            t += ev[1]
            sim.run_until(t)
        elif ev[0] == "msg":
            _, v, l_v, lmax_v = ev
            node.on_message(v, (float(l_v), float(max(l_v, lmax_v))))
        elif ev[0] == "add":
            node.on_discover_add(ev[1])
        else:
            node.on_discover_remove(ev[1])
        if node.jumps > jumps_before:  # a discrete jump just happened
            l_now = node.logical_clock()
            assert l_now <= node.max_estimate() + 1e-9
            if instantaneous:
                for v in node.core.gamma:
                    row = node.core.gamma.get(v)
                    bound = row.l_est + node.params.b_function(
                        node.clock.value(node.sim.now) - row.added_h
                    )
                    assert l_now <= bound + 1e-9, (
                        f"jump overshot constraint of neighbour {v}"
                    )
        jumps_before = node.jumps


def test_eviction_after_silence():
    sim = Simulator()
    params = SystemParams.for_network(5)
    node = dcsa_node(sim, params)
    node.on_message(3, (0.0, 0.0))
    assert 3 in node.core.gamma
    sim.run_until(params.delta_t_prime + 0.01)
    assert 3 not in node.core.gamma


def test_messages_counted():
    sim = Simulator()
    params = SystemParams.for_network(5)
    node = dcsa_node(sim, params)
    node.on_discover_add(1)
    node.on_discover_add(2)
    node.start()
    sim.run_until(params.tick_interval * 2.5)
    # greet x2 + 3 tick rounds x2 neighbours.
    assert node.messages_sent == 2 + 3 * 2
