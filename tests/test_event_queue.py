"""Tests for the cancellable event queue and event ordering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import (
    KIND_CALLBACK,
    KIND_DELIVER,
    KIND_SAMPLE,
    KIND_TIMER,
    POOLABLE,
    PRIORITY_DELIVERY,
    PRIORITY_SAMPLE,
    PRIORITY_TIMER,
    PRIORITY_TOPOLOGY,
    ScheduledEvent,
)
from repro.sim.queue import EventQueue
from repro.testing.strategies import queue_operations


def _noop() -> None:
    pass


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, 0, _noop, "c")
        q.push(1.0, 0, _noop, "a")
        q.push(2.0, 0, _noop, "b")
        assert [q.pop().label for _ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(1.0, PRIORITY_TIMER, _noop, "timer")
        q.push(1.0, PRIORITY_TOPOLOGY, _noop, "topology")
        q.push(1.0, PRIORITY_SAMPLE, _noop, "sample")
        q.push(1.0, PRIORITY_DELIVERY, _noop, "delivery")
        order = [q.pop().label for _ in range(4)]
        assert order == ["topology", "delivery", "timer", "sample"]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        for i in range(10):
            q.push(1.0, 0, _noop, str(i))
        assert [q.pop().label for _ in range(10)] == [str(i) for i in range(10)]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None
        assert EventQueue().pop_until(1.0) is None

    def test_a_run_after_the_last_record_is_empty(self):
        q = EventQueue()
        q.push(1.0, 0, _noop)
        first = q.pop()
        assert q.pop_run(first, []) == 0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        h1 = q.push(1.0, 0, _noop, "a")
        q.push(2.0, 0, _noop, "b")
        assert q.cancel(h1) is True
        assert q.pop().label == "b"

    def test_double_cancel_returns_false(self):
        q = EventQueue()
        h = q.push(1.0, 0, _noop)
        assert q.cancel(h) is True
        assert q.cancel(h) is False

    def test_len_counts_live_only(self):
        q = EventQueue()
        h = q.push(1.0, 0, _noop)
        q.push(2.0, 0, _noop)
        assert len(q) == 2
        q.cancel(h)
        assert len(q) == 1
        assert q.raw_size == 2  # lazy deletion keeps the heap entry

    def test_pop_skips_cancelled_head(self):
        q = EventQueue()
        h = q.push(1.0, 0, _noop)
        q.push(3.0, 0, _noop)
        q.cancel(h)
        assert q.pop().time == 3.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_pop_sequence_sorted(items):
    """Popped (time, priority, seq) keys are globally non-decreasing."""
    q = EventQueue()
    for t, p in items:
        q.push(t, p, _noop)
    keys = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        keys.append((ev.time, ev.priority, ev.seq))
    assert keys == sorted(keys)
    assert len(keys) == len(items)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
    st.data(),
)
def test_property_cancellation_removes_exactly_selected(times, data):
    """Cancelling a random subset yields exactly the complement, in order."""
    q = EventQueue()
    handles = [q.push(t, 0, _noop, str(i)) for i, t in enumerate(times)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1))
    )
    for i in to_cancel:
        q.cancel(handles[i])
    popped = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        popped.append(int(ev.label))
    expected = [i for i in range(len(times)) if i not in to_cancel]
    assert sorted(popped) == expected


class TestTypedRecords:
    def test_push_typed_carries_payload(self):
        q = EventQueue()
        ev = q.push_typed(1.0, PRIORITY_DELIVERY, KIND_DELIVER, 3, 4, "msg", 0.5)
        assert (ev.a, ev.b, ev.c, ev.d) == (3, 4, "msg", 0.5)
        assert ev.kind == KIND_DELIVER
        assert q.pop() is ev

    def test_tie_break_follows_insertion_across_kinds(self):
        """Same (time, priority): typed and callback records pop in push order."""
        q = EventQueue()
        pushed = [
            q.push_typed(1.0, 0, KIND_DELIVER, 0, 1, None, None, None, "d"),
            q.push(1.0, 0, _noop, "cb"),
            q.push_typed(1.0, 0, KIND_TIMER, None, "tick", None, None, None, "t"),
            q.push_typed(1.0, 0, KIND_SAMPLE, None, 1.0, None, None, _noop, "s"),
        ]
        assert [q.pop() for _ in range(4)] == pushed

    def test_popped_poolable_record_is_reused(self):
        q = EventQueue()
        ev = q.push_typed(1.0, 0, KIND_DELIVER, 1, 2, "payload", 0.0)
        assert q.pop() is ev
        q.recycle(ev)
        assert q.pool_size == 1
        # Payload references are dropped so the pool never pins objects.
        assert (ev.a, ev.b, ev.c, ev.d, ev.fn) == (None, None, None, None, None)
        again = q.push_typed(2.0, 0, KIND_TIMER, "node", "key")
        assert again is ev  # same object, fresh identity
        assert (again.kind, again.a, again.b) == (KIND_TIMER, "node", "key")
        assert q.pool_size == 0

    def test_callback_records_never_pooled(self):
        q = EventQueue()
        ev = q.push(1.0, 0, _noop)
        assert q.pop() is ev
        q.recycle(ev)
        assert q.pool_size == 0
        assert not POOLABLE[KIND_CALLBACK]

    def test_reused_record_gets_fresh_seq(self):
        """A recycled record re-enters the total order by its new push."""
        q = EventQueue()
        first = q.push_typed(1.0, 0, KIND_DELIVER, 0, 0, None, None)
        q.pop()
        q.recycle(first)
        reused = q.push_typed(2.0, 0, KIND_DELIVER, 9, 9, None, None)
        fresh = q.push_typed(2.0, 0, KIND_DELIVER, 5, 5, None, None)
        assert reused is first  # free list feeds the next push
        assert fresh is not first
        assert reused.seq < fresh.seq  # tie-break by the *new* insertion
        assert q.pop() is reused
        assert q.pop() is fresh

    def test_cancelled_poolable_record_recycled_when_surfaced(self):
        q = EventQueue()
        ev = q.push_typed(1.0, 0, KIND_TIMER, "n", "k")
        q.push(2.0, 0, _noop)
        assert q.cancel(ev) is True
        assert q.pool_size == 0  # still buried in the heap
        assert q.pop().label == ""  # surfaces + recycles the cancelled timer
        assert q.pool_size == 1

    def test_cancel_after_pop_returns_false(self):
        """A fired handle cannot be cancelled (pooling safety contract)."""
        q = EventQueue()
        ev = q.push(1.0, 0, _noop)
        assert q.pop() is ev
        assert q.cancel(ev) is False

    def test_repush_requires_unqueued(self):
        q = EventQueue()
        ev = q.push_typed(1.0, PRIORITY_SAMPLE, KIND_SAMPLE, None, 1.0, None, None, _noop)
        with pytest.raises(ValueError):
            q.repush(ev, 2.0)
        assert q.pop() is ev
        q.repush(ev, 2.0)
        assert q.pop() is ev and ev.time == 2.0

    def test_pop_until_respects_bound_and_recycles_cancelled(self):
        q = EventQueue()
        a = q.push_typed(1.0, 0, KIND_DELIVER, 0, 0, None, None)
        b = q.push_typed(2.0, 0, KIND_DELIVER, 0, 0, None, None)
        c = q.push_typed(5.0, 0, KIND_DELIVER, 0, 0, None, None)
        q.cancel(a)
        assert q.pop_until(3.0) is b
        assert q.pool_size == 1  # a surfaced and was recycled
        assert q.pop_until(3.0) is None  # c is beyond the bound
        assert q.pop_until(5.0) is c


class TestGenerationGuard:
    """Pool-aliasing regression: stale handles must not kill new events."""

    def test_stale_cancel_of_recycled_record_returns_false(self):
        q = EventQueue()
        ev = q.push_typed(1.0, PRIORITY_TIMER, KIND_TIMER, "node", "key")
        stale = (ev, ev.gen)  # caller captures (handle, generation)
        assert q.pop() is ev
        q.recycle(ev)
        # The pool re-issues the same object to an unrelated caller.
        again = q.push_typed(2.0, PRIORITY_TIMER, KIND_TIMER, "other", "k2")
        assert again is ev
        assert again.gen == stale[1] + 1
        # The stale handle passes the `queued` check -- only the
        # generation guard tells the two lives apart.
        assert q.cancel(stale[0], gen=stale[1]) is False
        assert not again.cancelled
        assert q.pop() is again  # the new event still fires

    def test_fresh_gen_cancel_still_works(self):
        q = EventQueue()
        ev = q.push_typed(1.0, PRIORITY_TIMER, KIND_TIMER, "n", "k")
        assert q.cancel(ev, gen=ev.gen) is True
        assert q.pop() is None

    def test_gen_survives_multiple_reissues(self):
        q = EventQueue()
        ev = q.push_typed(1.0, 0, KIND_TIMER, "n", "k")
        gens = [ev.gen]
        for t in (2.0, 3.0, 4.0):
            assert q.pop() is ev
            q.recycle(ev)
            assert q.push_typed(t, 0, KIND_TIMER, "n", "k") is ev
            gens.append(ev.gen)
        assert gens == sorted(set(gens))  # strictly increasing
        for g in gens[:-1]:
            assert q.cancel(ev, gen=g) is False
        assert q.cancel(ev, gen=gens[-1]) is True


# ------------------------------------------------------------------ #
# Property tests over generated op scripts (repro.testing.strategies)
# ------------------------------------------------------------------ #


@given(queue_operations())
def test_property_cancel_then_pop_interleavings(ops):
    """Arbitrary push/cancel/pop interleavings against a reference model.

    The model is a plain dict of live keys: a push registers
    ``(time, priority, seq)``, a cancel targets a *currently queued* record
    (the ownership discipline under which typed records may be pooled), a
    pop must return exactly the live minimum.  Exercises the lazy-deletion
    heap and free-list reuse together: popped poolable records are
    recycled and their objects re-enter later pushes.
    """
    q = EventQueue()
    live: dict[int, tuple] = {}  # push index -> (time, priority, seq, record)
    queued_idx: list[int] = []  # indexes of still-queued pushes, FIFO
    n_pushed = 0
    for op in ops:
        if op[0] == "push":
            _, t, prio, kind = op
            if kind == KIND_CALLBACK:
                ev = q.push(t, prio, _noop)
            else:
                ev = q.push_typed(t, prio, kind)
            live[n_pushed] = (t, prio, ev.seq, ev)
            queued_idx.append(n_pushed)
            n_pushed += 1
        elif op[0] == "cancel":
            if not queued_idx:
                continue
            i = queued_idx.pop(op[1] % len(queued_idx))
            t, prio, seq, ev = live.pop(i)
            assert q.cancel(ev) is True
            assert q.cancel(ev) is False  # double-cancel reports dead
        else:  # pop
            ev = q.pop()
            if not live:
                assert ev is None
                continue
            expect_i = min(live, key=lambda k: live[k][:3])
            t, prio, seq, expected = live.pop(expect_i)
            queued_idx.remove(expect_i)
            assert ev is expected
            assert (ev.time, ev.priority, ev.seq) == (t, prio, seq)
            q.recycle(ev)  # what the kernel does after dispatch
        assert len(q) == len(live)
    # Drain: the remainder must come out in exact key order.
    remaining = sorted(live.values(), key=lambda r: r[:3])
    for t, prio, seq, expected in remaining:
        got = q.pop()
        assert got is expected
    assert q.pop() is None


@given(queue_operations(max_ops=40))
def test_property_tie_break_stable_under_reuse(ops):
    """All pushes at one timestamp: pops follow push order per priority.

    Forcing every operation to time 0 makes (priority, seq) the whole
    order; record reuse through the pool must never let an old seq leak
    into a new push.
    """
    q = EventQueue()
    order: list[tuple[int, int, ScheduledEvent]] = []  # (priority, push#, ev)
    n = 0
    for op in ops:
        if op[0] == "push":
            _, _t, prio, kind = op
            if kind == KIND_CALLBACK:
                ev = q.push(0.0, prio, _noop)
            else:
                ev = q.push_typed(0.0, prio, kind)
            order.append((prio, n, ev))
            n += 1
        elif op[0] == "pop":
            if order:
                expected = min(order, key=lambda r: r[:2])
                order.remove(expected)
                got = q.pop()
                assert got is expected[2]
                q.recycle(got)
    expected_drain = [ev for _p, _i, ev in sorted(order, key=lambda r: r[:2])]
    drained = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        drained.append(ev)
    assert drained == expected_drain


class TestLongTiedRuns:
    """A tied run longer than ``len(heap) / log2(len(heap))`` leaves the
    heap in one pass: the same records, in the same order, the same
    cancelled heads dropped and the same heap left behind as popping
    them one at a time."""

    def _queue(self, n, stop_at):
        q = EventQueue()
        recs = [
            q.push_typed(1.0, PRIORITY_TIMER, KIND_DELIVER if i == stop_at else KIND_TIMER, i)
            for i in range(n)
        ]
        for rec in recs[3::7]:
            q.cancel(rec)
        for i in range(n // 2):
            q.push_typed(2.0 if i % 2 else 1.0, PRIORITY_SAMPLE, KIND_TIMER, n + i)
        return q

    @pytest.mark.parametrize("stop_at", [None, 400, 9])
    def test_one_pass_equals_one_pop_at_a_time(self, monkeypatch, stop_at):
        n = 600
        live = [i for i in range(n) if i % 7 != 3]
        end = len(live) if stop_at is None else live.index(stop_at)
        passes = []
        pop_tied = EventQueue._pop_tied
        monkeypatch.setattr(
            EventQueue, "_pop_tied",
            lambda self, kind, out: passes.append(len(out)) or pop_tied(self, kind, out),
        )
        q = self._queue(n, stop_at)
        out: list = []
        assert q.pop_run(q.pop_until(1.0), out) == end
        assert [ev.a for ev in out] == live[:end]
        assert all(not ev.queued for ev in out)
        assert len(passes) == (stop_at != 9)  # a short run pops one at a time
        assert len(q) == len(live) - end + n // 2
        rest = []
        while (ev := q.pop()) is not None:
            rest.append(ev.a)
        assert rest == live[end:] + [n + i for i in range(0, n // 2, 2)] + [
            n + i for i in range(1, n // 2, 2)
        ]
