"""Event-queue ordering invariants (property-based).

The engine's determinism rests on the queue being totally ordered and
loss-free: ties at equal timestamps must break by push order on
every platform, and a cancel + re-register cycle must never
lose a live event or resurrect a dead one.  Hypothesis drives seeded
churn against a plain-dict model of the queue.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventQueue, EventType

# A small time domain forces plenty of exact ties.
times = st.sampled_from([0.0, 0.1, 0.1, 0.5, 1.0, 2.5])
event_types = st.sampled_from(list(EventType))


def drain(queue: EventQueue) -> list[Event]:
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append(event)


@given(st.lists(st.tuples(times, event_types), max_size=50))
def test_pop_order_is_time_then_push_order(entries):
    queue = EventQueue()
    pushed = [queue.push(t, typ) for t, typ in entries]
    popped = drain(queue)
    assert len(popped) == len(pushed)
    # Sorting the pushed handles by the documented key is exactly the
    # pop order — seq (push order) is the final tie-break, so the sort
    # is total and the expectation unique.
    expected = sorted(pushed, key=lambda e: (e.time, e.seq))
    assert popped == expected


@given(st.lists(st.tuples(times, event_types), max_size=50))
def test_equal_keys_pop_in_push_order(entries):
    queue = EventQueue()
    pushed = [queue.push(t, typ) for t, typ in entries]
    popped = drain(queue)
    for key in {e.time for e in pushed}:
        group = [e for e in popped if e.time == key]
        assert [e.seq for e in group] == sorted(e.seq for e in group)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), times),
            st.tuples(st.just("cancel"), st.integers(0, 200)),
            st.tuples(st.just("pop"), st.just(0.0)),
            st.tuples(st.just("pop_due"), times),
        ),
        max_size=120,
    )
)
@settings(max_examples=200)
def test_churn_never_loses_or_duplicates_events(ops):
    """Model check: queue contents == dict model under seeded churn."""
    queue = EventQueue()
    live: dict[int, Event] = {}  # seq -> handle, the model
    handles: list[Event] = []  # every handle ever, for cancel targets
    popped_seqs: list[int] = []
    for op, a in ops:
        if op == "push":
            event = queue.push(a, EventType.PLAYER_WAKE)
            live[event.seq] = event
            handles.append(event)
        elif op == "cancel" and handles:
            target = handles[a % len(handles)]
            queue.cancel(target)  # idempotent, may hit dead events
            live.pop(target.seq, None)
        elif op == "pop":
            event = queue.pop()
            if event is None:
                assert not live
            else:
                expected = min(
                    live.values(), key=lambda e: (e.time, e.seq)
                )
                assert event is expected
                del live[event.seq]
                popped_seqs.append(event.seq)
        elif op == "pop_due":
            due = queue.pop_due(a)
            expected = sorted(
                (e for e in live.values() if e.time <= a),
                key=lambda e: (e.time, e.seq),
            )
            assert due == expected
            for event in due:
                del live[event.seq]
                popped_seqs.append(event.seq)
        assert len(queue) == len(live)
    assert len(popped_seqs) == len(set(popped_seqs))  # no duplicates
    assert drain(queue) == sorted(
        live.values(), key=lambda e: (e.time, e.seq)
    )


def test_cancel_then_reregister_keeps_exactly_one_live():
    queue = EventQueue()
    handle = None
    for i in range(10):
        if handle is not None:
            queue.cancel(handle)
        handle = queue.push(float(i), EventType.PLAYER_WAKE)
        assert len(queue) == 1
    assert queue.pop() is handle
    assert queue.pop() is None
    assert len(queue) == 0


def test_cancel_after_pop_is_harmless():
    queue = EventQueue()
    event = queue.push(1.0, EventType.PLAYER_WAKE)
    assert queue.pop() is event
    queue.cancel(event)  # stale handle: must not corrupt the live count
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.next_time() == math.inf


def test_peek_and_next_time_skip_cancelled_heads():
    queue = EventQueue()
    first = queue.push(1.0, EventType.PLAYER_WAKE)
    second = queue.push(2.0, EventType.FAULT_CHANGE)
    queue.cancel(first)
    assert queue.peek() is second
    assert queue.next_time() == 2.0
    assert queue.pop_due(1.5) == []
    assert queue.pop_due(2.0) == [second]


def test_pushed_total_counts_registrations_not_occupancy():
    queue = EventQueue()
    for i in range(5):
        queue.cancel(queue.push(float(i), EventType.PLAYER_WAKE))
    assert queue.pushed_total == 5
    assert len(queue) == 0


def test_cancelled_total_counts_explicit_cancels_only():
    queue = EventQueue()
    kept = queue.push(1.0, EventType.PLAYER_WAKE)
    dropped = queue.push(2.0, EventType.PLAYER_WAKE)
    queue.cancel(dropped)
    queue.cancel(dropped)  # idempotent: second cancel must not count
    assert queue.cancelled_total == 1
    assert queue.pop() is kept
    assert queue.pop() is None
    assert queue.cancelled_total == 1  # pops are not cancels


@given(
    st.lists(times, min_size=2, max_size=30),
    st.data(),
)
@settings(max_examples=200)
def test_producer_repush_never_reorders_other_events(entries, data):
    """Cancel + re-push of one producer's deadline leaves peers alone.

    This is the engine's re-arm move: a producer whose state changed
    cancels its own handle and registers a new deadline.  Every other
    event must keep its exact relative order, and the re-pushed event
    must sort behind existing events at the same time —
    later registration means later dispatch, deterministically.
    """
    queue = EventQueue()
    pushed = [queue.push(t, EventType.PLAYER_WAKE) for t in entries]
    victim = data.draw(st.sampled_from(pushed))
    new_time = data.draw(times)
    queue.cancel(victim)
    replacement = queue.push(new_time, EventType.PLAYER_WAKE)
    popped = drain(queue)
    others = [event for event in popped if event is not replacement]
    assert others == sorted(
        (e for e in pushed if e is not victim),
        key=lambda e: (e.time, e.seq),
    )
    # The replacement drew the highest seq, so among the events at its
    # time it pops last.
    group = [e for e in popped if e.time == new_time]
    assert group[-1] is replacement


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), times),
            st.tuples(st.just("cancel"), st.integers(0, 400)),
            st.tuples(st.just("pop"), st.just(0.0)),
        ),
        max_size=300,
    )
)
@settings(max_examples=200)
def test_compaction_bounds_heap_size_and_preserves_order(ops):
    """Lazy cancel must not let dead entries dominate the heap.

    The engine's long multi-session runs churn thousands of wakes; the
    compaction rule keeps the backing heap within a constant factor of
    the live count (above the small-queue threshold) without disturbing
    pop order.
    """
    queue = EventQueue()
    live: dict[int, Event] = {}
    handles: list[Event] = []
    for op, a in ops:
        if op == "push":
            event = queue.push(a, EventType.PLAYER_WAKE)
            live[event.seq] = event
            handles.append(event)
        elif op == "cancel" and handles:
            target = handles[a % len(handles)]
            queue.cancel(target)
            live.pop(target.seq, None)
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                live.pop(event.seq, None)
        assert len(queue) == len(live)
        assert len(queue._heap) <= max(64, 2 * len(live))
    assert drain(queue) == sorted(
        live.values(), key=lambda e: (e.time, e.seq)
    )
