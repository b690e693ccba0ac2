"""Unit tests for the kernel primitives: queue, drain, RNG streams."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventQueue, RngStreams, Simulation


def _check_against_sorted(ops):
    """Feed a push/pop op stream to an ``EventQueue`` and a sorted list.

    The reference holds the pushed tuples ``(t, prio, seq, payload)``
    with ``seq`` the push index; every pop must return its minimum and
    ``head`` must equal the next pop (``None`` when empty) after every
    operation.
    """
    q = EventQueue()
    pending = []
    seq = 0
    for op in ops:
        if op[0] == "push":
            _, t, prio = op
            payload = ("ev", t, prio)
            q.push(t, prio, payload)
            pending.append((t, prio, seq, payload))
            seq += 1
        elif pending:
            pending.sort()
            head = q.head
            assert q.pop() is head
            assert head == pending.pop(0)
        pending.sort()
        assert q.head == (pending[0] if pending else None)
        assert len(q) == len(pending)
    drained = []
    while q:
        head = q.head
        assert q.pop() is head
        drained.append(head)
    assert drained == sorted(pending)
    assert q.head is None and len(q) == 0 and not q


# Timestamps from a small grid force same-t collisions; priorities from
# {0..3} mirror the engines' priority bands; 1e9 is a far-future push.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.5, 8.0,
                                   15.5, 16.0, 64.0, 1000.0, 1e9]),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("pop")),
    ),
    max_size=200,
)


class TestEventQueue:
    def test_orders_by_time_then_priority_then_insertion(self):
        q = EventQueue()
        q.push(2.0, 0, ("late",))
        q.push(1.0, 1, ("low-prio",))
        q.push(1.0, 0, ("first",))
        q.push(1.0, 0, ("second",))
        kinds = [q.pop()[3][0] for _ in range(len(q))]
        assert kinds == ["first", "second", "low-prio", "late"]

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_property_pop_order(self, ops):
        _check_against_sorted(ops)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        ops = []
        for _ in range(300):
            if rng.random() < 0.6:
                # Mix same-tick, near-future and far-future timestamps.
                t = rng.choice([
                    rng.randrange(8) * 1.0,
                    rng.randrange(32) * 0.5,
                    rng.randrange(100) * 37.0,
                ])
                ops.append(("push", t, rng.randrange(4)))
            else:
                ops.append(("pop",))
        _check_against_sorted(ops)

    def test_same_timestamp_same_priority_pops_in_push_order(self):
        q = EventQueue()
        for tag in ("a", "b", "c"):
            q.push(5.0, 1, ("ev", tag))
        assert [q.pop()[3][1] for _ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_timestamp_ties(self):
        q = EventQueue()
        q.push(5.0, 2, ("low",))
        q.push(5.0, 0, ("high",))
        q.push(5.0, 1, ("mid",))
        assert [q.pop()[3][0] for _ in range(3)] == ["high", "mid", "low"]

    def test_head_tracks_min_and_pop_returns_head(self):
        q = EventQueue()
        assert q.head is None
        q.push(2.0, 0, ("b",))
        q.push(1.0, 0, ("a",))
        head = q.head
        assert head[0] == 1.0
        assert q.pop() is head
        assert q.head[0] == 2.0

    def test_drain_then_refill(self):
        q = EventQueue()
        q.push(3.0, 0, ("first",))
        assert q.pop()[3][0] == "first"
        assert q.head is None
        q.push(1e6, 0, ("second",))
        assert q.head[0] == 1e6
        assert q.pop()[3][0] == "second"

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.head is None and not q
        q.push(3.5, 1, ("x",))
        assert q.head[0] == 3.5 and len(q) == 1 and bool(q)

    def test_len_and_bool(self):
        q = EventQueue()
        assert len(q) == 0
        q.push(1.0, 0, ("a",))
        q.push(2.0, 0, ("b",))
        assert len(q) == 2 and bool(q)
        q.pop()
        q.pop()
        assert len(q) == 0 and not q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).stream("failure/0")
        b = RngStreams(7).stream("failure/0")
        assert [a.random() for _ in range(8)] == \
               [b.random() for _ in range(8)]

    def test_streams_are_independent(self):
        """Consuming one stream never perturbs another."""
        plain = RngStreams(7)
        noisy = RngStreams(7)
        _ = [noisy.stream("failure/1").random() for _ in range(100)]
        assert plain.stream("failure/0").random() == \
               noisy.stream("failure/0").random()

    def test_different_seeds_and_names_diverge(self):
        assert RngStreams(1).stream("a").random() != \
               RngStreams(2).stream("a").random()
        s = RngStreams(1)
        assert s.stream("a").random() != s.stream("b").random()

    def test_stream_is_cached_not_reset(self):
        s = RngStreams(0)
        first = s.stream("x").random()
        assert s.stream("x").random() != first  # continues, not restarts

    def test_platform_stable_derivation(self):
        """String seeding goes through SHA-512: pin one draw so a
        platform/Python change that broke stability is caught."""
        assert RngStreams(0).stream("probe").random() == \
               random.Random("0/probe").random()


def arrivals(*times):
    """A pre-sorted arrival stream: anything with a ``t_ms``."""
    return [SimpleNamespace(t_ms=t, tag=i) for i, t in enumerate(times)]


class TestSimulation:
    """The merged drain with an engine-style ``handle`` switch."""

    def test_handler_dispatch_in_deterministic_order(self):
        sim = Simulation(seed=3)
        seen = []

        def handle(payload, now):
            seen.append((payload[0], now))

        def on_arrival(req, now):
            seen.append(("arrive", now))

        sim.queue.push(2.0, 1, ("tock",))
        sim.queue.push(1.0, 1, ("tick",))
        sim.queue.push(2.0, 0, ("tick",))
        # p_first=0: a priority-0 event at an arrival's timestamp pops
        # ahead of it, a priority-1 one after it.
        sim._drain_merged(arrivals(1.0, 2.0), on_arrival, handle, 0)
        assert seen == [("arrive", 1.0), ("tick", 1.0), ("tick", 2.0),
                        ("arrive", 2.0), ("tock", 2.0)]
        assert sim.now_ms == 2.0

    def test_handlers_may_schedule_followups(self):
        sim = Simulation()
        seen = []

        def handle(payload, now):
            seen.append((payload[0], now))
            if now < 3.0:
                sim.queue.push(now + 1.0, 0, ("chain",))

        def on_arrival(req, now):
            seen.append(("arrive", now))
            sim.queue.push(now + 1.0, 0, ("chain",))

        sim._drain_merged(arrivals(0.0, 2.5), on_arrival, handle, 0)
        assert seen == [("arrive", 0.0), ("chain", 1.0), ("chain", 2.0),
                        ("arrive", 2.5), ("chain", 3.0), ("chain", 3.5)]

    def test_now_ms_advances_monotonically(self):
        sim = Simulation()
        assert sim.now_ms == 0.0
        stamps = []

        def handle(payload, now):
            assert sim.now_ms == now
            stamps.append(now)

        def on_arrival(req, now):
            assert sim.now_ms == now == req.t_ms
            stamps.append(now)

        for t in (4.0, 0.5, 9.0, 4.0):
            sim.queue.push(t, 1, ("ev",))
        sim._drain_merged(arrivals(1.0, 4.0, 6.0), on_arrival, handle, 0)
        assert stamps == sorted(stamps) and len(stamps) == 7
        assert sim.now_ms == 9.0
