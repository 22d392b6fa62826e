"""Unit + property tests for the multi-clock-domain kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import ClockDomain, SyncFifo, TickScheduler, mhz_to_period_ps
from repro.errors import ConfigError


class TestClockDomain:
    def test_period(self):
        assert mhz_to_period_ps(1000.0) == 1000
        assert mhz_to_period_ps(2000.0) == 500

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            mhz_to_period_ps(0)

    def test_advance(self):
        dom = ClockDomain("d", 1000.0)
        assert dom.advance() == 0
        assert dom.advance() == 1000
        assert dom.cycles == 2

    def test_set_frequency_monotonic(self):
        dom = ClockDomain("d", 1000.0)
        dom.advance()
        dom.set_frequency(2000.0, now_ps=1500)
        t = dom.advance()
        assert t >= 1000
        assert dom.period_ps == 500

    def test_retime_mid_period_keeps_scheduled_tick(self):
        """A switch between ticks leaves the already-scheduled edge in
        place; the new period applies from that edge onwards (the DVFS
        governors retune exactly like the trace-mode switch does)."""
        dom = ClockDomain("d", 1000.0)
        dom.advance()                          # t=0, next at 1000
        dom.set_frequency(2000.0, now_ps=500)  # mid-period
        assert dom.advance() == 1000           # pending edge unchanged
        assert dom.advance() == 1500           # new 500 ps period after

    def test_retime_clamps_stale_tick_to_now(self):
        """Switching with a next tick in the past pulls it up to ``now``
        — time never runs backwards through a frequency change."""
        dom = ClockDomain("d", 1000.0)         # next tick would be 0
        dom.set_frequency(500.0, now_ps=2500)
        assert dom.advance() == 2500
        assert dom.advance() == 2500 + 2000

    def test_repeated_switches_at_same_timestamp_last_wins(self):
        """Several governor/mode switches in one cycle collapse to the
        final frequency; tick timestamps stay non-decreasing."""
        dom = ClockDomain("d", 1000.0)
        dom.advance()                          # t=0, next at 1000
        dom.set_frequency(2000.0, now_ps=1000)
        dom.set_frequency(500.0, now_ps=1000)
        dom.set_frequency(1900.0, now_ps=1000)
        assert dom.period_ps == mhz_to_period_ps(1900.0)
        last = -1
        for _ in range(5):
            t = dom.advance()
            assert t >= last
            last = t

    def test_switch_at_tick_timestamp_reschedules_from_pending_edge(self):
        """A switch issued at exactly the pending tick's time keeps that
        tick (ties are not pushed into the future)."""
        dom = ClockDomain("d", 1000.0)
        dom.advance()                          # next at 1000
        dom.set_frequency(4000.0, now_ps=1000)
        assert dom.advance() == 1000
        assert dom.advance() == 1250


class TestScheduler:
    def test_needs_domains(self):
        with pytest.raises(ConfigError):
            TickScheduler([])

    def test_interleaving_2x(self):
        fast = ClockDomain("fast", 2000.0)
        slow = ClockDomain("slow", 1000.0)
        sched = TickScheduler([fast, slow])
        order = [sched.next_event()[1].name for _ in range(6)]
        # fast ticks twice per slow tick (ties go to list order)
        assert order.count("fast") == 4
        assert order.count("slow") == 2

    def test_time_never_decreases(self):
        a = ClockDomain("a", 1300.0)
        b = ClockDomain("b", 950.0)
        sched = TickScheduler([a, b])
        last = -1
        for _ in range(200):
            t, _dom = sched.next_event()
            assert t >= last
            last = t


@settings(max_examples=30, deadline=None)
@given(fa=st.floats(min_value=100, max_value=5000),
       fb=st.floats(min_value=100, max_value=5000))
def test_scheduler_tick_ratio(fa, fb):
    """Over a long window, tick counts are proportional to frequencies."""
    a = ClockDomain("a", fa)
    b = ClockDomain("b", fb)
    sched = TickScheduler([a, b])
    horizon = 2_000_000  # 2 us
    while sched.now_ps < horizon:
        sched.next_event()
    expect_a = horizon / a.period_ps
    expect_b = horizon / b.period_ps
    assert a.cycles == pytest.approx(expect_a, rel=0.02)
    assert b.cycles == pytest.approx(expect_b, rel=0.02)


class TestDrainUntil:
    """Skip-ahead over provably idle ticks (the gated-FE fast path)."""

    def test_consumes_ticks_strictly_before_horizon(self):
        fast = ClockDomain("fast", 2000.0)   # 500 ps period
        n = TickScheduler([fast]).drain_until(fast, 2000)
        # Ticks at 0, 500, 1000, 1500 are before 2000; the tick AT the
        # horizon is excluded (ties belong to the other domain's handler).
        assert n == 4
        assert fast.cycles == 4
        assert fast.next_tick_ps == 2000

    def test_noop_at_or_past_horizon(self):
        dom = ClockDomain("d", 1000.0)
        sched = TickScheduler([dom])
        assert sched.drain_until(dom, 0) == 0
        dom.advance()
        assert sched.drain_until(dom, dom.next_tick_ps) == 0
        assert dom.cycles == 1

    def test_equivalent_to_stepping(self):
        """Draining must advance exactly like popping each tick."""
        a = ClockDomain("a", 1300.0)
        b = ClockDomain("b", 1300.0)
        horizon = 987_654
        stepped = 0
        while a.next_tick_ps < horizon:
            a.advance()
            stepped += 1
        drained = TickScheduler([b]).drain_until(b, horizon)
        assert drained == stepped
        assert b.cycles == a.cycles
        assert b.next_tick_ps == a.next_tick_ps

    def test_interleaving_preserved_after_drain(self):
        """After a bulk skip, the scheduler keeps global time order."""
        be = ClockDomain("be", 950.0)
        fe = ClockDomain("fe", 1900.0)
        sched = TickScheduler([be, fe])
        sched.next_event()                      # be tick at t=0
        sched.drain_until(fe, be.next_tick_ps)  # consume gated fe ticks
        last = -1
        for _ in range(50):
            t, _dom = sched.next_event()
            assert t >= last
            last = t


@settings(max_examples=40, deadline=None)
@given(f_fast=st.floats(min_value=100, max_value=5000),
       f_slow=st.floats(min_value=100, max_value=5000))
def test_drain_until_matches_stepped_counts(f_fast, f_slow):
    """For any frequency ratio (including awkward, non-integer ones),
    bulk-draining one domain up to the other's next tick consumes exactly
    the ticks a stepped scheduler would hand to it first."""
    a1 = ClockDomain("a", f_fast)
    b1 = ClockDomain("b", f_slow)
    stepped = TickScheduler([b1, a1])
    _t, dom = stepped.next_event()
    assert dom is b1                 # t=0 tie goes to the first-registered
    popped_a = 0
    while True:
        _t, dom = stepped.next_event()
        if dom is b1:
            break
        popped_a += 1
    a2 = ClockDomain("a", f_fast)
    b2 = ClockDomain("b", f_slow)
    sched2 = TickScheduler([b2, a2])
    b2.advance()                     # mirror b's first tick
    drained = sched2.drain_until(a2, b2.next_tick_ps)
    assert drained == popped_a
    assert a2.cycles == a1.cycles
    assert a2.next_tick_ps == a1.next_tick_ps


class TestSyncFifo:
    def test_latency_gates_visibility(self):
        fifo = SyncFifo("f")
        fifo.push("x", now_ps=0, latency_ps=100)
        assert fifo.pop_ready(50) == []
        assert len(fifo) == 1
        assert fifo.pop_ready(100) == ["x"]

    def test_fifo_order(self):
        fifo = SyncFifo("f")
        for i in range(5):
            fifo.push(i, now_ps=i, latency_ps=10)
        assert fifo.pop_ready(100) == [0, 1, 2, 3, 4]

    def test_capacity_backpressure(self):
        fifo = SyncFifo("f", capacity=2)
        assert fifo.push(1, 0, 10)
        assert fifo.push(2, 0, 10)
        assert not fifo.push(3, 0, 10)
        fifo.pop_ready(100)
        assert fifo.push(3, 100, 10)

    def test_pop_limit(self):
        fifo = SyncFifo("f")
        for i in range(5):
            fifo.push(i, 0, 0)
        assert fifo.pop_ready(0, limit=2) == [0, 1]
        assert len(fifo) == 3

    def test_exact_boundary_is_mature(self):
        """An entry matures at exactly push_time + latency, not after."""
        fifo = SyncFifo("f")
        fifo.push("x", now_ps=1000, latency_ps=500)
        assert fifo.pop_ready(1499) == []
        assert fifo.pop_ready(1500) == ["x"]

    def test_cross_domain_latency_at_unequal_ratio(self):
        """Entries pushed on fast-domain ticks become visible to the slow
        domain only after the synchronization latency, whatever the
        (non-integer) frequency ratio."""
        fe = ClockDomain("fe", 1300.0)
        be = ClockDomain("be", 950.0)
        sched = TickScheduler([be, fe])
        fifo = SyncFifo("dispatch")
        latency = be.period_ps          # one consumer cycle
        crossings = []
        for _ in range(200):
            t, dom = sched.next_event()
            if dom is fe:
                fifo.push(t, t, latency)
            else:
                for pushed_t in fifo.pop_ready(t):
                    crossings.append((pushed_t, t))
        assert crossings
        for pushed_t, popped_t in crossings:
            assert popped_t - pushed_t >= latency
        # FIFO order survives the clock crossing.
        assert [p for p, _ in crossings] == sorted(p for p, _ in crossings)

    def test_fifo_survives_consumer_ratio_change(self):
        """Entries pushed before a consumer frequency switch still mature
        in order and no earlier than push + latency, with the consumer's
        ticks interleaving correctly across the change (the Flywheel's
        dispatch FIFO sees exactly this at every governor retune and
        trace-mode switch)."""
        fe = ClockDomain("fe", 1900.0)
        be = ClockDomain("be", 950.0)
        sched = TickScheduler([be, fe])
        fifo = SyncFifo("dispatch")
        crossings = []
        switched = False
        for _ in range(400):
            t, dom = sched.next_event()
            if dom is fe:
                # Latency is one *consumer* cycle at the period current
                # at push time, as the core computes it.
                fifo.push(t, t, be.period_ps)
            else:
                for pushed_t in fifo.pop_ready(t):
                    crossings.append((pushed_t, t))
                if not switched and t >= 50_000:
                    be.set_frequency(1425.0, t)   # mid-run speed-up
                    switched = True
        assert switched and crossings
        # Maturity and FIFO order hold across the ratio change.
        pushed_order = [p for p, _t in crossings]
        assert pushed_order == sorted(pushed_order)
        for pushed_t, popped_t in crossings:
            assert popped_t >= pushed_t

    def test_entry_waits_for_next_consumer_tick(self):
        """A push landing between consumer ticks is seen at the first
        consumer tick past its maturity (ratio-boundary case)."""
        be = ClockDomain("be", 1000.0)       # ticks at 0, 1000, 2000...
        fifo = SyncFifo("f")
        fifo.push("x", now_ps=1100, latency_ps=500)   # mature at 1600
        be.advance()                          # t=0
        be.advance()                          # t=1000: not mature yet
        assert fifo.pop_ready(1000) == []
        assert len(fifo) == 1
        t = be.advance()                      # t=2000: first tick >= 1600
        assert t == 2000
        assert fifo.pop_ready(t) == ["x"]


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 500)),
                      min_size=1, max_size=50))
def test_sync_fifo_never_reorders(items):
    """Entries mature in push order regardless of latencies."""
    fifo = SyncFifo("f")
    now = 0
    for i, (dt, lat) in enumerate(items):
        now += dt
        fifo.push(i, now, lat)
    out = fifo.pop_ready(now + 1000)
    assert out == sorted(out)
    assert len(out) == len(items)
