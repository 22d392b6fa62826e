"""Unit + property tests for the Execution Cache machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FlywheelConfig
from repro.core.sim import execute_kind
from repro.ec.builder import TraceBuilder
from repro.ec.cache import ExecutionCache
from repro.ec.fill_buffer import FillBuffer
from repro.ec.trace import IssueUnit, Trace, TraceInstr
from repro.errors import SimulationError
from repro.isa import DynInstr, OpClass


def _dyn(seq, pos):
    d = DynInstr(seq=seq, pc=0x1000 + 4 * seq, op=OpClass.INT_ALU, dest=8,
                 srcs=(1,), sid=seq)
    d.dest_lid = 1
    d.src_lids = (0,)
    d.trace_pos = pos
    return d


def _trace(tid, start_pc, n_instrs, unit_size=2):
    units, pos = [], 0
    while pos < n_instrs:
        size = min(unit_size, n_instrs - pos)
        units.append(IssueUnit(
            [TraceInstr(pos + k, _dyn(pos + k, pos + k))
             for k in range(size)]))
        pos += size
    return Trace(tid, start_pc, units)


class TestTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            Trace(0, 0x100, [])

    def test_lengths(self):
        t = _trace(0, 0x100, 10, unit_size=3)
        assert t.length == 10
        assert t.blocks(8) == 2

    def test_program_order_is_sorted_permutation(self):
        # Build units in scrambled issue order
        units = [IssueUnit([TraceInstr(2, _dyn(2, 2))]),
                 IssueUnit([TraceInstr(0, _dyn(0, 0)),
                            TraceInstr(3, _dyn(3, 3))]),
                 IssueUnit([TraceInstr(1, _dyn(1, 1))])]
        t = Trace(0, 0x100, units)
        assert [r.pos for r in t.program_order()] == [0, 1, 2, 3]


class TestBuilder:
    def test_records_and_seals(self):
        b = TraceBuilder()
        b.begin(0x400)
        b.record_unit([(0, _dyn(0, 0)), (1, _dyn(1, 1))])
        b.record_unit([(2, _dyn(2, 2))])
        t = b.seal(7)
        assert t.tid == 7
        assert t.start_pc == 0x400
        assert t.length == 3
        assert b.seal(8) is None    # sealing reset the builder

    def test_seal_empty_returns_none(self):
        b = TraceBuilder()
        b.begin(0x400)
        assert b.seal(0) is None

    def test_block_write_accounting(self, monkeypatch):
        b = TraceBuilder()
        b.begin(0x400)
        for u in range(3):
            b.record_unit([(3 * u + k, _dyn(3 * u + k, 3 * u + k))
                           for k in range(3)])
        # 9 slots in 4-slot blocks: two full blocks plus a partial one.
        assert b.seal(0).blocks(4) == 3
        # A real run writes each stored trace's blocks once, as the
        # ``ec_block_write`` event.
        stored = []
        insert = ExecutionCache.insert

        def record(ec, trace):
            stored.append(trace.blocks(ec.block_slots))
            return insert(ec, trace)

        monkeypatch.setattr(ExecutionCache, "insert", record)
        stats = execute_kind("flywheel", "gcc", max_instructions=4000,
                             warmup=2000).stats
        assert len(stored) == stats.traces_built > 0
        assert stats.events["ec_block_write"] == sum(stored)


class TestExecutionCache:
    def test_insert_lookup(self):
        ec = ExecutionCache(FlywheelConfig())
        t = _trace(ec.alloc_tid(), 0x100, 8)
        ec.insert(t)
        assert ec.lookup(0x100) is t
        assert ec.lookup(0x104) is None

    def test_same_pc_replaces(self):
        ec = ExecutionCache(FlywheelConfig())
        t1 = _trace(0, 0x100, 8)
        t2 = _trace(1, 0x100, 12)
        ec.insert(t1)
        ec.insert(t2)
        assert not t1.valid
        assert ec.lookup(0x100) is t2

    def test_capacity_eviction_lru(self):
        cfg = FlywheelConfig(ec_kb=1)   # 16 blocks
        ec = ExecutionCache(cfg)
        t1 = _trace(0, 0x100, 48)       # 6 blocks each: three do not fit
        t2 = _trace(1, 0x200, 48)
        t3 = _trace(2, 0x300, 48)
        ec.insert(t1)
        ec.insert(t2)
        ec.lookup(0x100)                # refresh t1
        ec.insert(t3)                   # must evict t2 (LRU)
        assert t1.valid
        assert not t2.valid
        assert ec.used_blocks <= ec.total_blocks

    def test_oversized_trace_skipped(self):
        cfg = FlywheelConfig(ec_kb=1)
        ec = ExecutionCache(cfg)
        assert not ec.insert(_trace(0, 0x100, 1000))
        assert ec.used_blocks == 0
        assert not ec._by_pc

    def test_invalidate_all(self):
        ec = ExecutionCache(FlywheelConfig())
        ec.insert(_trace(0, 0x100, 8))
        ec.invalidate_all()
        assert ec.lookup(0x100) is None
        assert ec.used_blocks == 0
        assert not ec._by_pc

    def test_stats(self):
        # Hits and misses are counted by the core, once per tag-array
        # lookup at most: a hit whose trace is evicted before it can
        # replay counts as a miss, a stale pairing as neither.
        on = execute_kind("flywheel", "gcc", max_instructions=4000,
                          warmup=2000).stats
        assert on.trace_hits > 0 and on.trace_misses > 0
        assert on.trace_hits + on.trace_misses <= on.events["ec_ta_lookup"]
        off = execute_kind("flywheel", "gcc", max_instructions=4000,
                           warmup=2000,
                           fly=FlywheelConfig(ec_enabled=False)).stats
        assert off.trace_hits == off.trace_misses == 0
        assert off.events["ec_block_write"] == 0


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 64), min_size=1, max_size=40))
def test_ec_block_accounting_invariant(lengths):
    """used_blocks always equals the sum over valid traces."""
    ec = ExecutionCache(FlywheelConfig(ec_kb=8))   # 128 blocks
    for i, n in enumerate(lengths):
        ec.insert(_trace(i, 0x100 + 0x40 * i, n))
        expected = sum(t.blocks(8) for t in ec._by_pc.values() if t.valid)
        assert ec.used_blocks == expected
        assert ec.used_blocks <= ec.total_blocks


class TestFillBuffer:
    def test_first_block_latency(self):
        fb = FillBuffer(block_slots=8, latency=3)
        fb.start(cycle=10, total_slots=24)
        fb.tick(12)
        assert not fb.can_consume(1)
        fb.tick(13)
        assert fb.can_consume(8)

    def test_streaming_rate(self):
        fb = FillBuffer(8, 3)
        fb.start(0, 64)
        fb.tick(3)
        fb.tick(4)
        assert fb.can_consume(16)     # two blocks arrived
        assert not fb.can_consume(17)  # buffer depth bound

    def test_depth_bound_until_consumed(self):
        fb = FillBuffer(8, 3)
        fb.start(0, 64)
        for c in range(3, 10):
            fb.tick(c)
        assert not fb.can_consume(17)   # never more than 2 blocks ahead
        fb._consumed += 8     # replay issue takes one 8-slot unit
        fb.tick(10)
        assert fb.can_consume(16)

    def test_underflow_guard(self):
        """Replay issue consumes only what ``can_consume`` admits, and
        nothing is admitted before the first block lands."""
        fb = FillBuffer(8, 3)
        fb.start(0, 8)
        assert not fb.can_consume(1)
        fb.tick(2)
        assert not fb.can_consume(1)
        fb.tick(3)
        assert fb.can_consume(8)

    def test_total_slots_cap(self):
        fb = FillBuffer(8, 3)
        fb.start(0, 5)
        for c in range(3, 8):
            fb.tick(c)
        assert fb.can_consume(5)
        assert not fb.can_consume(6)
