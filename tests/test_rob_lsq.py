"""Unit tests for the reorder buffer and load/store queue."""

import pytest

from repro.errors import SimulationError
from repro.execute.lsq import LoadStoreQueue
from repro.isa import DynInstr, OpClass
from repro.rob.reorder_buffer import ReorderBuffer, RobEntry


def _entry(seq, mem=False):
    dyn = DynInstr(seq=seq, pc=seq * 4, op=OpClass.LOAD if mem else OpClass.INT_ALU,
                   dest=5, srcs=(), sid=seq,
                   mem_addr=0x1000 if mem else None)
    return RobEntry(dyn)


class TestRob:
    def test_in_order_retirement(self):
        rob = ReorderBuffer(8)
        a, b = _entry(0), _entry(1)
        rob.insert(a)
        rob.insert(b)
        b.done = True
        assert rob.retire_ready(4) == []    # head not done
        a.done = True
        assert rob.retire_ready(4) == [a, b]

    def test_width_limit(self):
        rob = ReorderBuffer(8)
        entries = [_entry(i) for i in range(6)]
        for e in entries:
            rob.insert(e)
            e.done = True
        assert len(rob.retire_ready(4)) == 4
        assert len(rob.retire_ready(4)) == 2

    def test_overflow(self):
        rob = ReorderBuffer(2)
        rob.insert(_entry(0))
        rob.insert(_entry(1))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.insert(_entry(2))

    def test_flush(self):
        rob = ReorderBuffer(4)
        rob.insert(_entry(0))
        rob.flush()
        assert len(rob) == 0

    def test_is_mem_flag(self):
        assert _entry(0, mem=True).is_mem
        assert not _entry(0).is_mem


class TestLsq:
    def test_capacity(self):
        lsq = LoadStoreQueue(2)
        lsq.insert()
        lsq.insert()
        assert lsq.full
        with pytest.raises(SimulationError):
            lsq.insert()

    def test_release(self):
        lsq = LoadStoreQueue(2)
        lsq.insert()
        lsq.release()
        assert len(lsq) == 0
        with pytest.raises(SimulationError):
            lsq.release()

    def test_flush(self):
        lsq = LoadStoreQueue(4)
        lsq.insert()
        lsq.flush()
        assert len(lsq) == 0
