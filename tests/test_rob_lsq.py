"""Unit tests for the reorder buffer and load/store queue."""

from collections import deque

import pytest

from repro.core.config import CoreConfig
from repro.core.sim import execute_kind
from repro.errors import SimulationError
from repro.execute.lsq import LoadStoreQueue
from repro.isa import DynInstr, OpClass
from repro.rob import reorder_buffer
from repro.rob.reorder_buffer import ReorderBuffer, RobEntry


def _entry(seq, mem=False):
    dyn = DynInstr(seq=seq, pc=seq * 4, op=OpClass.LOAD if mem else OpClass.INT_ALU,
                   dest=5, srcs=(), sid=seq,
                   mem_addr=0x1000 if mem else None)
    return RobEntry(dyn)


class TestRob:
    # The run loops append to ``_queue`` themselves (after their own
    # capacity check); ``retire_ready`` is the legacy retire stage's pop.
    def test_in_order_retirement(self):
        rob = ReorderBuffer(8)
        a, b = _entry(0), _entry(1)
        rob._queue.extend((a, b))
        b.done = True
        assert rob.retire_ready(4) == []    # head not done
        a.done = True
        assert rob.retire_ready(4) == [a, b]

    def test_width_limit(self):
        rob = ReorderBuffer(8)
        entries = [_entry(i) for i in range(6)]
        for e in entries:
            rob._queue.append(e)
            e.done = True
        assert len(rob.retire_ready(4)) == 4
        assert len(rob.retire_ready(4)) == 2

    def test_overflow(self, monkeypatch):
        # Every loop fills a small ROB to capacity and never past it.
        peak = [0]

        class Watched(deque):
            def append(self, entry):
                super().append(entry)
                peak[0] = max(peak[0], len(self))

        monkeypatch.setattr(reorder_buffer, "deque", Watched)
        for kind, engine in (("baseline", "legacy"), ("baseline", "turbo"),
                             ("flywheel", "turbo")):
            peak[0] = 0
            config = CoreConfig(rob_entries=16, engine=engine)
            execute_kind(kind, "gcc", config=config, max_instructions=3000,
                         warmup=1000)
            assert peak[0] == 16, (kind, engine)

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
