"""Unit tests for the reorder buffer and load/store queue."""

from collections import Counter, deque

import pytest

from repro.core.config import CoreConfig
from repro.core.sim import default_config, execute_kind
from repro.errors import SimulationError
from repro.execute.lsq import LoadStoreQueue
from repro.isa import DynInstr, OpClass
from repro.obs.spec import TraceSpec
from repro.rob import reorder_buffer
from repro.rob.reorder_buffer import RobEntry


def _entry(seq, mem=False):
    dyn = DynInstr(seq=seq, pc=seq * 4, op=OpClass.LOAD if mem else OpClass.INT_ALU,
                   dest=5, srcs=(), sid=seq,
                   mem_addr=0x1000 if mem else None)
    return RobEntry(dyn)


def _retires(kind, **core_fields):
    """(cycle, seq) of every retire event of a traced run."""
    config = default_config(kind).with_variant(
        trace=TraceSpec(buffer=1 << 15, events=("retire",)), **core_fields)
    result = execute_kind(kind, "gcc", config=config, max_instructions=3000,
                          warmup=1000)
    assert result.trace["dropped"] == 0
    return [(cycle, seq) for cycle, _k, seq, _i in result.trace["events"]]


class TestRob:
    # The run loops append to ``_queue`` and retire from its head
    # themselves, after their own capacity and done checks.
    def test_in_order_retirement(self):
        for kind in ("baseline", "flywheel"):
            seqs = [seq for _cycle, seq in _retires(kind)]
            assert seqs == list(range(1000, 1000 + len(seqs))), kind

    def test_width_limit(self):
        # A narrower commit stage: at most two retire a cycle, and the
        # loops reach that width.
        for kind in ("baseline", "flywheel"):
            per_cycle = Counter(cycle for cycle, _seq in
                                _retires(kind, commit_width=2))
            assert max(per_cycle.values()) == 2, kind

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

