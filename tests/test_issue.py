"""Unit tests for the issue window (synchronous and dual-clock)."""

import pytest

from repro.core.config import FlywheelConfig
from repro.core.sim import default_config, execute_kind
from repro.errors import SimulationError
from repro.execute.fu import FuPool
from repro.isa import DynInstr, OpClass
from repro.obs.spec import TraceSpec
from repro.issue.window import IssueWindow


def _fu():
    return FuPool(4, 2, 2, 2, 1)


def _instr(seq, op=OpClass.INT_ALU, dest_tag=-1, src_tags=()):
    dyn = DynInstr(seq=seq, pc=seq * 4, op=op, dest=None, srcs=(), sid=seq)
    dyn.dest_tag = dest_tag
    dyn.src_tags = tuple(src_tags)
    return dyn


class TestIssueWindow:
    def test_ready_instr_issues(self):
        iw = IssueWindow(16, 6)
        fu = _fu()
        fu.begin_cycle(1)
        iw.insert(_instr(0), lambda t: True, earliest=1)
        assert len(iw.select(1, fu)) == 1
        assert len(iw) == 0

    def test_earliest_gates_selection(self):
        iw = IssueWindow(16, 6)
        fu = _fu()
        iw.insert(_instr(0), lambda t: True, earliest=5)
        fu.begin_cycle(4)
        assert iw.select(4, fu) == []
        fu.begin_cycle(5)
        assert len(iw.select(5, fu)) == 1

    def test_wakeup_on_broadcast(self):
        iw = IssueWindow(16, 6)
        fu = _fu()
        dep = _instr(0, src_tags=(7,))
        iw.insert(dep, lambda t: False, earliest=0)
        fu.begin_cycle(1)
        assert iw.select(1, fu) == []
        iw.broadcast(7, 2)
        fu.begin_cycle(2)
        assert len(iw.select(2, fu)) == 1   # back-to-back: same cycle

    def test_pipelined_wakeup_delays_dependents(self):
        iw = IssueWindow(16, 6, wakeup_extra_delay=1)
        fu = _fu()
        dep = _instr(0, src_tags=(7,))
        iw.insert(dep, lambda t: False, earliest=0)
        iw.broadcast(7, 2)
        fu.begin_cycle(2)
        assert iw.select(2, fu) == []       # back-to-back lost
        fu.begin_cycle(3)
        assert len(iw.select(3, fu)) == 1

    def test_oldest_first_and_width(self):
        iw = IssueWindow(32, 2)
        fu = _fu()
        for i in range(5):
            iw.insert(_instr(i), lambda t: True, earliest=0)
        fu.begin_cycle(1)
        picked = iw.select(1, fu)
        assert [d.seq for d in picked] == [0, 1]

    def test_fu_constraint(self):
        iw = IssueWindow(32, 6)
        fu = _fu()   # only 1 FP mul/div
        for i in range(3):
            iw.insert(_instr(i, op=OpClass.FP_MUL), lambda t: True, 0)
        fu.begin_cycle(1)
        assert len(iw.select(1, fu)) == 1

    def test_unpipelined_div_blocks_unit(self):
        iw = IssueWindow(32, 6)
        fu = _fu()   # 1 FP muldiv unit
        iw.insert(_instr(0, op=OpClass.FP_DIV), lambda t: True, 0)
        iw.insert(_instr(1, op=OpClass.FP_MUL), lambda t: True, 0)
        fu.begin_cycle(1)
        assert len(iw.select(1, fu)) == 1       # div claims the unit
        fu.begin_cycle(2)
        assert iw.select(2, fu) == []           # still reserved
        fu.begin_cycle(14)
        assert len(iw.select(14, fu)) == 1

    def test_stores_never_wait(self):
        iw = IssueWindow(16, 6)
        fu = _fu()
        store = _instr(0, op=OpClass.STORE, src_tags=(9, 10))
        iw.insert(store, lambda t: False, earliest=0)
        fu.begin_cycle(1)
        assert len(iw.select(1, fu)) == 1

    def test_overflow(self):
        iw = IssueWindow(2, 6)
        iw.insert(_instr(0), lambda t: True, 0)
        iw.insert(_instr(1), lambda t: True, 0)
        assert iw.free_slots == 0
        with pytest.raises(SimulationError):
            iw.insert(_instr(2), lambda t: True, 0)

    def test_flush(self):
        iw = IssueWindow(16, 6)
        iw.insert(_instr(0, src_tags=(3,)), lambda t: False, 0)
        iw.flush()
        assert len(iw) == 0
        iw.broadcast(3, 1)   # must not blow up on dead waiters


class TestDualClock:
    @staticmethod
    def _min_dispatch_issue_gap(delay_network):
        # With the EC off the Flywheel never replays: every instruction
        # passes Register Update into the dual-clock window (create mode),
        # so each traced dispatch -> issue pair is one window residency.
        config = default_config("flywheel").with_variant(
            trace=TraceSpec(events=("dispatch", "issue")))
        fly = FlywheelConfig(ec_enabled=False, delay_network=delay_network)
        result = execute_kind("flywheel", "smoke", config=config, fly=fly,
                              max_instructions=1500, warmup=500)
        dispatched = {}
        gaps = []
        for cycle, kind, seq, _info in result.trace["events"]:
            if kind == "dispatch":
                dispatched[seq] = cycle
            elif seq in dispatched:
                gaps.append(cycle - dispatched.pop(seq))
        assert len(gaps) > 1000
        return min(gaps)

    def test_delay_network_adds_cycle(self):
        assert self._min_dispatch_issue_gap(False) == 1
        assert self._min_dispatch_issue_gap(True) == 2


class TestFuPool:
    def test_group_atomicity(self):
        fu = _fu()   # 1 FP muldiv
        fu.begin_cycle(1)
        from repro.isa.opclasses import FuKind
        demands = [(FuKind.FP_MULDIV, 1, 4, False),
                   (FuKind.FP_MULDIV, 1, 4, False)]
        assert not fu.try_issue_group(demands)
        # nothing was claimed by the failed attempt
        assert fu.available(FuKind.FP_MULDIV) == 1

    def test_flush_releases_reservations(self):
        from repro.isa.opclasses import FuKind
        fu = _fu()
        fu.begin_cycle(1)
        fu.try_issue(FuKind.INT_MULDIV, 1, 12, unpipelined=True)
        fu.flush()
        fu.begin_cycle(2)
        assert fu.available(FuKind.INT_MULDIV) == 2
