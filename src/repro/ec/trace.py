"""Trace data structures stored in the Execution Cache.

A :class:`TraceInstr` records everything needed to replay one instruction
without the front-end: its static identity (for path verification), its
op class, and the (architected register, LID) rename info produced during
trace creation. Dynamic facts — memory addresses, actual branch outcomes —
are *not* stored; the walker supplies fresh ones each replay, exactly as
real operand values differ between runs of the same trace.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulationError
from repro.isa import DynInstr


class TraceInstr:
    """One pre-scheduled instruction slot."""

    __slots__ = ("pos", "sid", "op", "dest", "dest_lid", "srcs", "src_lids",
                 "is_branch", "taken", "is_mem")

    def __init__(self, pos: int, dyn: DynInstr):
        self.pos = pos                    # program-order position in trace
        self.sid = dyn.sid
        self.op = dyn.op
        self.dest = dyn.dest
        self.dest_lid = dyn.dest_lid
        self.srcs = dyn.srcs
        self.src_lids = dyn.src_lids
        self.is_branch = dyn.is_branch
        self.taken = dyn.taken            # recorded (build-time) direction
        self.is_mem = dyn.mem_addr is not None


class IssueUnit:
    """Independent instructions recorded as one parallel issue group."""

    __slots__ = ("instrs", "_demands")

    def __init__(self, instrs: Optional[List[TraceInstr]] = None):
        self.instrs: List[TraceInstr] = instrs or []
        self._demands = None

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self):
        return iter(self.instrs)

    @property
    def demands(self) -> tuple:
        """FU demands as ``(kind, cycle, latency, unpipelined)`` tuples.

        The cycle field is 0 — only meaningful for unpipelined ops, whose
        reservation the replay engine re-stamps; cached because a hot
        trace replays the same units thousands of times.
        """
        if self._demands is None:
            from repro.isa.opclasses import (EXEC_LATENCY_TAB, FU_KIND_TAB,
                                             UNPIPELINED_TAB)
            self._demands = tuple(
                (FU_KIND_TAB[ti.op], 0, EXEC_LATENCY_TAB[ti.op],
                 UNPIPELINED_TAB[ti.op]) for ti in self.instrs)
        return self._demands


class Trace:
    """A complete trace: ordered Issue Units plus lookup metadata."""

    __slots__ = ("tid", "start_pc", "units", "length", "slots", "last_use",
                 "valid")

    def __init__(self, tid: int, start_pc: int, units: List[IssueUnit]):
        if not units:
            raise SimulationError("empty trace")
        self.tid = tid
        self.start_pc = start_pc
        self.units = units
        self.length = sum(len(u) for u in units)   # program-order length
        self.slots = self.length                    # DA slots used
        self.last_use = 0
        self.valid = True

    def blocks(self, block_slots: int) -> int:
        """Data-array blocks occupied (units pack densely, Fig. 7b)."""
        return -(-self.slots // block_slots)

    def program_order(self) -> List[TraceInstr]:
        """Instructions sorted back into program order (for replay pairing)."""
        out = [ti for unit in self.units for ti in unit]
        out.sort(key=lambda ti: ti.pos)
        return out
