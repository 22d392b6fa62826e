"""Execution Cache storage: tag array + data-array block budget.

The tag array (TA) is a set-associative cache indexed by translated start
PC; each hit points at the data-array (DA) set holding the trace's first
block, with subsequent blocks chained set-to-set (Fig. 7a). The simulator
models the TA associativity exactly and the DA as a global block budget
with whole-trace LRU eviction — chained blocks make partial eviction
equivalent to invalidating the trace anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import FlywheelConfig
from repro.ec.trace import Trace
from repro.errors import SimulationError

#: Tag-array sets (the TA is small and fast; the paper sizes it to cover
#: the DA's trace capacity comfortably).
_TA_SETS = 512


class ExecutionCache:
    """Trace store with TA associativity and a DA block budget."""

    def __init__(self, config: FlywheelConfig):
        self.config = config
        self.total_blocks = config.ec_blocks
        self.block_slots = config.ec_block_slots
        self._ta: List[Dict[int, Trace]] = [dict() for _ in range(_TA_SETS)]
        self._by_pc: Dict[int, Trace] = {}
        self.used_blocks = 0
        self._clock = 0
        self._next_tid = 0

    def alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _set_of(self, pc: int) -> Dict[int, Trace]:
        return self._ta[(pc >> 2) % _TA_SETS]

    def lookup(self, pc: int) -> Optional[Trace]:
        """TA search for a trace starting at ``pc``."""
        self._clock += 1
        trace = self._by_pc.get(pc)
        if trace is None or not trace.valid:
            return None
        trace.last_use = self._clock
        return trace

    def insert(self, trace: Trace) -> bool:
        """Store a sealed trace, evicting as needed.

        Returns False (storing nothing) for a trace larger than the whole
        data array — with a tiny EC, over-long traces are simply not
        cacheable.
        """
        self._clock += 1
        blocks = trace.blocks(self.block_slots)
        if blocks > self.total_blocks:
            return False
        ta_set = self._set_of(trace.start_pc)
        # Replace any existing trace with the same start PC.
        old = ta_set.pop(trace.start_pc, None)
        if old is not None:
            self._drop(old)
        # TA way-conflict eviction.
        while len(ta_set) >= self.config.ec_ways:
            victim_pc = min(ta_set, key=lambda p: ta_set[p].last_use)
            self._drop(ta_set.pop(victim_pc))
        # DA capacity eviction (global LRU over traces).
        while self.used_blocks + blocks > self.total_blocks:
            victim = min(
                (t for t in self._by_pc.values() if t.valid),
                key=lambda t: t.last_use,
                default=None,
            )
            if victim is None:
                raise SimulationError("EC accounting out of sync")
            self._set_of(victim.start_pc).pop(victim.start_pc, None)
            self._drop(victim)
        trace.last_use = self._clock
        ta_set[trace.start_pc] = trace
        self._by_pc[trace.start_pc] = trace
        self.used_blocks += blocks
        return True

    def _drop(self, trace: Trace) -> None:
        if trace.valid:
            trace.valid = False
            self.used_blocks -= trace.blocks(self.block_slots)
            self._by_pc.pop(trace.start_pc, None)

    def invalidate_all(self) -> None:
        """Flush every trace (register redistribution, Section 3.5)."""
        for ta_set in self._ta:
            ta_set.clear()
        for trace in self._by_pc.values():
            trace.valid = False
        self._by_pc.clear()
        self.used_blocks = 0
