"""Monolithic issue window with single-cycle Wake-Up/Select.

The window holds dispatched instructions until their source operands are
ready and a functional unit is available. Wake-up is modelled with a
waiters index (tag -> entries), equivalent in outcome to the CAM broadcast
of a real window; selection is oldest-first up to the issue width, subject
to functional-unit availability.

Selection is driven by two small heaps instead of a scan over every
occupied slot: ``_future`` holds operand-ready entries whose earliest
selection cycle has not arrived, ``_eligible`` holds entries selectable
now, both ordered so the oldest entry always surfaces first. A 128-entry
window at high occupancy used to cost ~100 slot visits per select; the
heaps visit only the handful of entries that can actually issue, with
identical selection order (age priority among ready entries).

``wakeup_extra_delay`` models the paper's Fig. 2 experiment: pipelining the
Wake-Up/Select loop adds one cycle between a producer's tag broadcast and
the earliest cycle a dependent can be selected, destroying back-to-back
scheduling.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List

from repro.errors import SimulationError
from repro.isa import DynInstr
from repro.isa.opclasses import (
    EXEC_LATENCY_TAB,
    FU_KIND_TAB,
    UNPIPELINED_TAB,
    OpClass,
)


class IWEntry:
    """One issue-window slot."""

    __slots__ = ("dyn", "not_ready", "earliest", "alive", "order")

    def __init__(self, dyn: DynInstr, not_ready: int, earliest: int,
                 order: int):
        self.dyn = dyn
        self.not_ready = not_ready
        self.earliest = earliest
        self.alive = True
        self.order = order          # age stamp: smaller = older


class IssueWindow:
    """Unified window shared by integer, FP and memory instructions."""

    def __init__(self, entries: int, issue_width: int,
                 wakeup_extra_delay: int = 0):
        self.capacity = entries
        self.issue_width = issue_width
        self.wakeup_extra_delay = wakeup_extra_delay
        self._waiters: Dict[int, List[IWEntry]] = {}
        #: (earliest, order, entry): operands ready, selectable later
        self._future: List[tuple] = []
        #: (order, entry): selectable now (earliest already passed)
        self._eligible: List[tuple] = []
        self._order = 0
        self._count = 0
        self.broadcasts = 0       # tag broadcasts (power events)
        self.writes = 0           # window writes (dispatches)

    def __len__(self) -> int:
        return self._count

    def insert(self, dyn: DynInstr, ready: Callable[[int], bool],
               earliest: int) -> IWEntry:
        """Dispatch one instruction into the window.

        ``ready(tag)`` consults the core's scoreboard at insertion time
        (the cores pass the scoreboard bytearray's ``__getitem__``);
        unready sources register the entry with the waiters index.
        """
        if self._count >= self.capacity:
            raise SimulationError("issue window overflow")
        not_ready = 0
        entry = IWEntry(dyn, 0, earliest, self._order)
        self._order += 1
        # Stores do not wait for operands: address generation uses ready
        # base registers and the data drains from the store queue at
        # commit, so they never gate dependent scheduling.
        if dyn.op is not OpClass.STORE:
            for tag in dyn.src_tags:
                if tag >= 0 and not ready(tag):
                    not_ready += 1
                    self._waiters.setdefault(tag, []).append(entry)
        entry.not_ready = not_ready
        if not_ready == 0:
            heappush(self._future, (earliest, entry.order, entry))
        self._count += 1
        self.writes += 1
        return entry

    def broadcast_many(self, tags, cycle: int) -> None:
        """Broadcast a full writeback group (one call per cycle): wake
        the dependents of each tag, in order.

        Dependents become selectable at ``cycle + wakeup_extra_delay``.
        """
        self.broadcasts += len(tags)
        waiters_map = self._waiters
        future = self._future
        ready_at = cycle + self.wakeup_extra_delay
        for tag in tags:
            waiters = waiters_map.pop(tag, None)
            if not waiters:
                continue
            for entry in waiters:
                if entry.alive:
                    entry.not_ready -= 1
                    if ready_at > entry.earliest:
                        entry.earliest = ready_at
                    if entry.not_ready == 0:
                        heappush(future,
                                 (entry.earliest, entry.order, entry))
                    elif entry.not_ready < 0:
                        raise SimulationError(
                            "negative wait count in issue window")

    def select(self, cycle: int, fu_pool) -> List[DynInstr]:
        """Oldest-first selection of up to ``issue_width`` ready entries."""
        future, eligible = self._future, self._eligible
        while future and future[0][0] <= cycle:
            _earliest, order, entry = heappop(future)
            heappush(eligible, (order, entry))
        if not eligible:
            return []
        selected: List[DynInstr] = []
        blocked: List[tuple] = []
        width = self.issue_width
        # Inline FuPool.try_issue: this loop visits every issue candidate
        # every cycle, and the pool's flat arrays are stable objects.
        counts = fu_pool._counts
        used = fu_pool._used
        reserved = fu_pool._reserved
        while eligible:
            item = eligible[0]
            entry = item[1]
            if not entry.alive:
                heappop(eligible)
                continue
            if len(selected) >= width:
                break
            heappop(eligible)
            op = entry.dyn.op
            kind = FU_KIND_TAB[op]
            if counts[kind] - used[kind] - len(reserved[kind]) > 0:
                used[kind] += 1
                fu_pool._dirty = True
                if UNPIPELINED_TAB[op]:
                    reserved[kind].append(cycle + EXEC_LATENCY_TAB[op])
                    fu_pool._n_reserved += 1
                fu_pool.ops += 1
                entry.alive = False
                self._count -= 1
                selected.append(entry.dyn)
            else:
                blocked.append(item)    # no unit this cycle; stays eligible
        for item in blocked:
            heappush(eligible, item)
        return selected
