"""Monolithic issue window with single-cycle Wake-Up/Select: its state.

The window holds dispatched instructions until their source operands are
ready and a functional unit is available. Wake-up is modelled with a
waiters index (tag -> entries), equivalent in outcome to the CAM broadcast
of a real window; selection is oldest-first up to the issue width, subject
to functional-unit availability.

Selection is driven by two small heaps instead of a scan over every
occupied slot: ``_future`` holds operand-ready entries whose earliest
selection cycle has not arrived, ``_eligible`` holds entries selectable
now, both ordered so the oldest entry always surfaces first.

``wakeup_extra_delay`` models the paper's Fig. 2 experiment: pipelining the
Wake-Up/Select loop adds one cycle between a producer's tag broadcast and
the earliest cycle a dependent can be selected, destroying back-to-back
scheduling.

Insertion, wake-up and select are written inline in the run loops that
do them (DESIGN.md §2): ``FlywheelCore.run`` over this window's heaps
and index, ``BaselineCore.run`` over loop-local equivalents keyed by
``seq``, flushing only the occupancy and the power counters here.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa import DynInstr


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
