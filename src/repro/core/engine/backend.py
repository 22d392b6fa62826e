"""Shared back-end state: the structures every core kind executes on.

One instance holds the issue-to-retire structures — reorder buffer,
load/store queue, functional-unit pools, the physical-register
scoreboard, the wake/done event queues and the admitted-but-unissued
entries. The per-cycle mechanics over them (FU bookkeeping, writeback,
retire, execution scheduling) are written inline in each core's run
loop (``BaselineCore.run``, ``FlywheelCore.run``), in the tick order
DESIGN.md §2 gives; this class keeps only the state and the two rare-
path operations the loops and their skip-aheads call.

Event-queue discipline: ``wake_events``/``done_events`` map cycle number
-> list in issue order. The loops only append and pop whole cycles, so
two cores issuing identical instruction sequences produce bit-identical
stats.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import CoreConfig
from repro.execute.fu import FuPool
from repro.execute.lsq import LoadStoreQueue
from repro.rob.reorder_buffer import ReorderBuffer, RobEntry


class ExecBackend:
    """Scoreboard, event queues and ROB/LSQ/FU structures of one core."""

    __slots__ = ("fu", "lsq", "rob", "ready", "wake_events", "done_events",
                 "pending", "_rob_q")

    def __init__(self, config: CoreConfig, phys_regs: int):
        self.fu = FuPool(config.int_alus, config.int_muldivs,
                         config.mem_ports, config.fp_adders,
                         config.fp_muldivs)
        self.lsq = LoadStoreQueue(config.lsq_entries)
        self.rob = ReorderBuffer(config.rob_entries)
        #: physical-register readiness scoreboard (1 = ready)
        self.ready = bytearray([1] * phys_regs)
        #: completion queues keyed by cycle: tag broadcasts / done entries
        self.wake_events: Dict[int, List[int]] = {}
        self.done_events: Dict[int, List[RobEntry]] = {}
        #: in-flight entries admitted but not yet issued, keyed by seq
        self.pending: Dict[int, RobEntry] = {}
        # Hot-path binding (the queue never changes identity).
        self._rob_q = self.rob._queue

    def reset_scoreboard(self) -> None:
        """Mark every physical register ready (renaming state reset)."""
        self.ready[:] = b"\x01" * len(self.ready)

    def next_event_cycle(self):
        """Earliest cycle at which a wake or done event is scheduled.

        Used by the idle skip-aheads: only consulted when the owning core
        has proven every other stage quiescent, so the O(pending) scans
        are off the per-cycle path. Returns None with no events pending.
        """
        wake = self.wake_events
        done = self.done_events
        best = min(wake) if wake else None
        if done:
            dmin = min(done)
            if best is None or dmin < best:
                best = dmin
        return best
