"""Reorder buffer: in-order completion window.

Entries are appended at dispatch and retired in order once done. Because
the cores model wrong paths as fetch stalls (no wrong-path instructions
enter the machine), the ROB never squashes in-flight instructions: a
diverging trace replay drains it instead. The run loops append to
``_queue`` and retire from its head inline, after checking ``capacity``
and the head's done flag themselves. ``FlywheelCore.run`` queues
:class:`RobEntry` objects; ``BaselineCore.run`` queues ``seq`` ints and
keeps the done flags in its own bytearray.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.isa import DynInstr


class RobEntry:
    """Bookkeeping attached to every in-flight instruction."""

    __slots__ = ("dyn", "done", "mispredicted", "is_mem", "from_ec",
                 "trace_id", "end_of_trace")

    def __init__(self, dyn: DynInstr, mispredicted: bool = False,
                 from_ec: bool = False, trace_id: int = -1):
        self.dyn = dyn
        self.done = False
        self.mispredicted = mispredicted
        self.is_mem = dyn.mem_addr is not None
        self.from_ec = from_ec
        self.trace_id = trace_id
        self.end_of_trace = False


class ReorderBuffer:
    """Bounded FIFO of in-flight instructions."""

    def __init__(self, entries: int):
        self.capacity = entries
        self._queue: Deque[RobEntry] = deque()
        self.writes = 0

    def __len__(self) -> int:
        return len(self._queue)

    def head(self) -> Optional[RobEntry]:
        return self._queue[0] if self._queue else None
