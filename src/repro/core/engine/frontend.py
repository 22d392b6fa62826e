"""Front-end feed stage: the fetch/decode/rename latch chain.

The feed owns the Flywheel's inter-stage latches, which its front end
threads instructions through before they reach the back end, plus the
Decode stage itself. Fetch *policy* (when to stop a fetch group, trace
bookkeeping, oracle pushback) and Rename live in the core; they operate
on these latches. ``BaselineCore.run`` keeps its latches as loop-local
deques of ``seq`` ints and reads only :data:`FETCH_BUFFER_GROUPS` here.

Latches hold bare :class:`DynInstr` objects; the maturity timestamp (in
the owning clock domain's cycle numbers) lives on ``dyn.lat_ready``,
owned by whichever latch currently holds the instruction — the feed
itself is clock-agnostic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.stats import SimStats
from repro.isa import DynInstr

#: Fetch-side buffering in fetch groups: fetch never runs more than this
#: many full groups ahead of decode.
FETCH_BUFFER_GROUPS = 4


class FrontEndFeed:
    """Fetch-out / decode-out / rename-out latches plus the Decode stage."""

    __slots__ = ("decode_width", "_fetch_cap", "fetch_out", "decode_out",
                 "rename_out", "_events")

    def __init__(self, fetch_width: int, decode_width: int,
                 stats: SimStats):
        self.decode_width = decode_width
        self._fetch_cap = FETCH_BUFFER_GROUPS * fetch_width
        self.fetch_out: Deque[DynInstr] = deque()
        self.decode_out: Deque[DynInstr] = deque()
        self.rename_out: Deque[DynInstr] = deque()
        self._events = stats.events

    def decode(self, c: int) -> None:
        """Move up to ``decode_width`` matured instructions to rename."""
        fetch_out = self.fetch_out
        if not fetch_out:
            return
        decode_out = self.decode_out
        n = 0
        while fetch_out and n < self.decode_width:
            dyn = fetch_out[0]
            if dyn.lat_ready > c:
                break
            fetch_out.popleft()
            dyn.lat_ready = c + 1
            decode_out.append(dyn)
            n += 1
        if n:
            self._events["decode_op"] += n
