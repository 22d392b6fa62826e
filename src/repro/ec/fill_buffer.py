"""Replay-side fill buffer (Section 3.3, Fig. 7).

During trace execution one DA block is fetched per access; the circular
fill buffer holds two blocks so the next access can start immediately,
hiding most of the EC's three-cycle latency. The model exposes how many
instruction slots have arrived by a given back-end cycle: the first block
lands ``latency`` cycles after the trace read starts, subsequent blocks
stream one per cycle (multi-banked DA), but never run more than one spare
block ahead of consumption (the two-block buffer bound).

An Issue Unit can leave the buffer only when all its slots have arrived —
very large units spanning a late second block stall, the corner case the
paper notes. The replay-issue stage of
:meth:`repro.core.flywheel.FlywheelCore.run` (``# ---- replay issue``)
and the replay skip-ahead both ask :meth:`FillBuffer.can_consume` whether
a unit's slots have arrived; the stage advances ``_consumed`` inline,
one unit at a time.
"""

from __future__ import annotations


class FillBuffer:
    """Streaming window between the DA and the execution core."""

    def __init__(self, block_slots: int, latency: int, depth_blocks: int = 2):
        self.block_slots = block_slots
        self.latency = latency
        self.depth_slots = depth_blocks * block_slots
        self._start_cycle = 0
        self._total_slots = 0
        self._consumed = 0
        self._arrived = 0
        self._active = False

    def start(self, cycle: int, total_slots: int) -> None:
        """Begin streaming a trace of ``total_slots`` instruction slots."""
        self._start_cycle = cycle
        self._total_slots = total_slots
        self._consumed = 0
        self._arrived = 0
        self._active = True

    def tick(self, cycle: int) -> None:
        """Advance arrivals for this cycle."""
        if not self._active or self._arrived >= self._total_slots:
            return
        elapsed = cycle - self._start_cycle - self.latency
        if elapsed < 0:
            return
        # One block per cycle since the first arrival, bounded by the
        # buffer depth ahead of consumption and by the trace size.
        streamed = (elapsed + 1) * self.block_slots
        bound = min(self._total_slots, self._consumed + self.depth_slots,
                    streamed)
        if bound > self._arrived:
            self._arrived = bound

    def can_consume(self, n_slots: int) -> bool:
        return self._arrived - self._consumed >= n_slots

    def cycle_ready_for(self, n_slots: int):
        """Cycle by which ``n_slots`` past current consumption will have
        arrived, assuming no further consumption — the replay skip-ahead
        bound. None if the request can never be satisfied as-is.
        """
        target = self._consumed + n_slots
        if (not self._active or target > self._total_slots
                or n_slots > self.depth_slots):
            return None
        blocks = -(-target // self.block_slots)
        return self._start_cycle + self.latency + blocks - 1

    def stop(self) -> None:
        self._active = False
