"""Two-phase register renaming (Section 3.5, "direct access register file").

Phase 1 — **Register Rename** (front-end): every architected register has a
running Logical ID (LID). A source reads the current LID of its register; a
destination increments it. LIDs restart from zero at every trace start, so
the (arch, LID) pairs recorded in the Execution Cache are position-
independent and can be replayed.

Phase 2 — **Register Update** (back-end, one pipeline stage): (arch, LID)
is remapped to a physical register through the Remapping Table (RT), which
records, per architected register, the pool slot that holds the last value
committed before the current trace (the slot LID 0 refers to). The physical
slot is ``(RT[arch] + LID) mod pool_size`` — the additive equivalent of the
paper's XOR recomputation trick.

Checkpoints: the Future Remapping Table (FRT) follows retirement; copying
FRT into RT at a trace change re-bases LID 0 onto the newest committed
value. The Speculative Remapping Table (SRT) follows the Update stage
instead and can be swapped in one cycle when the trace ends without a
mispredict (end-of-trace seen before Register Update).

This class holds the renaming state and the rare-path operations on it
(checkpoints, the post-redistribution reset). The per-instruction steps
are written once, inline in :meth:`repro.core.flywheel.FlywheelCore.run`,
which reads and writes ``_lid``, ``_rt``, ``_frt``, ``_srt`` and
``_srt_trace`` directly:

* phase 1 (LIDs, pool allocation) at ``# ---- rename phase 1``;
* phase 2 (RT remapping, SRT tracking) at ``# ---- Register Update`` for
  trace creation and ``# ---- replay allocation`` for trace execution;
* the FRT advance and pool release at ``# ---- retire``.
"""

from __future__ import annotations

from typing import List

from repro.isa.registers import NUM_ARCH_REGS


class TwoPhaseRenamer:
    """Rename (LID) + Register Update (RT/FRT/SRT) bookkeeping."""

    def __init__(self):
        # Phase 1 state: current LID per architected register.
        self._lid: List[int] = [0] * NUM_ARCH_REGS
        # Phase 2 state: slot of the last committed value at trace start.
        self._rt: List[int] = [0] * NUM_ARCH_REGS
        self._frt: List[int] = [0] * NUM_ARCH_REGS
        self._srt: List[int] = [0] * NUM_ARCH_REGS
        self._srt_trace: List[int] = [-1] * NUM_ARCH_REGS

    def reset_lids(self) -> None:
        """Trace start: LIDs restart at zero (Section 3.5)."""
        for arch in range(NUM_ARCH_REGS):
            self._lid[arch] = 0

    # --------------------------------------------------------- checkpoints

    def checkpoint_from_frt(self) -> None:
        """Trace change after full retirement: RT <- FRT (slow path)."""
        self._rt = list(self._frt)
        self.reset_lids()

    def checkpoint_from_srt(self) -> None:
        """Fast trace switch: RT <- SRT (end-of-trace seen pre-Update)."""
        self._rt = list(self._srt)
        self.reset_lids()

    def reset_after_redistribution(self) -> None:
        """Pool geometry changed: all renaming state restarts at slot 0.

        Architected values are conceptually migrated to slot 0 of each new
        pool; the Execution Cache must be invalidated by the caller since
        every recorded LID mapping is now stale (Section 3.5).
        """
        for arch in range(NUM_ARCH_REGS):
            self._lid[arch] = 0
            self._rt[arch] = 0
            self._frt[arch] = 0
            self._srt[arch] = 0
            self._srt_trace[arch] = -1

    def sync_srt_to_frt(self) -> None:
        """Re-arm the SRT after a squash (its contents may be stale)."""
        self._srt = list(self._frt)
        for arch in range(NUM_ARCH_REGS):
            self._srt_trace[arch] = -1
