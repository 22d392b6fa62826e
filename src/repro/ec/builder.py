"""Trace construction during trace-creation mode.

Each back-end cycle's issued group becomes one Issue Unit; the builder
accumulates units (conceptually through the creation-side fill buffer,
which writes a data-array block whenever eight slots fill up) until the
trace is sealed by a mispredict or a length limit. The program-order
position of each instruction is assigned at rename phase 1 in
:meth:`repro.core.flywheel.FlywheelCore.run` (``dyn.trace_pos``), and the
trace-length limit is the fetch-side cap there, so the builder only
records units. The data-array block writes are counted once per stored
trace, as ``Trace.blocks`` (the ``ec_block_write`` event).
"""

from __future__ import annotations

from typing import List, Optional

from repro.ec.trace import IssueUnit, Trace, TraceInstr


class TraceBuilder:
    """Accumulates issue units for the trace under construction."""

    def __init__(self):
        self._units: List[IssueUnit] = []
        self._start_pc: Optional[int] = None

    def begin(self, start_pc: int) -> None:
        self._units = []
        self._start_pc = start_pc

    def record_unit(self, group: List) -> None:
        """Record one cycle's issued group as an Issue Unit.

        ``group`` is a list of (pos, DynInstr) pairs.
        """
        if not group:
            return
        self._units.append(
            IssueUnit([TraceInstr(pos, dyn) for pos, dyn in group]))

    def seal(self, tid: int) -> Optional[Trace]:
        """Finish the trace; returns None if nothing was recorded."""
        if self._start_pc is None or not self._units:
            self._reset()
            return None
        trace = Trace(tid, self._start_pc, self._units)
        self._reset()
        return trace

    def _reset(self) -> None:
        self._units = []
        self._start_pc = None
