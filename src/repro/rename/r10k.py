"""MIPS R10000-style register renaming (baseline core).

A map table translates each architected register to a physical register;
destinations allocate a fresh physical register from a free list; the
previous mapping is freed when the instruction commits. Register 0 is the
hard-wired zero: never renamed, always ready (tag 0 is reserved for it).

The class holds the state (map table, free list) and the retire hook.
The per-instruction rename step is written once per engine, in the loop
that runs it: :meth:`repro.core.baseline.BaselineCore._do_rename` on the
legacy engine, the precomputed ``RenamePlan`` of
:mod:`repro.core.engine.turbo.pool` on turbo.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.errors import ConfigError
from repro.isa.registers import NUM_ARCH_REGS


class R10KRenamer:
    """Map table + free list renamer over a unified physical file."""

    def __init__(self, phys_regs: int):
        if phys_regs < NUM_ARCH_REGS + 1:
            raise ConfigError(
                f"need at least {NUM_ARCH_REGS + 1} physical registers, "
                f"got {phys_regs}"
            )
        self.phys_regs = phys_regs
        # Identity-map the architected state at reset; tag 0 = zero reg.
        self._map: List[int] = list(range(NUM_ARCH_REGS))
        self._free: Deque[int] = deque(range(NUM_ARCH_REGS, phys_regs))

    def commit_entry(self, entry) -> None:
        """Retire hook for the engine (`entry` is a RobEntry): free the
        previous mapping of the committed destination. The zero
        register's identity tag 0 is never recycled."""
        dyn = entry.dyn
        if dyn.dest_tag >= 0 and dyn.old_dest_tag > 0:
            self._free.append(dyn.old_dest_tag)
