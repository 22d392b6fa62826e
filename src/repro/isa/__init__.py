"""Instruction-set model used by the simulated cores.

The ISA is deliberately abstract: instructions carry the information the
timing and power models need (operation class, register dependencies,
memory address, branch outcome) without data values. This mirrors the
level of detail of trace-driven performance simulators.
"""

from repro.isa.opclasses import (
    OpClass,
    EXEC_LATENCY,
    FU_KIND,
    FuKind,
    is_memory,
    is_branch,
)
from repro.isa.registers import (
    NUM_INT_REGS,
    NUM_FP_REGS,
    NUM_ARCH_REGS,
    INT_REG_BASE,
    FP_REG_BASE,
    ZERO_REG,
)
from repro.isa.instruction import (
    BranchKind,
    MemRef,
    BranchSpec,
    StaticInstr,
    DynInstr,
)

__all__ = [
    "OpClass",
    "EXEC_LATENCY",
    "FU_KIND",
    "FuKind",
    "is_memory",
    "is_branch",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "NUM_ARCH_REGS",
    "INT_REG_BASE",
    "FP_REG_BASE",
    "ZERO_REG",
    "BranchKind",
    "MemRef",
    "BranchSpec",
    "StaticInstr",
    "DynInstr",
]
