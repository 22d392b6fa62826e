"""Unit tests for the ISA layer."""

import pytest

from repro.isa import (
    EXEC_LATENCY,
    FU_KIND,
    BranchKind,
    BranchSpec,
    DynInstr,
    MemRef,
    OpClass,
    StaticInstr,
    is_branch,
    is_memory,
)
from repro.isa.opclasses import UNPIPELINED, FuKind
from repro.isa.registers import FP_REG_BASE, NUM_ARCH_REGS, NUM_INT_REGS


class TestOpClasses:
    def test_every_class_has_latency(self):
        for op in OpClass:
            assert EXEC_LATENCY[op] >= 1

    def test_every_class_has_fu(self):
        for op in OpClass:
            assert FU_KIND[op] in FuKind

    def test_divides_are_unpipelined(self):
        assert OpClass.INT_DIV in UNPIPELINED
        assert OpClass.FP_DIV in UNPIPELINED
        assert OpClass.INT_ALU not in UNPIPELINED

    def test_memory_predicate(self):
        assert is_memory(OpClass.LOAD)
        assert is_memory(OpClass.STORE)
        assert not is_memory(OpClass.INT_ALU)

    def test_branch_predicate(self):
        assert is_branch(OpClass.BRANCH)
        assert not is_branch(OpClass.LOAD)

    def test_loads_slower_than_alu(self):
        assert EXEC_LATENCY[OpClass.INT_DIV] > EXEC_LATENCY[OpClass.INT_MUL]
        assert EXEC_LATENCY[OpClass.INT_MUL] > EXEC_LATENCY[OpClass.INT_ALU]


class TestRegisters:
    def test_flat_space_layout(self):
        assert NUM_ARCH_REGS == NUM_INT_REGS + 32
        assert FP_REG_BASE == NUM_INT_REGS


class TestStaticInstr:
    def test_memory_requires_memref(self):
        with pytest.raises(ValueError):
            StaticInstr(sid=0, op=OpClass.LOAD, dest=5, srcs=(1,))

    def test_cond_requires_spec(self):
        with pytest.raises(ValueError):
            StaticInstr(sid=0, op=OpClass.BRANCH, srcs=(1,),
                        branch_kind=BranchKind.COND)

    def test_branch_requires_kind(self):
        with pytest.raises(ValueError):
            StaticInstr(sid=0, op=OpClass.BRANCH, srcs=(1,))

    def test_valid_load(self):
        instr = StaticInstr(sid=1, op=OpClass.LOAD, dest=8, srcs=(2,),
                            mem=MemRef(region=0))
        assert instr.mem.region == 0

    def test_valid_cond_branch(self):
        instr = StaticInstr(
            sid=2, op=OpClass.BRANCH, srcs=(3,),
            branch_kind=BranchKind.COND,
            branch=BranchSpec(loop_trip=4),
            taken_target=0, fall_target=1)
        assert instr.branch.loop_trip == 4


class TestDynInstr:
    def test_next_pc_taken(self):
        dyn = DynInstr(seq=0, pc=0x100, op=OpClass.BRANCH, dest=None,
                       srcs=(), sid=0, branch_kind=BranchKind.COND,
                       taken=True, target_pc=0x200, fall_pc=0x104)
        assert dyn.next_pc == 0x200

    def test_next_pc_not_taken(self):
        dyn = DynInstr(seq=0, pc=0x100, op=OpClass.BRANCH, dest=None,
                       srcs=(), sid=0, branch_kind=BranchKind.COND,
                       taken=False, target_pc=0x200, fall_pc=0x104)
        assert dyn.next_pc == 0x104

    def test_is_branch(self):
        dyn = DynInstr(seq=0, pc=0, op=OpClass.INT_ALU, dest=1, srcs=(),
                       sid=0)
        assert not dyn.is_branch
