"""Static program representation: regions, basic blocks, control-flow graph.

A :class:`Program` is a closed synthetic unit of work: a list of basic
blocks wired by explicit block ids, a set of memory regions, and an entry
block. The generator lays blocks out at consecutive byte addresses (4 bytes
per instruction) so the instruction footprint seen by the I-cache and the
Execution Cache is a real, program-dependent quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import WorkloadError
from repro.isa import BranchKind, StaticInstr

INSTR_BYTES = 4


@dataclass(frozen=True)
class Region:
    """A contiguous memory region with a fixed size.

    ``rid`` is the index used by :class:`repro.isa.MemRef`; ``base`` is the
    starting byte address; ``size`` the length in bytes. Working-set size
    relative to the cache hierarchy determines hit rates.
    """

    rid: int
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"region {self.rid} has non-positive size")
        if self.base < 0:
            raise WorkloadError(f"region {self.rid} has negative base")


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions with explicit successors.

    If the last instruction is a control transfer, its targets define the
    successors; otherwise ``fall_block`` names the block executed next.
    """

    bid: int
    instrs: List[StaticInstr] = field(default_factory=list)
    fall_block: Optional[int] = None
    pc: int = 0  # assigned by Program.finalize()

    @property
    def terminator(self) -> Optional[StaticInstr]:
        """The control-transfer instruction ending the block, if any."""
        if self.instrs and self.instrs[-1].branch_kind != BranchKind.NONE:
            return self.instrs[-1]
        return None


@dataclass
class Program:
    """A synthetic program: blocks + regions + entry point."""

    name: str
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    regions: List[Region] = field(default_factory=list)
    entry: int = 0
    seed: int = 0
    _finalized: bool = False

    def add_block(self, block: BasicBlock) -> None:
        if self._finalized:
            # Finalized programs are shared between runs; see finalize().
            raise WorkloadError(
                f"program {self.name!r} is finalized; cannot add block "
                f"{block.bid}")
        if block.bid in self.blocks:
            raise WorkloadError(f"duplicate block id {block.bid}")
        self.blocks[block.bid] = block

    @property
    def num_static_instrs(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    @property
    def code_bytes(self) -> int:
        """Total instruction footprint in bytes."""
        return self.num_static_instrs * INSTR_BYTES

    def finalize(self) -> None:
        """Assign PCs and validate the control-flow graph.

        Must be called once after all blocks have been added; the walker
        refuses to run over a non-finalized program. A finalized program
        is read-only (simulations share one per workload and seed), so
        adding a block or finalizing again raises ``WorkloadError``.
        """
        if self._finalized:
            raise WorkloadError(f"program {self.name!r} is already finalized")
        pc = 0x1000  # leave page zero unused, as real loaders do
        for bid in sorted(self.blocks):
            block = self.blocks[bid]
            if not block.instrs:
                raise WorkloadError(f"block {bid} is empty")
            block.pc = pc
            pc += len(block.instrs) * INSTR_BYTES
        self._validate()
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized

    def _validate(self) -> None:
        if self.entry not in self.blocks:
            raise WorkloadError(f"entry block {self.entry} does not exist")
        region_ids = {r.rid for r in self.regions}
        for block in self.blocks.values():
            term = block.terminator
            for instr in block.instrs:
                if instr.mem is not None and instr.mem.region not in region_ids:
                    raise WorkloadError(
                        f"instr {instr.sid} references unknown region "
                        f"{instr.mem.region}"
                    )
                if instr.branch_kind != BranchKind.NONE and instr is not term:
                    raise WorkloadError(
                        f"branch {instr.sid} is not the last instruction of "
                        f"block {block.bid}"
                    )
            if term is None:
                if block.fall_block is None:
                    raise WorkloadError(
                        f"block {block.bid} has neither terminator nor fall_block"
                    )
                if block.fall_block not in self.blocks:
                    raise WorkloadError(
                        f"block {block.bid} falls to unknown block "
                        f"{block.fall_block}"
                    )
            else:
                self._validate_terminator(block, term)

    def _validate_terminator(self, block: BasicBlock, term: StaticInstr) -> None:
        kind = term.branch_kind
        if kind in (BranchKind.COND, BranchKind.UNCOND, BranchKind.CALL):
            if term.taken_target not in self.blocks:
                raise WorkloadError(
                    f"branch {term.sid} targets unknown block {term.taken_target}"
                )
        if kind in (BranchKind.COND, BranchKind.CALL):
            if term.fall_target not in self.blocks:
                raise WorkloadError(
                    f"branch {term.sid} falls to unknown block {term.fall_target}"
                )
        # RET needs no static targets: the walker's call stack supplies them.
