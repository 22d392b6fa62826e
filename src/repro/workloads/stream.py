"""Architectural walker: executes a synthetic program in program order.

The :class:`InstructionStream` is the oracle for the cycle-level cores: it
yields :class:`~repro.isa.DynInstr` instances in committed program order,
resolving loop counters, Bernoulli branch outcomes, call/return stacks and
memory addresses deterministically from the program's seed.

Cores consume the stream to drive fetch (trace-creation mode) or trace
replay (trace-execution mode); because wrong paths are modelled as timing
penalties rather than executed instructions, the stream never needs to be
rolled back.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.errors import SimulationError, WorkloadError
from repro.isa import BranchKind, DynInstr
from repro.workloads.cfg import INSTR_BYTES, BasicBlock, Program

#: Call-stack depth limit; the generated dispatcher/function structure never
#: nests deeper than one call, so hitting this indicates a CFG bug.
_MAX_CALL_DEPTH = 64


class InstructionStream:
    """Endless iterator of dynamic instructions in program order."""

    def __init__(self, program: Program, seed: int = 0):
        if not program.finalized:
            raise WorkloadError("program must be finalized before streaming")
        self.program = program
        #: Stream-level seed (not the program's): recorded so pooled
        #: replays (the turbo engine's SoA precompute) can construct an
        #: identical walker from scratch.
        self.seed = seed
        self._rng = random.Random((program.seed << 16) ^ seed)
        self._loop_counters: Dict[int, int] = {}
        self._mem_cursors: Dict[int, int] = {}
        self._call_stack: List[int] = []
        self._block: BasicBlock = program.blocks[program.entry]
        self._idx = 0
        self._seq = 0
        self._regions = {r.rid: r for r in program.regions}
        # Warm-region recency model: addresses are drawn mostly from a ring
        # of recently touched lines sized beyond the L1 but within the L2,
        # so the steady-state L1-miss/L2-hit behaviour of a mid-sized
        # working set appears at any run length (a pure strided walk would
        # never revisit a line within a short run, turning every access
        # into a compulsory DRAM miss the paper's workloads do not have).
        self._warm_ring: list = []
        self._warm_ring_cap = 3072        # x 32B lines = 96 KiB footprint
        self._warm_cursor = 0

    def __iter__(self) -> Iterator[DynInstr]:
        return self

    def __next__(self) -> DynInstr:
        return self.next_instr()

    def next_instr(self) -> DynInstr:
        """Produce the next dynamic instruction in program order."""
        block = self._block
        idx = self._idx
        static = block.instrs[idx]
        pc = block.pc + idx * INSTR_BYTES

        # Positional construction (seq, pc, op, dest, srcs, sid, mem_addr,
        # branch_kind): this runs once per dynamic instruction and kwargs
        # dispatch on a 19-field dataclass is measurable at that rate.
        dyn = DynInstr(self._seq, pc, static.op, static.dest, static.srcs,
                       static.sid, None, static.branch_kind)
        self._seq += 1

        if static.mem is not None:
            dyn.mem_addr = self._resolve_addr(static)

        if static.branch_kind != BranchKind.NONE:
            self._resolve_branch(dyn, static, block)
        elif idx + 1 < len(block.instrs):
            dyn.fall_pc = pc + INSTR_BYTES
            self._idx = idx + 1
        else:
            nxt = self.program.blocks[block.fall_block]
            dyn.fall_pc = nxt.pc
            self._block = nxt
            self._idx = 0
        return dyn

    # ------------------------------------------------------------ internal

    def _enter(self, bid: int) -> None:
        self._block = self.program.blocks[bid]
        self._idx = 0

    def _resolve_branch(self, dyn: DynInstr, static, block: BasicBlock) -> None:
        kind = static.branch_kind
        blocks = self.program.blocks

        if kind == BranchKind.COND:
            spec = static.branch
            if spec.loop_trip > 0:
                count = self._loop_counters.get(static.sid, 0) + 1
                if count < spec.loop_trip:
                    self._loop_counters[static.sid] = count
                    dyn.taken = True
                else:
                    self._loop_counters[static.sid] = 0
                    dyn.taken = False
            else:
                dyn.taken = self._rng.random() < spec.taken_prob
            dyn.target_pc = blocks[static.taken_target].pc
            dyn.fall_pc = blocks[static.fall_target].pc
            self._enter(static.taken_target if dyn.taken else static.fall_target)

        elif kind == BranchKind.UNCOND:
            dyn.taken = True
            dyn.target_pc = blocks[static.taken_target].pc
            dyn.fall_pc = dyn.pc + INSTR_BYTES
            self._enter(static.taken_target)

        elif kind == BranchKind.CALL:
            if len(self._call_stack) >= _MAX_CALL_DEPTH:
                raise SimulationError("call stack overflow in synthetic program")
            dyn.taken = True
            dyn.target_pc = blocks[static.taken_target].pc
            dyn.fall_pc = blocks[static.fall_target].pc
            self._call_stack.append(static.fall_target)
            self._enter(static.taken_target)

        elif kind == BranchKind.RET:
            if not self._call_stack:
                raise SimulationError("return with empty call stack")
            ret_bid = self._call_stack.pop()
            dyn.taken = True
            dyn.target_pc = blocks[ret_bid].pc
            dyn.fall_pc = dyn.pc + INSTR_BYTES
            self._enter(ret_bid)

        else:  # pragma: no cover - enum is exhaustive
            raise SimulationError(f"unknown branch kind {kind}")

    _WARM_REGION = 1

    def _resolve_addr(self, static) -> int:
        mem = static.mem
        region = self._regions[mem.region]
        if mem.region == self._WARM_REGION:
            return self._warm_addr(region)
        if mem.random:
            slots = max(1, region.size // mem.stride)
            return region.base + self._rng.randrange(slots) * mem.stride
        if mem.stream:
            # One cursor per region (keyed negatively so it can never
            # collide with a static sid): all streaming accesses advance
            # the same front, like a copy kernel marching its buffers.
            key = -1 - mem.region
            cursor = self._mem_cursors.get(key, 0)
            self._mem_cursors[key] = cursor + 1
            return region.base + (cursor * mem.stride) % region.size
        cursor = self._mem_cursors.get(static.sid, 0)
        self._mem_cursors[static.sid] = cursor + 1
        return region.base + (cursor * mem.stride) % region.size

    def _warm_addr(self, region) -> int:
        """L2-resident working set: mostly ring reuse, some fresh lines.

        The ring is prepopulated to its full span at first use — the
        program conceptually ran long before measurement starts — so the
        working set exceeds the L1 and fits the L2 from the first access,
        independent of how short the simulated window is.
        """
        ring = self._warm_ring
        if not ring:
            cap = min(self._warm_ring_cap, max(1, region.size // 32))
            ring.extend(region.base + (i * 32) % region.size
                        for i in range(cap))
            self._warm_cursor = cap
        if self._rng.random() < 0.90:
            addr = ring[self._rng.randrange(len(ring))]
        else:
            addr = region.base + (self._warm_cursor * 32) % region.size
            self._warm_cursor += 1
            ring[self._warm_cursor % len(ring)] = addr
        return addr
