"""Unit + property tests for the synthetic workload substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.isa import BranchKind, OpClass
from repro.workloads import (
    PROFILES,
    SPEC_NAMES,
    InstructionStream,
    Program,
    WorkloadProfile,
    generate_program,
    get_profile,
)
from repro.workloads.cfg import INSTR_BYTES, BasicBlock, Region


class TestProfiles:
    def test_all_spec_benchmarks_present(self):
        for name in SPEC_NAMES:
            assert name in PROFILES

    def test_get_profile_unknown(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_profile("doom")

    def test_fraction_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="bad", load_frac=1.5)

    def test_hot_warm_budget(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="bad", hot_frac=0.8, warm_frac=0.4)

    def test_range_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="bad", loop_trip=(8, 4))


class TestGenerator:
    def test_deterministic(self):
        p1 = generate_program(get_profile("smoke"))
        p2 = generate_program(get_profile("smoke"))
        assert p1.num_static_instrs == p2.num_static_instrs
        assert sorted(p1.blocks) == sorted(p2.blocks)

    def test_seed_changes_program(self):
        p1 = generate_program(get_profile("smoke"), seed=1)
        p2 = generate_program(get_profile("smoke"), seed=2)
        # Same structure family but different contents almost surely.
        i1 = [i.op for b in p1.blocks.values() for i in b.instrs]
        i2 = [i.op for b in p2.blocks.values() for i in b.instrs]
        assert i1 != i2

    def test_every_spec_program_is_valid(self):
        for name in SPEC_NAMES:
            prog = generate_program(get_profile(name))
            assert prog.finalized
            assert prog.num_static_instrs > 50

    def test_vortex_has_biggest_code(self):
        sizes = {name: generate_program(get_profile(name)).code_bytes
                 for name in SPEC_NAMES}
        assert max(sizes, key=sizes.get) == "vortex"

    def test_three_regions(self):
        prog = generate_program(get_profile("smoke"))
        assert len(prog.regions) == 3


class TestProgramValidation:
    def test_empty_block_rejected(self):
        prog = Program(name="t")
        prog.add_block(BasicBlock(bid=0))
        with pytest.raises(WorkloadError):
            prog.finalize()

    def test_duplicate_block_rejected(self):
        prog = Program(name="t")
        prog.add_block(BasicBlock(bid=0))
        with pytest.raises(WorkloadError):
            prog.add_block(BasicBlock(bid=0))

    def test_finalized_program_is_read_only(self):
        prog = generate_program(get_profile("smoke"))
        blocks = dict(prog.blocks)
        with pytest.raises(WorkloadError, match="finalized"):
            prog.add_block(BasicBlock(bid=max(prog.blocks) + 1))
        with pytest.raises(WorkloadError, match="already finalized"):
            prog.finalize()
        assert prog.blocks == blocks and prog.finalized

    def test_region_validation(self):
        with pytest.raises(WorkloadError):
            Region(rid=0, base=0, size=0)


class TestStream:
    def test_requires_finalized(self):
        prog = Program(name="t")
        with pytest.raises(WorkloadError):
            InstructionStream(prog)

    def test_program_order_sequence(self):
        prog = generate_program(get_profile("smoke"))
        stream = InstructionStream(prog)
        seqs = [next(stream).seq for _ in range(500)]
        assert seqs == list(range(500))

    def test_deterministic_stream(self):
        prog = generate_program(get_profile("smoke"))
        s1 = [d.pc for d in _take(InstructionStream(prog), 2000)]
        s2 = [d.pc for d in _take(InstructionStream(prog), 2000)]
        assert s1 == s2

    def test_pc_continuity(self):
        """The next instruction's PC always equals the previous next_pc."""
        prog = generate_program(get_profile("smoke"))
        stream = InstructionStream(prog)
        prev = next(stream)
        for _ in range(3000):
            cur = next(stream)
            assert cur.pc == prev.next_pc
            prev = cur

    def test_loop_trip_counts(self):
        """A loop branch with trip N is taken exactly N-1 times per entry."""
        prog = generate_program(get_profile("smoke"))
        stream = InstructionStream(prog)
        outcomes = {}
        for _ in range(20000):
            dyn = next(stream)
            if dyn.branch_kind == BranchKind.COND:
                outcomes.setdefault(dyn.sid, []).append(dyn.taken)
        # find a deterministic loop branch in the static program
        loops = {}
        for block in prog.blocks.values():
            term = block.terminator
            if term is not None and term.branch is not None \
                    and term.branch.loop_trip > 0:
                loops[term.sid] = term.branch.loop_trip
        assert loops, "smoke program should contain loops"
        for sid, trip in loops.items():
            seen = outcomes.get(sid)
            if not seen or len(seen) < trip:
                continue
            # Within each full loop execution: trip-1 takens then one fall.
            first_fall = seen.index(False)
            assert first_fall == trip - 1

    def test_memory_addresses_in_regions(self):
        prog = generate_program(get_profile("smoke"))
        stream = InstructionStream(prog)
        regions = {r.rid: r for r in prog.regions}
        for _ in range(5000):
            dyn = next(stream)
            if dyn.mem_addr is not None:
                assert any(r.base <= dyn.mem_addr < r.base + r.size
                           for r in regions.values())


def _take(stream, n):
    return [next(stream) for _ in range(n)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_any_seed_generates_valid_program(seed):
    prog = generate_program(get_profile("smoke"), seed=seed)
    stream = InstructionStream(prog)
    prev = next(stream)
    for _ in range(300):
        cur = next(stream)
        assert cur.pc == prev.next_pc
        assert cur.seq == prev.seq + 1
        prev = cur


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_block_pcs_are_disjoint(seed):
    prog = generate_program(get_profile("smoke"), seed=seed)
    spans = sorted((b.pc, b.pc + len(b.instrs) * INSTR_BYTES)
                   for b in prog.blocks.values())
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2
