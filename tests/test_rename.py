"""Unit + property tests for both renaming schemes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ClockPlan, FlywheelConfig
from repro.core.sim import default_config, generate_program, get_kind
from repro.errors import ConfigError, SimulationError
from repro.isa.registers import NUM_ARCH_REGS, ZERO_REG
from repro.rename.pools import PoolFile
from repro.rename.r10k import R10KRenamer
from repro.rename.redistribution import RedistributionController
from repro.rename.two_phase import TwoPhaseRenamer
from repro.workloads.profiles import get_profile
from repro.workloads.stream import InstructionStream


class TestR10K:
    """R10K renaming happens in ``BaselineCore._do_rename``; these check
    what a legacy baseline run committed (the ``legacy_run`` fixture)."""

    def test_too_small(self):
        with pytest.raises(ConfigError):
            R10KRenamer(32)

    def test_rename_allocates_fresh_tag(self, legacy_run):
        previous = {}
        for dyn in legacy_run("baseline", "gcc").committed:
            if dyn.dest is None or dyn.dest == ZERO_REG:
                continue
            assert dyn.dest_tag != dyn.old_dest_tag
            if dyn.dest in previous:
                # The displaced mapping is the previous write's tag.
                assert dyn.old_dest_tag == previous[dyn.dest]
            previous[dyn.dest] = dyn.dest_tag
        assert previous

    def test_zero_reg_not_renamed(self, legacy_run):
        unrenamed = [d for d in legacy_run("baseline", "gcc").committed
                     if d.dest is None or d.dest == ZERO_REG]
        assert unrenamed
        assert all(d.dest_tag == -1 and d.old_dest_tag == -1
                   for d in unrenamed)

    @staticmethod
    def _assert_tags_conserved(cap):
        """Free list + map table + the previous mappings still held by
        renamed, uncommitted instructions are every physical tag exactly
        once: the retire hook frees each displaced tag once, leaks none,
        and never frees the zero register's tag 0."""
        renamer = cap.core.renamer
        held = [d.old_dest_tag for d in cap.in_flight if d.old_dest_tag > 0]
        assert held   # the run ends with renamed writes in flight
        tags = list(renamer._free) + list(renamer._map) + held
        assert sorted(tags) == list(range(renamer.phys_regs))

    def test_free_list_recycles(self, legacy_run):
        for kind in ("baseline", "pipelined_wakeup"):
            self._assert_tags_conserved(legacy_run(kind, "gcc"))

    def test_exhaustion(self, legacy_run):
        """Eight rename registers: rename stalls on the empty free list
        (instead of failing) and the tags are still conserved."""
        cap = legacy_run("baseline", "gcc", phys_regs=NUM_ARCH_REGS + 8)
        roomy = legacy_run("baseline", "gcc")
        assert cap.core.stats.committed == roomy.core.stats.committed
        assert (cap.core.stats.total_be_cycles
                > roomy.core.stats.total_be_cycles)
        self._assert_tags_conserved(cap)


def test_r10k_no_tag_aliasing(legacy_run):
    """Renamed, uncommitted destinations hold distinct tags, none of them
    on the free list."""
    cap = legacy_run("baseline", "vortex")
    live = [d.dest_tag for d in cap.in_flight if d.dest_tag >= 0]
    assert live
    assert len(set(live)) == len(live)
    assert not set(live) & set(cap.core.renamer._free)


class TestPoolFile:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            PoolFile(500, 8)   # 500 not divisible by 64

    def test_capacity_rule(self, legacy_run):
        """Pools of two: one in-flight write per register. Rename and
        replay allocation stall (and count it) instead of overflowing."""
        fly = FlywheelConfig(pool_regs=128, default_pool_size=2,
                             min_pool_size=1, redistribution_enabled=False)
        cap = legacy_run("flywheel", "gcc", fly=fly)
        assert cap.core.stats.committed == len(cap.committed)
        assert cap.core.stats.rename_pool_stalls > 0
        pools = cap.core.pools
        assert all(0 <= n <= size - 1
                   for n, size in zip(pools.inflight, pools.sizes))

    def test_underflow_guard(self):
        """The retire stage refuses to release a write never allocated."""
        config = default_config("flywheel").with_variant(engine="legacy")
        stream = InstructionStream(generate_program(get_profile("smoke")))
        core = get_kind("flywheel").core_cls(config, FlywheelConfig(),
                                             ClockPlan(), stream)
        core.run(500)
        assert any(core.pools.inflight)
        core.pools.inflight[:] = [0] * NUM_ARCH_REGS
        with pytest.raises(SimulationError, match="pool underflow"):
            core.run(1500)

    def test_phys_mapping_within_pool(self):
        """Each register's pool is a contiguous block; the blocks tile
        the register file in register order."""
        pools = PoolFile(512, 8)
        end = 0
        for arch in range(NUM_ARCH_REGS):
            assert pools.bases[arch] == end
            end += pools.sizes[arch]
        assert end == 512

    def test_apply_sizes_requires_drained(self):
        pools = PoolFile(512, 8)
        pools.inflight[1] = 1    # one renamed write not yet retired
        with pytest.raises(SimulationError):
            pools.apply_sizes([8] * NUM_ARCH_REGS)

    def test_apply_sizes_budget(self):
        pools = PoolFile(512, 8)
        with pytest.raises(ConfigError):
            pools.apply_sizes([9] * NUM_ARCH_REGS)


@settings(max_examples=20, deadline=None)
@given(grow=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                     min_size=0, max_size=40))
def test_pool_phys_disjoint_across_registers(grow):
    """Pools never overlap in the physical file, whatever the geometry."""
    pools = PoolFile(512, 8, min_pool_size=2, max_pool_size=32)
    sizes = list(pools.sizes)
    for winner, loser in grow:   # move one entry at a time, budget-neutral
        if winner != loser and sizes[winner] < 32 and sizes[loser] > 2:
            sizes[winner] += 1
            sizes[loser] -= 1
    pools.apply_sizes(sizes)
    seen = set()
    for arch in range(NUM_ARCH_REGS):
        for slot in range(pools.sizes[arch]):
            p = pools.bases[arch] + slot
            assert p not in seen
            seen.add(p)
    assert len(seen) == 512


class TestTwoPhase:
    """The checkpoint operations on the renaming state. The per-instruction
    phases run in ``FlywheelCore.run``; ``test_rename_invariants.py``
    checks them on a real run."""

    def test_reset_lids(self):
        rn = TwoPhaseRenamer()
        rn._lid[5] = 3
        rn._lid[9] = 1
        rn.reset_lids()
        assert rn._lid == [0] * NUM_ARCH_REGS

    def test_update_maps_into_pool(self, legacy_run):
        """Register Update puts every source and destination tag of a
        committed instruction inside its register's pool."""
        cap = legacy_run("flywheel", "gcc")
        pools = cap.core.pools
        checked = 0
        for dyn in cap.committed:
            pairs = list(zip(dyn.srcs, dyn.src_tags))
            if dyn.dest is not None and dyn.dest != ZERO_REG:
                pairs.append((dyn.dest, dyn.dest_tag))
            for arch, tag in pairs:
                assert (pools.bases[arch] <= tag
                        < pools.bases[arch] + pools.sizes[arch])
                checked += 1
        assert checked > len(cap.committed)

    def test_frt_checkpoint_rebases_lid0(self):
        """RT <- FRT: LID 0 now names the last retired value."""
        rn = TwoPhaseRenamer()
        rn._frt[5] = 3           # the retire stage advanced the FRT
        rn.checkpoint_from_frt()
        assert rn._rt[5] == 3
        rn._frt[5] = 4           # later retirement leaves RT alone
        assert rn._rt[5] == 3

    def test_srt_checkpoint_rebases_before_retire(self):
        """RT <- SRT: LID 0 names the newest *updated* value, which has
        not retired (the FRT still points at the older one)."""
        rn = TwoPhaseRenamer()
        rn._srt[5] = 4           # Register Update recorded slot 4
        rn.checkpoint_from_srt()
        assert rn._rt[5] == 4
        assert rn._frt[5] == 0

    def test_srt_trace_guard(self):
        """After a squash the SRT restarts from the FRT with its trace
        guard re-armed, so the next trace's Updates may write it."""
        rn = TwoPhaseRenamer()
        rn._frt[5] = 2
        rn._srt[5] = 6
        rn._srt_trace[5] = 9
        rn.sync_srt_to_frt()
        assert rn._srt[5] == 2
        assert rn._srt_trace == [-1] * NUM_ARCH_REGS
        rn._frt[5] = 3           # a copy, not an alias of the FRT
        assert rn._srt[5] == 2


class TestRedistribution:
    def test_no_stalls_no_change(self):
        pools = PoolFile(512, 8)
        ctl = RedistributionController(pools, interval=100, penalty=10)
        assert ctl.check(100) is None

    def test_bottleneck_grows(self):
        pools = PoolFile(512, 8)
        ctl = RedistributionController(pools, interval=100, penalty=10)
        for _ in range(100):
            pools.note_stall(5)
        sizes = ctl.check(100)
        assert sizes is not None
        assert sizes[5] > 8
        assert sum(sizes) == 512

    def test_counters_reset_after_check(self):
        pools = PoolFile(512, 8)
        ctl = RedistributionController(pools, interval=100, penalty=10)
        for _ in range(100):
            pools.note_stall(5)
        ctl.check(100)
        assert pools.stall_counts[5] == 0

    def test_backoff(self):
        pools = PoolFile(512, 8)
        ctl = RedistributionController(pools, interval=100, penalty=10)
        for _ in range(100):
            pools.note_stall(5)
        assert ctl.check(100) is not None
        assert ctl.interval == 200

    def test_sizes_within_bounds(self):
        pools = PoolFile(512, 8, min_pool_size=2, max_pool_size=32)
        ctl = RedistributionController(pools, interval=100, penalty=10)
        for arch in (1, 2, 3):
            for _ in range(500):
                pools.note_stall(arch)
        sizes = ctl.check(100)
        assert sizes is not None
        for s in sizes:
            assert 2 <= s <= 32
