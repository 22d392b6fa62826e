"""Tests for the shared pipeline engine and the pipelined-wakeup kind."""

import gc
import weakref

import pytest

from repro.core.config import CoreConfig
from repro.core.engine import DeadlockWatchdog
from repro.core.pipelined import PipelinedWakeupCore
from repro.core.sim import KIND_PIPELINED_WAKEUP, build_core, default_config
from repro.errors import CampaignError, ConfigError, SimulationError
from repro.session import Session
from repro.workloads import InstructionStream, generate_program, get_profile


class TestDeadlockWatchdog:
    # The run loops inline the per-cycle check and call ``trip``; these
    # run the loops (the exact trip cycle is pinned in
    # tests/test_turbo_engine.py::TestSyncSkipAheadEdges).
    def test_progress_resets_window(self):
        # Far more cycles than the window: every commit restarts it.
        for kind in ("baseline", "flywheel"):
            result = Session().run_workload(
                kind, "smoke", max_instructions=3000, warmup=500,
                config=default_config(kind).with_variant(
                    deadlock_window=400))
            assert result.stats.total_be_cycles > 4 * 400

    def test_trips_after_window(self):
        config = CoreConfig(deadlock_window=10)
        with pytest.raises(SimulationError, match="no commit for 10 "):
            Session().run_workload("baseline", "pointer_chase",
                                   config=config, max_instructions=3000,
                                   warmup=1000)

    def test_describe_suffix(self):
        wd = DeadlockWatchdog(10)
        with pytest.raises(SimulationError, match="custom-detail"):
            wd.trip(11, 0, describe=lambda: " custom-detail")

    def test_rejects_bad_window(self):
        with pytest.raises(SimulationError):
            DeadlockWatchdog(0)


class TestDeadlockWindowConfig:
    def test_default_is_kind_specific(self):
        from repro.core.baseline import BaselineCore
        from repro.core.flywheel import FlywheelCore
        from repro.core.config import ClockPlan, FlywheelConfig

        prog = generate_program(get_profile("smoke"))
        base = BaselineCore(CoreConfig(), InstructionStream(prog))
        assert base.watchdog.window == 20_000
        fly = FlywheelCore(CoreConfig(phys_regs=512, regread_stages=2),
                           FlywheelConfig(), ClockPlan(),
                           InstructionStream(prog))
        assert fly.watchdog.window == 40_000

    def test_override_applies(self):
        from repro.core.baseline import BaselineCore

        prog = generate_program(get_profile("smoke"))
        core = BaselineCore(CoreConfig(deadlock_window=123),
                            InstructionStream(prog))
        assert core.watchdog.window == 123

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(deadlock_window=-1)


class TestPipelinedWakeupKind:
    def test_runs_and_commits(self):
        res = Session().run_workload(
            "pipelined_wakeup", "smoke", max_instructions=3000, warmup=500)
        assert res.kind == KIND_PIPELINED_WAKEUP
        assert res.stats.committed >= 3000

    def test_forces_pipelined_wakeup(self):
        # build_core normalizes the kind's config: an explicit
        # back-to-back config still builds the pipelined loop.
        core = build_core(KIND_PIPELINED_WAKEUP, "smoke",
                          config=CoreConfig())
        assert isinstance(core, PipelinedWakeupCore)
        assert core.config.wakeup_extra_delay == 1

    def test_matches_baseline_with_override(self):
        """The kind is exactly the baseline with the loop pipelined."""
        via_kind = Session().run_workload(
            "pipelined_wakeup", "gcc", max_instructions=4000, warmup=1000)
        via_config = Session().run_workload(
            "baseline", "gcc", config=CoreConfig(wakeup_extra_delay=1),
            max_instructions=4000, warmup=1000)
        assert (via_kind.stats.total_be_cycles
                == via_config.stats.total_be_cycles)
        assert via_kind.stats.issued == via_config.stats.issued

    def test_slower_than_baseline(self):
        base = Session().run_workload(
            "baseline", "gcc", max_instructions=6000, warmup=2000)
        ws = Session().run_workload(
            "pipelined_wakeup", "gcc", max_instructions=6000, warmup=2000)
        assert ws.stats.ipc < base.stats.ipc

    def test_campaign_spec_round_trip(self):
        from repro.campaign.spec import RunSpec

        spec = RunSpec(kind=KIND_PIPELINED_WAKEUP, bench="gcc",
                       instructions=2000, warmup=100)
        assert spec.config.wakeup_extra_delay == 1
        assert spec.variant() == {}          # the kind default, not a diff
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_spec_rejects_fly_config(self):
        from repro.campaign.spec import RunSpec
        from repro.core.config import FlywheelConfig

        with pytest.raises(CampaignError):
            RunSpec(kind=KIND_PIPELINED_WAKEUP, bench="gcc",
                    fly=FlywheelConfig())

    def test_spec_executes(self):
        from repro.campaign.spec import RunSpec

        spec = RunSpec(kind=KIND_PIPELINED_WAKEUP, bench="smoke",
                       instructions=1500, warmup=200)
        result = spec.execute()
        assert result.kind == KIND_PIPELINED_WAKEUP
        assert result.stats.committed >= 1500


class TestEngineComposition:
    def test_cores_share_engine_structures(self):
        """The re-exposed rob/lsq/fu aliases are the engine's objects."""
        from repro.core.baseline import BaselineCore

        prog = generate_program(get_profile("smoke"))
        core = BaselineCore(CoreConfig(), InstructionStream(prog))
        assert core.rob is core.be.rob
        assert core.lsq is core.be.lsq
        assert core.fu is core.be.fu

    def test_finished_core_is_freed_without_the_cycle_collector(self):
        # No structure refers back to its core, so a finished core and
        # its caches go as soon as its result does, not at the next
        # cyclic collection.
        for kind in ("baseline", "pipelined_wakeup", "flywheel"):
            result = Session().run_workload(kind, "smoke",
                                            max_instructions=500, warmup=200)
            core = weakref.ref(result.core)
            gc.disable()
            try:
                del result
                assert core() is None, kind
            finally:
                gc.enable()

    def test_second_run_is_refused(self):
        """The loop state lives in ``run``: a second call on one core
        fails at once instead of deadlocking on the first run's ROB."""
        from repro.core.baseline import BaselineCore

        prog = generate_program(get_profile("smoke"))
        core = BaselineCore(CoreConfig(), InstructionStream(prog))
        core.run(500)
        with pytest.raises(SimulationError, match="runs once"):
            core.run(1500)

    def test_backend_events_drain(self):
        """After a run stops, no wake/done event is stranded in the past."""
        from repro.core.baseline import BaselineCore

        prog = generate_program(get_profile("smoke"))
        core = BaselineCore(CoreConfig(), InstructionStream(prog))
        core.run(2000, warmup=500)
        for cyc in core.be.wake_events:
            assert cyc >= core.cycle
        for cyc in core.be.done_events:
            assert cyc >= core.cycle
