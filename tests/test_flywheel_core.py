"""Integration tests for the Flywheel core (dual clock + Execution Cache)."""

import pytest

from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.flywheel import FlywheelCore
from repro.core.sim import default_config
from repro.obs.spec import TraceSpec
from repro.session import Session
from repro.workloads import InstructionStream, generate_program, get_profile


def _core(name="smoke", clock=None, fly=None, config=None):
    prog = generate_program(get_profile(name))
    return FlywheelCore(
        config or CoreConfig(phys_regs=512, regread_stages=2),
        fly or FlywheelConfig(),
        clock or ClockPlan(),
        InstructionStream(prog))


class TestFlywheelProgress:
    def test_commits_requested(self):
        core = _core()
        stats = core.run(4000, warmup=2000)
        assert stats.committed >= 4000

    def test_deterministic(self):
        s1 = _core().run(4000, warmup=1000)
        s2 = _core().run(4000, warmup=1000)
        assert s1.total_be_cycles == s2.total_be_cycles
        assert s1.trace_hits == s2.trace_hits

    def test_time_advances(self):
        stats = _core().run(3000, warmup=1000)
        assert stats.sim_time_ps > 0

    def test_architectural_equivalence_with_baseline(self):
        """Both cores must commit the exact same instruction stream."""
        retired = []
        for kind in ("baseline", "flywheel"):
            config = default_config(kind).with_variant(
                engine="legacy",
                trace=TraceSpec(buffer=1 << 14, events=("retire",)))
            result = Session().run_workload(kind, "smoke", config=config,
                                            max_instructions=4000, warmup=0)
            retired.append([seq for _c, _k, seq, _i
                            in result.trace["events"]])
        n = min(map(len, retired))
        assert n >= 4000
        assert retired[0][:n] == retired[1][:n] == list(range(n))


class TestTraceMachinery:
    def test_builds_and_replays_traces(self):
        core = _core("ijpeg")
        stats = core.run(15000, warmup=8000)
        assert stats.traces_built > 0
        assert stats.trace_hits > 0
        assert stats.instrs_from_ec > 0

    def test_ec_residency_bounds(self):
        core = _core("ijpeg")
        stats = core.run(15000, warmup=8000)
        assert 0.0 < stats.ec_residency < 1.0
        assert (stats.be_cycles_create + stats.be_cycles_execute
                == stats.total_be_cycles)

    def test_ec_disabled_never_replays(self):
        core = _core("ijpeg", fly=FlywheelConfig(ec_enabled=False))
        stats = core.run(8000, warmup=2000)
        assert stats.trace_hits == 0
        assert stats.be_cycles_execute == 0
        assert stats.instrs_from_ec == 0

    def test_loopy_code_has_high_residency(self):
        core = _core("mesa")
        stats = core.run(20000, warmup=30000)
        assert stats.ec_residency > 0.5

    def test_fe_gated_only_in_execute_mode(self):
        core = _core("ijpeg")
        stats = core.run(15000, warmup=8000)
        if stats.be_cycles_execute > 0:
            assert stats.fe_cycles_gated > 0

    def test_srt_fast_switches_happen(self):
        core = _core("mesa")
        stats = core.run(20000, warmup=30000)
        assert stats.srt_switches > 0

    def test_no_srt_still_correct(self):
        core = _core("ijpeg", fly=FlywheelConfig(use_srt=False))
        stats = core.run(8000, warmup=2000)
        assert stats.committed >= 8000
        assert stats.srt_switches == 0


class TestClockScaling:
    def test_faster_backend_improves_time(self):
        slow = _core("mesa", clock=ClockPlan()).run(12000, warmup=20000)
        fast = _core("mesa", clock=ClockPlan(be_speedup=0.5)).run(
            12000, warmup=20000)
        assert fast.sim_time_ps < slow.sim_time_ps

    def test_faster_frontend_never_pathological(self):
        base = _core("gcc", clock=ClockPlan()).run(8000, warmup=4000)
        fe = _core("gcc", clock=ClockPlan(fe_speedup=1.0)).run(
            8000, warmup=4000)
        assert fe.sim_time_ps < base.sim_time_ps * 1.15

    def test_dram_scaling_with_fast_backend(self):
        """A 50% faster back-end must see more DRAM cycles, not fewer."""
        plan = ClockPlan(be_speedup=0.5)
        assert plan.mem_scale(plan.be_fast_mhz) == pytest.approx(1.5)


class TestRedistribution:
    def test_redistribution_fires_under_pressure(self):
        core = _core("vpr", fly=FlywheelConfig(redistribution_interval=2000))
        stats = core.run(15000, warmup=5000)
        assert stats.redistributions >= 1

    def test_redistribution_disabled(self):
        core = _core("vpr",
                     fly=FlywheelConfig(redistribution_enabled=False))
        stats = core.run(8000, warmup=2000)
        assert stats.redistributions == 0

    def test_pool_sizes_stay_budgeted(self):
        core = _core("vpr", fly=FlywheelConfig(redistribution_interval=2000))
        core.run(15000, warmup=5000)
        assert sum(core.pools.sizes) == 512


class TestPowerEvents:
    def test_flywheel_specific_events(self):
        core = _core("ijpeg")
        stats = core.run(15000, warmup=8000)
        for event in ("update_op", "sync_fifo_push", "ec_ta_lookup",
                      "ec_block_write"):
            assert stats.events[event] > 0, event

    def test_mode_switches_counted(self):
        core = _core("ijpeg")
        stats = core.run(15000, warmup=8000)
        assert stats.events["mode_switch"] > 0
