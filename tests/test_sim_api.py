"""Tests for the high-level simulation API and package surface."""

import runpy
from pathlib import Path

import pytest

import repro
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.errors import ConfigError
from repro.session import Session
from repro.workloads import generate_program, get_profile


class TestPackageSurface:
    def test_version(self, monkeypatch):
        assert repro.__version__
        # The distribution and the package report one version number.
        setuptools = pytest.importorskip("setuptools")
        captured = {}
        monkeypatch.setattr(setuptools, "setup", captured.update)
        runpy.run_path(str(Path(__file__).resolve().parents[1]
                           / "setup.py"))
        assert captured["version"] == repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestRunApi:
    def test_accepts_benchmark_name(self):
        res = Session().run_workload(
            "baseline", "smoke", max_instructions=2000, warmup=500)
        assert res.name == "smoke"
        assert res.stats.committed >= 2000

    def test_accepts_profile(self):
        res = Session().run_workload(
            "baseline", get_profile("smoke"), max_instructions=2000,
            warmup=500)
        assert res.stats.committed >= 2000

    def test_accepts_prebuilt_program(self):
        prog = generate_program(get_profile("smoke"))
        res = Session().run_workload(
            "flywheel", prog, max_instructions=2000, warmup=500)
        assert res.stats.committed >= 2000

    def test_sim_time_scales_with_clock(self):
        slow = Session().run_workload(
            "baseline", "smoke", clock=ClockPlan(base_mhz=950),
            max_instructions=3000, warmup=500)
        fast = Session().run_workload(
            "baseline", "smoke", clock=ClockPlan(base_mhz=1900),
            max_instructions=3000, warmup=500)
        # Same cycle count, half the period.
        assert fast.stats.sim_time_ps == pytest.approx(
            slow.stats.sim_time_ps / 2, rel=0.01)

    def test_seed_changes_result(self):
        a = Session().run_workload(
            "baseline", "smoke", max_instructions=3000, warmup=500, seed=1)
        b = Session().run_workload(
            "baseline", "smoke", max_instructions=3000, warmup=500, seed=2)
        assert a.stats.total_be_cycles != b.stats.total_be_cycles


class TestConfigValidation:
    def test_bad_width(self):
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=0)

    def test_too_few_phys_regs(self):
        with pytest.raises(ConfigError):
            CoreConfig(phys_regs=32)

    def test_iw_smaller_than_width(self):
        with pytest.raises(ConfigError):
            CoreConfig(iw_entries=2, issue_width=6)

    def test_with_variant(self):
        cfg = CoreConfig().with_variant(wakeup_extra_delay=1)
        assert cfg.wakeup_extra_delay == 1
        assert cfg.iw_entries == 128

    def test_clock_plan_percentages(self):
        plan = ClockPlan(base_mhz=1000, fe_speedup=1.0, be_speedup=0.5)
        assert plan.fe_mhz == pytest.approx(2000)
        assert plan.be_mhz == pytest.approx(1000)
        assert plan.be_fast_mhz == pytest.approx(1500)

    def test_ec_blocks_derived(self):
        fly = FlywheelConfig(ec_kb=128, ec_block_slots=8,
                             ec_bytes_per_slot=8)
        assert fly.ec_blocks == 2048


class TestDualClockVariants:
    def test_delay_network_variant_runs(self):
        from repro.core.flywheel import FlywheelCore
        from repro.workloads import InstructionStream
        prog = generate_program(get_profile("smoke"))
        core = FlywheelCore(CoreConfig(phys_regs=512, regread_stages=2),
                            FlywheelConfig(), ClockPlan(fe_speedup=0.5),
                            InstructionStream(prog))
        core.iw.delay_network = True
        stats = core.run(3000, warmup=500)
        assert stats.committed >= 3000

    def test_faster_fe_changes_cycle_split(self):
        eq = Session().run_workload(
            "flywheel", "smoke", clock=ClockPlan(fe_speedup=0.0),
            max_instructions=3000, warmup=500)
        fast = Session().run_workload(
            "flywheel", "smoke", clock=ClockPlan(fe_speedup=1.0),
            max_instructions=3000, warmup=500)
        # A 2x front-end clock ticks ~2x as often per unit time.
        fe_ratio = ((fast.stats.fe_cycles_active + fast.stats.fe_cycles_gated)
                    / max(1, fast.stats.total_be_cycles))
        eq_ratio = ((eq.stats.fe_cycles_active + eq.stats.fe_cycles_gated)
                    / max(1, eq.stats.total_be_cycles))
        assert fe_ratio > 1.5 * eq_ratio
