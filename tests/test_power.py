"""Tests for the power/energy models."""

import pytest

from repro.core.config import ClockPlan
from repro.errors import ConfigError
from repro.power import (
    ACCESS_ENERGY_PJ,
    TECH_130,
    TECH_60,
    TECH_90,
    TECH_180,
    TechNode,
    clock_energy_pj,
    dynamic_energy_pj,
    energy_report,
    leakage_power_w,
)
from repro.power.leakage import baseline_structures, flywheel_structures
from repro.session import Session


class TestTechnology:
    def test_vdd_above_vt(self):
        with pytest.raises(ConfigError):
            TechNode("bad", 0.13, vdd=0.2, vt=0.3, leak_na_per_device=1)

    def test_dynamic_energy_shrinks_with_node(self):
        assert TECH_60.dyn_scale < TECH_90.dyn_scale < TECH_130.dyn_scale

    def test_leakage_grows_with_node_shrink(self):
        assert (TECH_90.leak_na_per_device > TECH_130.leak_na_per_device
                > TECH_180.leak_na_per_device)


class TestDynamicEnergy:
    def test_counts_times_energy(self):
        e = dynamic_energy_pj({"fu_op": 10}, TECH_180)
        assert e["fu_op"] == pytest.approx(10 * ACCESS_ENERGY_PJ["fu_op"])

    def test_unknown_events_ignored(self):
        assert dynamic_energy_pj({"martian_op": 5}, TECH_130) == {}

    def test_flywheel_rf_premium(self):
        small = dynamic_energy_pj({"rf_read": 100}, TECH_130)
        big = dynamic_energy_pj({"rf_read": 100}, TECH_130, flywheel_rf=True)
        assert big["rf_read"] > small["rf_read"]


class TestLeakage:
    def test_static_power_ordering(self):
        base = baseline_structures()
        assert (leakage_power_w(TECH_90, base)
                > leakage_power_w(TECH_130, base))

    def test_flywheel_leaks_more_devices(self):
        assert (sum(flywheel_structures().values())
                > sum(baseline_structures().values()))


class TestClockTree:
    def test_gated_fe_saves(self):
        busy = clock_energy_pj(TECH_130, 1000, fe_active_cycles=1000,
                               be_cycles=1000)
        gated = clock_energy_pj(TECH_130, 1000, fe_active_cycles=100,
                                be_cycles=1000)
        assert gated < busy


class TestEnergyReport:
    @pytest.fixture(scope="class")
    def runs(self):
        rb = Session().run_workload(
            "baseline", "mesa", max_instructions=15000, warmup=40000)
        rf = Session().run_workload(
            "flywheel", "mesa",
            clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5),
            max_instructions=15000, warmup=40000)
        return rb, rf

    def test_breakdown_sums(self, runs):
        rb, _rf = runs
        rep = energy_report(rb, TECH_130)
        assert rep.total_pj == pytest.approx(
            rep.dynamic_pj + rep.clock_pj + rep.static_pj)
        assert rep.power_w > 0

    def test_flywheel_saves_energy_on_loopy_code(self, runs):
        rb, rf = runs
        eb = energy_report(rb, TECH_130)
        ef = energy_report(rf, TECH_130)
        assert ef.total_pj < eb.total_pj

    def test_static_fraction_grows_with_shrink(self, runs):
        rb, _rf = runs
        fractions = [energy_report(rb, t).static_fraction
                     for t in (TECH_130, TECH_90, TECH_60)]
        assert fractions == sorted(fractions)

    def test_savings_shrink_with_node(self, runs):
        """Fig. 15's trend: relative energy creeps up as leakage grows."""
        rb, rf = runs
        ratios = []
        for tech in (TECH_130, TECH_90, TECH_60):
            eb = energy_report(rb, tech)
            ef = energy_report(rf, tech)
            ratios.append(ef.total_pj / eb.total_pj)
        assert ratios[0] <= ratios[1] <= ratios[2] + 0.02
