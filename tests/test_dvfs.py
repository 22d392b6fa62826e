"""Tests for the adaptive clock governor subsystem (repro.dvfs).

Covers the config/ladder validation, the individual governor policies as
pure decision functions over synthetic telemetry, the controller
integration on all three core kinds (retunes happen, traces record them,
time accounting stays exact across frequency segments), and the campaign
plumbing (governed specs are distinct cache keys and round-trip through
JSON). The bit-exactness of the ``static`` governor is pinned separately
in test_golden_stats.py.
"""

import json

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.clocks.domain import mhz_to_period_ps
from repro.core.config import ClockPlan
from repro.core.stats import SimStats
from repro.dvfs import (
    EnergyBudgetGovernor,
    GovernorConfig,
    IntervalTelemetry,
    IpcLadderGovernor,
    OccupancyGovernor,
    StaticGovernor,
    make_governor,
)
from repro.errors import ConfigError
from repro.power import TECH_130, energy_report
from repro.session import Session

#: Small budgets so adaptive runs stay fast but still see many intervals.
_N, _W = 6000, 1500


def _plan(name, **kw):
    kw.setdefault("interval", 250)
    return ClockPlan(governor=GovernorConfig(name=name, **kw))


def _governed_key(governor):
    """Content address of a baseline gcc run under ``governor``."""
    return RunSpec(kind="baseline", bench="gcc",
                   clock=ClockPlan(governor=governor)).cache_key()


# --------------------------------------------------------------- config


class TestGovernorConfig:
    def test_rejects_unknown_name(self):
        with pytest.raises(ConfigError):
            GovernorConfig(name="overclock")

    def test_rejects_bad_ladder(self):
        with pytest.raises(ConfigError):
            GovernorConfig(scale_steps=())
        with pytest.raises(ConfigError):
            GovernorConfig(scale_steps=(1.0, 0.8))       # not ascending
        with pytest.raises(ConfigError):
            GovernorConfig(scale_steps=(0.5, 0.5, 1.0))  # duplicate
        with pytest.raises(ConfigError):
            GovernorConfig(scale_steps=(-1.0, 1.0))

    def test_rejects_bad_interval_tech_thresholds(self):
        with pytest.raises(ConfigError):
            GovernorConfig(interval=0)
        with pytest.raises(ConfigError):
            GovernorConfig(tech="7nm")
        with pytest.raises(ConfigError):
            GovernorConfig(occ_low=0.8, occ_high=0.4)
        with pytest.raises(ConfigError):
            GovernorConfig(budget_headroom=0.0)

    def test_start_index_snaps_to_nearest_rung(self):
        cfg = GovernorConfig(scale_steps=(0.5, 0.75, 1.0), start_scale=0.8)
        assert cfg.scale_steps[cfg.start_index] == 0.75

    def test_numeric_coercion_makes_equal_configs_hash_equal(self):
        a = GovernorConfig(scale_steps=[1, 1.5], start_scale=1)
        b = GovernorConfig(scale_steps=(1.0, 1.5), start_scale=1.0)
        assert a == b
        assert _governed_key(a) == _governed_key(b)

    def test_cache_key_sees_every_knob(self):
        base = _governed_key(GovernorConfig())
        assert base != _governed_key(GovernorConfig(interval=2000))
        assert base != _governed_key(GovernorConfig(occ_high=0.7))


class TestClockPlanGovernor:
    def test_plan_coerces_payload_dict(self):
        plan = ClockPlan(governor={"name": "occupancy", "interval": 123})
        assert isinstance(plan.governor, GovernorConfig)
        assert plan.governor.interval == 123

    def test_governed_plan_changes_cache_key(self):
        assert (RunSpec(kind="baseline", bench="gcc").cache_key()
                != _governed_key(GovernorConfig()))


# ------------------------------------------------------------- policies


def _telemetry(**kw):
    kw.setdefault("cycles", 250)
    kw.setdefault("time_ps", 250_000)
    kw.setdefault("committed", 500)
    return IntervalTelemetry(**kw)


class TestPolicies:
    def test_static_never_moves(self):
        gov = StaticGovernor(GovernorConfig())
        assert gov.decide(_telemetry(iw_occ=1.0)) == 0
        assert gov.decide(_telemetry(iw_occ=0.0)) == 0

    def test_occupancy_ratio_control(self):
        gov = OccupancyGovernor(GovernorConfig(name="occupancy"))
        assert gov.decide(_telemetry(iw_occ=0.9)) == +1
        assert gov.decide(_telemetry(iw_occ=0.05)) == -1
        assert gov.decide(_telemetry(iw_occ=0.4)) == 0

    def test_occupancy_sees_rob_pressure_when_window_bypassed(self):
        # EC replay: window empty, ROB backed up -> still "pressure up".
        gov = OccupancyGovernor(GovernorConfig(name="occupancy"))
        assert gov.decide(_telemetry(iw_occ=0.0, rob_occ=0.95)) == +1

    def test_ladder_reverses_on_worse_edp(self):
        gov = IpcLadderGovernor(GovernorConfig(name="ipc_ladder"))
        first = gov.decide(_telemetry(scale=1.0, energy_pj=1e6))
        assert first == -1                      # probes down from nominal
        # Much worse score at the lower rung: reverse to climbing.
        assert gov.decide(_telemetry(scale=0.9, energy_pj=5e6)) == +1

    def test_ladder_keeps_direction_while_improving(self):
        gov = IpcLadderGovernor(GovernorConfig(name="ipc_ladder"))
        gov.decide(_telemetry(scale=1.0, energy_pj=4e6))
        assert gov.decide(_telemetry(scale=0.9, energy_pj=3e6)) == -1

    def test_ladder_bounces_off_the_ends(self):
        cfg = GovernorConfig(name="ipc_ladder", scale_steps=(0.5, 1.0))
        gov = IpcLadderGovernor(cfg)
        gov.decide(_telemetry(scale=1.0, energy_pj=1e6))
        # Sitting on the bottom rung with a clearly improving score
        # (outside the hold band): must turn instead of pushing out.
        assert gov.decide(_telemetry(scale=0.5, energy_pj=0.5e6)) == +1

    def test_ladder_holds_without_progress(self):
        gov = IpcLadderGovernor(GovernorConfig(name="ipc_ladder"))
        assert gov.decide(_telemetry(committed=0, energy_pj=1e6)) == 0

    def test_ladder_settles_on_a_plateau(self):
        """Scores inside the margin band hold the rung: a settled climber
        stops retuning instead of oscillating once per interval."""
        gov = IpcLadderGovernor(GovernorConfig(name="ipc_ladder"))
        gov.decide(_telemetry(scale=1.0, energy_pj=1e6))
        moves = [gov.decide(_telemetry(scale=0.9, energy_pj=1.01e6))
                 for _ in range(5)]
        assert moves == [0] * 5
        # A phase change breaks the plateau and the climb resumes.
        assert gov.decide(_telemetry(scale=0.9, energy_pj=2e6)) != 0

    def test_energy_budget_autocalibrates_then_regulates(self):
        cfg = GovernorConfig(name="energy_budget", budget_headroom=0.8)
        gov = EnergyBudgetGovernor(cfg)
        # First interval: 4 W observed -> budget 3.2 W, start throttling.
        assert gov.decide(_telemetry(energy_pj=1e6, time_ps=250_000)) == -1
        # Above budget -> keep throttling; far below -> step back up.
        assert gov.decide(_telemetry(energy_pj=1e6, time_ps=250_000)) == -1
        assert gov.decide(_telemetry(energy_pj=0.5e6,
                                     time_ps=250_000)) == +1

    def test_explicit_budget_respected(self):
        cfg = GovernorConfig(name="energy_budget", budget_watts=10.0)
        gov = EnergyBudgetGovernor(cfg)
        # 20 W observed against a 10 W envelope: throttle immediately
        # (no auto-calibration when the budget is explicit).
        assert gov.decide(_telemetry(energy_pj=5e6, time_ps=250_000)) == -1
        # 4 W is comfortably inside the envelope: step back up.
        assert gov.decide(_telemetry(energy_pj=1e6, time_ps=250_000)) == +1

    def test_factory_builds_every_policy(self):
        for name in ("static", "occupancy", "ipc_ladder", "energy_budget"):
            assert make_governor(GovernorConfig(name=name)) is not None


# ------------------------------------------------- controller integration


class TestSyncIntegration:
    def test_static_attaches_controller_but_never_retunes(self):
        res = Session().run_workload(
            "baseline", "smoke", clock=_plan("static"), max_instructions=_N,
            warmup=_W)
        assert res.core.dvfs is not None
        assert res.stats.dvfs_retunes == 0
        assert res.stats.freq_trace == [[0, 950.0]]

    def test_occupancy_retunes_and_traces(self):
        res = Session().run_workload(
            "baseline", "gcc", clock=_plan("occupancy"), max_instructions=_N,
            warmup=_W)
        stats = res.stats
        assert stats.dvfs_retunes > 0
        assert len(stats.freq_trace) == stats.dvfs_retunes + 1
        cycles = [c for c, _m in stats.freq_trace]
        assert cycles == sorted(cycles)
        ladder = {950.0 * s for s in GovernorConfig().scale_steps}
        assert all(m in ladder for _c, m in stats.freq_trace)

    def test_sim_time_is_exact_piecewise_sum(self):
        """Cycles spanning multiple frequencies account time segment by
        segment — the invariant the energy model's static/EDP terms rest
        on. Recomputed independently from the frequency trace."""
        res = Session().run_workload(
            "baseline", "gcc", clock=_plan("occupancy"), max_instructions=_N,
            warmup=_W)
        stats = res.stats
        assert stats.dvfs_retunes > 0
        trace = stats.freq_trace
        total = stats.total_be_cycles
        expect = 0
        for i, (cycle, mhz) in enumerate(trace):
            nxt = trace[i + 1][0] if i + 1 < len(trace) else total
            expect += (int(nxt) - int(cycle)) * mhz_to_period_ps(mhz)
        assert stats.sim_time_ps == expect
        # And it must differ from the naive single-frequency formula,
        # i.e. the piecewise path was genuinely exercised.
        assert stats.sim_time_ps != total * mhz_to_period_ps(950.0)

    def test_pipelined_wakeup_supports_governors(self):
        res = Session().run_workload(
            "pipelined_wakeup", "gcc", clock=_plan("occupancy"),
            max_instructions=_N, warmup=_W)
        assert res.stats.dvfs_retunes > 0

    def test_energy_baseline_excludes_functional_warmup(self):
        """The first interval's power estimate must not include warmup's
        cache traffic: the controller re-snapshots its event/L2 baselines
        after warmup, so energy_budget's auto-calibrated envelope tracks
        *run* power and the governor genuinely regulates (pre-fix it
        calibrated ~2x high off warmup L2 accesses and pinned at
        nominal)."""
        res = Session().run_workload(
            "baseline", "gcc", clock=_plan("energy_budget", interval=500),
            max_instructions=20_000, warmup=20_000)
        stats = res.stats
        assert stats.dvfs_retunes >= 4
        assert min(m for _c, m in stats.freq_trace) < 950.0 * 0.9

    def test_energy_report_spans_frequency_segments(self):
        governed = Session().run_workload(
            "baseline", "gcc", clock=_plan("occupancy"), max_instructions=_N,
            warmup=_W)
        fixed = Session().run_workload(
            "baseline", "gcc", max_instructions=_N, warmup=_W)
        gov_rep = energy_report(governed, TECH_130)
        fix_rep = energy_report(fixed, TECH_130)
        assert governed.stats.dvfs_retunes > 0
        assert gov_rep.time_s == pytest.approx(
            governed.stats.sim_time_ps * 1e-12)
        # Leakage integrates over the (longer, throttled) wall clock.
        assert gov_rep.time_s > fix_rep.time_s
        assert gov_rep.static_pj > fix_rep.static_pj


class TestFlywheelIntegration:
    def test_ladder_retunes_only_the_fast_clock(self):
        clock = ClockPlan(fe_speedup=1.0, be_speedup=0.5,
                          governor=GovernorConfig(name="ipc_ladder",
                                                  interval=250))
        res = Session().run_workload(
            "flywheel", "gcc", clock=clock, max_instructions=_N, warmup=_W)
        stats = res.stats
        assert stats.dvfs_retunes > 0
        fast = clock.be_fast_mhz
        ladder = {fast * s for s in GovernorConfig().scale_steps}
        assert all(m in ladder for _c, m in stats.freq_trace)
        # Creation clock untouched: the trace never dips below the
        # lowest fast-clock rung.
        assert min(m for _c, m in stats.freq_trace) >= fast * 0.6

    def test_wall_clock_consistent_with_cycle_mix(self):
        """sim_time_ps (domain timeline) stays within the bounds set by
        the slowest/fastest frequencies the run ever used."""
        clock = ClockPlan(fe_speedup=1.0, be_speedup=0.5,
                          governor=GovernorConfig(name="ipc_ladder",
                                                  interval=250))
        res = Session().run_workload(
            "flywheel", "gcc", clock=clock, max_instructions=_N, warmup=_W)
        stats = res.stats
        total = stats.total_be_cycles
        lo_period = mhz_to_period_ps(clock.be_fast_mhz)      # fastest
        hi_period = mhz_to_period_ps(clock.be_mhz * 0.6)     # slowest
        assert total * lo_period <= stats.sim_time_ps <= total * hi_period


# --------------------------------------------------- campaign plumbing


class TestCampaignPlumbing:
    def test_governed_spec_is_a_distinct_job(self):
        plain = RunSpec(kind="baseline", bench="gcc")
        governed = RunSpec(kind="baseline", bench="gcc",
                           clock=_plan("occupancy"))
        assert plain.cache_key() != governed.cache_key()
        assert "gov=occupancy" in governed.label

    def test_sync_normalization_keeps_the_governor(self):
        spec = RunSpec(kind="baseline", bench="gcc",
                       clock=ClockPlan(fe_speedup=1.0,
                                       governor=GovernorConfig()))
        assert spec.clock.fe_speedup == 0.0      # speedups collapse
        assert spec.clock.governor == GovernorConfig()

    def test_governed_spec_roundtrips_through_json(self):
        spec = RunSpec(kind="flywheel", bench="gcc",
                       clock=ClockPlan(be_speedup=0.5,
                                       governor=GovernorConfig(
                                           name="energy_budget")))
        back = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    def test_result_with_freq_trace_survives_the_store(self, tmp_path):
        spec = RunSpec(kind="baseline", bench="gcc",
                       clock=_plan("occupancy"), instructions=_N,
                       warmup=_W)
        result = spec.execute()
        assert result.stats.dvfs_retunes > 0
        store = ResultStore(tmp_path)
        store.put(spec.cache_key(), spec, result)
        back = store.get(spec.cache_key())
        assert back.stats.freq_trace == result.stats.freq_trace
        assert back.stats.dvfs_retunes == result.stats.dvfs_retunes
        assert back.clock.governor == spec.clock.governor
        # Detached results still power the energy model.
        assert energy_report(back, TECH_130).total_pj > 0

    def test_stats_roundtrip_preserves_dvfs_fields(self):
        stats = SimStats(dvfs_retunes=2,
                         freq_trace=[[0, 950.0], [500, 855.0]])
        back = SimStats.from_dict(stats.to_dict())
        assert back.freq_trace == stats.freq_trace
        assert back.dvfs_retunes == 2


# ------------------------------------------------------------ reporting


class TestBenchRegressionGate:
    def test_compare_flags_lost_series_with_none_delta(self):
        # The perf gate is ``repro.perf check`` over the bench history.
        from repro.perf import classify_history, make_snapshot

        def snapshot(timestamp, series):
            rows = {name: {"cycles_per_sec": cps}
                    for name, cps in series.items()}
            return make_snapshot({"series": rows}, timestamp=timestamp,
                                 code="c")

        history = [snapshot(0.0, {"baseline/gcc": 100, "flywheel/gcc": 100}),
                   snapshot(1.0, {"baseline/gcc": 80})]
        by_name = {v.series: v
                   for v in classify_history(history, min_points=2)}
        assert by_name["baseline/gcc"].rel_delta == pytest.approx(-0.2)
        # A series the previous snapshot has and the latest lacks
        # surfaces as degraded with no delta — what check's
        # --fail-on-degraded fails on.
        lost = by_name["flywheel/gcc"]
        assert lost.verdict == "degraded"
        assert lost.latest == 100 and lost.rel_delta is None


class TestReporting:
    def test_freq_trace_rows_and_format(self):
        from repro.analysis.report import format_freq_trace

        stats = SimStats(be_cycles_create=2000, dvfs_retunes=1,
                         freq_trace=[[0, 950.0], [500, 855.0]])
        text = format_freq_trace(stats)
        assert "0:950" in text and "500:855" in text
        assert "1 retunes" in text

    def test_format_handles_ungoverned_runs(self):
        from repro.analysis.report import format_freq_trace

        assert "no governor" in format_freq_trace(SimStats())
