"""Tests for the observability layer (PR 6): TraceSpec/TraceRecorder,
MetricRegistry, renderers, the self-profiler and the deadlock snapshot."""

import json

import pytest

from repro.core.config import CoreConfig
from repro.core.engine.watchdog import DeadlockWatchdog
from repro.core.sim import build_core, default_config, execute_kind, run_core
from repro.errors import ConfigError, DeadlockError
from repro.obs import (
    EVENT_KINDS,
    STALL_REASONS,
    MetricRegistry,
    TraceRecorder,
    TraceSpec,
    chrome_trace,
    render_pipeview,
)
from repro.obs.profiler import (PHASES, format_profile, install,
                                profile_machine)

#: Tiny budgets: every simulated run in this file finishes in ~100ms.
N, W = 1500, 500

ALL_KINDS = ("baseline", "pipelined_wakeup", "flywheel")


def traced(kind, bench="smoke", spec=None, n=N, w=W, engine=None,
           **trace_kw):
    trace_kw.setdefault("buffer", 65536)
    config = default_config(kind).with_variant(
        trace=spec or TraceSpec(**trace_kw), engine=engine)
    return execute_kind(kind, bench, config=config,
                        max_instructions=n, warmup=w)


# --------------------------------------------------------------- TraceSpec


class TestTraceSpec:
    def test_defaults(self):
        spec = TraceSpec()
        assert spec.buffer == 65536
        assert spec.events == ()
        assert spec.start == 0 and spec.stop == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TraceSpec(buffer=0)
        with pytest.raises(ConfigError):
            TraceSpec(start=-1)
        with pytest.raises(ConfigError):
            TraceSpec(start=100, stop=50)
        with pytest.raises(ConfigError):
            TraceSpec(events=("fetch", "nonesuch"))

    def test_round_trip(self):
        spec = TraceSpec(buffer=128, events=("issue", "retire"),
                         start=10, stop=500)
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_core_config_rebuilds_dict_payload(self):
        cfg = CoreConfig(trace={"buffer": 256, "events": ["stall"]})
        assert isinstance(cfg.trace, TraceSpec)
        assert cfg.trace.buffer == 256
        assert cfg.trace.events == ("stall",)

    def test_stall_reasons_are_documented_taxonomy(self):
        assert set(STALL_REASONS) >= {"rob_full", "iw_full", "lsq_full",
                                      "pool_full", "mshr_full", "fu_busy",
                                      "dep_wait"}


# ----------------------------------------------------------- TraceRecorder


class TestTraceRecorder:
    def test_ring_bounds_and_dropped(self):
        rec = TraceRecorder(TraceSpec(buffer=4))
        for c in range(10):
            rec.emit(c, "fetch", c)
        assert rec.emitted == 10
        assert len(rec.events) == 4
        assert rec.dropped == 6
        assert [ev[0] for ev in rec.events] == [6, 7, 8, 9]

    def test_event_mask(self):
        rec = TraceRecorder(TraceSpec(buffer=16, events=("retire",)))
        rec.emit(1, "fetch", 0)
        rec.emit(2, "retire", 0)
        assert [ev[1] for ev in rec.events] == ["retire"]
        assert rec.wants("retire") and not rec.wants("fetch")

    def test_cycle_window(self):
        rec = TraceRecorder(TraceSpec(buffer=16, start=5, stop=8))
        for c in range(12):
            rec.emit(c, "issue", c)
        assert [ev[0] for ev in rec.events] == [5, 6, 7]
        assert rec.active(5) and not rec.active(8)

    def test_window_filters_last_cycles(self):
        rec = TraceRecorder(TraceSpec(buffer=64))
        for c in (1, 50, 90, 99, 100):
            rec.emit(c, "retire", c)
        tail = rec.window(10)
        assert [ev[0] for ev in tail] == [99, 100]

    def test_serialize_is_json_safe(self):
        rec = TraceRecorder(TraceSpec(buffer=8))
        rec.emit(3, "stall", -1, "rob_full")
        payload = rec.serialize()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["events"] == [[3, "stall", -1, "rob_full"]]


# ---------------------------------------------------------- MetricRegistry


class TestMetricRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricRegistry()
        reg.counter("a.count").inc(3)
        reg.gauge("a.depth", lambda: 7)
        hist = reg.histogram("a.lat", bounds=(1, 4))
        for v in (0, 2, 9):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["a.count"] == 3
        assert snap["a.depth"] == 7
        assert snap["a.lat"]["counts"] == [1, 1, 1]
        assert snap["a.lat"]["total"] == 3
        assert list(snap) == sorted(snap)

    def test_source_flattening(self):
        reg = MetricRegistry()
        reg.source("mem", lambda: {"l1d": {"hits": 5}, "mshr": None})
        snap = reg.snapshot()
        assert snap["mem.l1d.hits"] == 5
        assert snap["mem.mshr"] is None

    def test_interval_deltas(self):
        reg = MetricRegistry()
        c = reg.counter("n")
        reg.gauge("g", lambda: 42)
        c.inc(5)
        first = reg.interval()
        assert first == {"n": 5, "g": 42}
        c.inc(2)
        second = reg.interval()
        assert second == {"n": 2, "g": 42}   # counter delta, gauge absolute

    def test_snapshot_round_trips_through_json(self):
        result = execute_kind("baseline", "smoke", max_instructions=N,
                              warmup=W)
        metrics = result.stats.metrics
        assert metrics["engine.committed"] >= N
        assert json.loads(json.dumps(metrics)) == metrics


# --------------------------------------------------------- traced machines


class TestTracedRuns:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_lifecycle_events_recorded(self, kind):
        result = traced(kind)
        events = result.trace["events"]
        kinds = {ev[1] for ev in events}
        # Decode is FE-domain-only on the flywheel (no BE-axis stamp).
        expected = {"fetch", "rename", "dispatch", "issue", "complete",
                    "retire"}
        assert expected <= kinds
        for cycle, ev_kind, seq, _info in events:
            assert ev_kind in EVENT_KINDS
            assert cycle >= 0
            assert seq >= -1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tracing_off_is_bit_identical(self, kind):
        plain = execute_kind(kind, "smoke", max_instructions=N, warmup=W)
        full = traced(kind)
        assert plain.trace is None and full.trace is not None
        a, b = plain.stats.to_dict(), full.stats.to_dict()
        # The only permitted difference: the recorder's own bookkeeping
        # source, present exactly when the recorder is armed.
        b["metrics"] = {k: v for k, v in b["metrics"].items()
                        if not k.startswith("trace.")}
        assert a == b

    def test_untraced_result_dict_has_no_trace_key(self):
        plain = execute_kind("baseline", "smoke", max_instructions=N,
                             warmup=W)
        assert "trace" not in plain.to_dict()

    def test_stall_events_corroborated_by_counters(self):
        result = traced("flywheel", bench="gcc", n=3000, w=1000)
        stalls = [ev for ev in result.trace["events"] if ev[1] == "stall"]
        pool = sum(1 for ev in stalls if ev[3] == "pool_full")
        assert result.stats.rename_pool_stalls > 0
        # 1:1 — every pool-stall increment emits exactly one event, and
        # the buffer/window cover the whole run.
        assert pool == result.stats.rename_pool_stalls
        for ev in stalls:
            assert ev[3] in STALL_REASONS

    def test_mem_events_on_general_path(self):
        from repro.mem import MemorySpec

        config = default_config("baseline").with_variant(
            mem=MemorySpec(mshrs=4), trace=TraceSpec(buffer=65536))
        result = execute_kind("baseline", "pointer_chase", config=config,
                              max_instructions=2000, warmup=500)
        kinds = {ev[1] for ev in result.trace["events"]}
        assert "mem" in kinds

    def test_clock_events_on_retune(self):
        from repro.core.config import ClockPlan
        from repro.dvfs import GovernorConfig

        config = default_config("baseline").with_variant(
            trace=TraceSpec(buffer=65536))
        clock = ClockPlan(governor=GovernorConfig(
            name="occupancy", interval=200))
        result = execute_kind("baseline", "gcc", config=config, clock=clock,
                              max_instructions=4000, warmup=1000)
        clocks = [ev for ev in result.trace["events"] if ev[1] == "clock"]
        assert len(clocks) == result.stats.dvfs_retunes
        if clocks:
            assert all(isinstance(ev[3], float) for ev in clocks)


# --------------------------------------------------------------- renderers


class TestRenderers:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pipeview_renders(self, kind):
        result = traced(kind)
        out = render_pipeview(result.trace["events"], stop=200)
        assert "pipeview" in out
        lines = [ln for ln in out.splitlines() if "|" in ln]
        assert lines, out
        # Issue marker appears somewhere in the Gantt body.
        assert any("I" in ln.split("|", 1)[1] for ln in lines)

    def test_pipeview_empty_window(self):
        assert "no lifecycle events" in render_pipeview([])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_chrome_trace_is_valid(self, kind, tmp_path):
        result = traced(kind)
        payload = chrome_trace(result.trace["events"], label=kind)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        events = loaded["traceEvents"]
        assert events
        for ev in events:
            assert ev["ph"] in ("M", "X", "i", "C")
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_chrome_trace_stall_instants(self):
        result = traced("baseline", bench="gcc", n=3000, w=1000)
        payload = chrome_trace(result.trace["events"], label="x")
        instants = [ev for ev in payload["traceEvents"] if ev["ph"] == "i"]
        assert any(ev["name"].startswith("stall:") for ev in instants)


# ---------------------------------------------------------------- profiler


class TestProfiler:
    # Every kind runs one fused loop on both engines, which stamps the
    # pool/loop buckets itself.
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_report_shape(self, kind):
        for engine in ("legacy", "turbo"):
            self._check_report_shape(kind, profile_machine(
                kind, "smoke", instructions=N, warmup=W,
                config=default_config(kind).with_variant(engine=engine)))

    @staticmethod
    def _check_report_shape(kind, report):
        prof = report["profile"]
        assert set(prof["phases_s"]) == set(PHASES)
        assert prof["run_s"] > 0
        assert prof["phases_s"]["loop"] > 0
        assert prof["ticks"] > 0
        assert report["cycles"] > 0
        for phase in PHASES:
            assert prof["phases_s"][phase] >= 0
        # Only the dual-clock core has a second domain's cycles; the
        # table puts the executed ticks next to the simulated cycles.
        assert (report["fe_cycles"] > 0) == (kind == "flywheel")
        simulated = report["cycles"] + report["fe_cycles"]
        assert (f"  ticks     {prof['ticks']} executed for {simulated} "
                "simulated cycles") in format_profile(report)

    def test_profiled_stats_match_plain_run(self):
        # The loop stamps its buckets around unchanged code: a profiled
        # run is the unprofiled machine, counter for counter.
        for engine in ("legacy", "turbo"):
            self._check_profiled_stats(engine)

    @staticmethod
    def _check_profiled_stats(engine):
        config = CoreConfig(engine=engine)
        plain = execute_kind("baseline", "smoke", config=config,
                             max_instructions=N, warmup=W)
        core = build_core("baseline", "smoke", config=config)
        prof = install(core)
        result = run_core(core, "baseline", N, W)
        assert prof.seconds["loop"] > 0
        assert result.to_dict() == plain.to_dict()
        report = profile_machine("baseline", "smoke", config=config,
                                 instructions=N, warmup=W)
        assert report["cycles"] == plain.stats.total_be_cycles
        assert report["instructions"] == N

    # The profiler builds and runs its machine through build_core and
    # run_core, so what it times is the run a campaign executes: the
    # same result, from the same walks of the program.
    @pytest.mark.parametrize("engine", ("legacy", "turbo"))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_result_is_the_plain_result(self, kind, engine):
        config = default_config(kind).with_variant(engine=engine)
        plain = execute_kind(kind, "smoke", config=config,
                             max_instructions=N, warmup=W)
        report = profile_machine(kind, "smoke", config=config,
                                 instructions=N, warmup=W)
        assert report["result"] == plain.to_dict()

    @pytest.mark.parametrize("engine", ("legacy", "turbo"))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profiled_run_walks_the_program_as_often(self, kind, engine,
                                                     monkeypatch):
        from repro.core.engine.turbo import pool as pool_module
        from repro.workloads.stream import InstructionStream

        walked = []
        live_next = InstructionStream.next_instr

        def next_instr(stream):
            walked.append(stream)
            return live_next(stream)

        monkeypatch.setattr(InstructionStream, "next_instr", next_instr)
        config = default_config(kind).with_variant(engine=engine)

        def walks(run):
            # An empty pool cache: a pool an earlier run built would
            # hide this run's walk.
            monkeypatch.setattr(pool_module, "_POOL_CACHE", {})
            walked.clear()
            run()
            return len(walked)

        plain = walks(lambda: execute_kind(kind, "smoke", config=config,
                                           max_instructions=N, warmup=W))
        profiled = walks(lambda: profile_machine(
            kind, "smoke", config=config, instructions=N, warmup=W))
        assert plain >= N + W
        assert profiled == plain

    def test_profile_refuses_bad_budgets(self):
        with pytest.raises(ConfigError, match="budgets"):
            profile_machine("baseline", "smoke", instructions=200, warmup=-5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_turbo_engine_buckets(self, kind):
        # The profile must report the pool/loop buckets with real
        # (non-zero) loop time, not a report of silent zeros.
        config = default_config(kind).with_variant(engine="turbo")
        report = profile_machine(kind, "smoke", config=config,
                                 instructions=N, warmup=W)
        prof = report["profile"]
        assert set(prof["phases_s"]) == set(PHASES)
        assert prof["phases_s"]["loop"] > 0
        assert prof["ticks"] > 0
        assert report["cycles"] > 0

    def test_profile_turbo_matches_plain_turbo_run(self):
        config = default_config("baseline").with_variant(engine="turbo")
        plain = execute_kind("baseline", "smoke", config=config,
                             max_instructions=N, warmup=W)
        report = profile_machine("baseline", "smoke", config=config,
                                 instructions=N, warmup=W)
        assert report["cycles"] == plain.stats.total_be_cycles


# -------------------------------------------------------- deadlock snapshot


class TestDeadlockSnapshot:
    def test_watchdog_attaches_snapshot(self):
        dog = DeadlockWatchdog(window=10)
        with pytest.raises(DeadlockError) as err:
            dog.trip(99, 5, snapshot=lambda: {"rob": {"occupancy": 3}})
        assert err.value.snapshot["rob"] == {"occupancy": 3}
        assert err.value.snapshot["cycle"] == 99
        assert err.value.snapshot["committed"] == 5

    def test_watchdog_without_snapshot_still_structured(self):
        dog = DeadlockWatchdog(window=10)
        with pytest.raises(DeadlockError) as err:
            dog.trip(42, 7)
        assert err.value.snapshot == {"cycle": 42, "committed": 7}

    # Both engines in one test (the turbo ROB holds seq ints, not
    # RobEntry objects), and the two snapshots must share their keys.
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_core_snapshot_shape(self, kind):
        shapes = []
        for engine in ("legacy", "turbo"):
            result = traced(kind, engine=engine)
            snap = result.core._deadlock_snapshot()
            for key in ("core", "cycle", "committed", "rob", "lsq", "iw",
                        "oldest", "trace_window"):
                assert key in snap, (engine, key)
            assert snap["rob"]["capacity"] > 0
            assert isinstance(snap["trace_window"], list)
            # Snapshot must be JSON-safe: it rides on a raised error
            # that tooling may want to dump.
            json.dumps(snap)
            shapes.append((sorted(snap), sorted(snap["oldest"] or {})))
        assert shapes[0] == shapes[1]

    def test_untr_core_snapshot_has_no_window(self):
        for engine in ("legacy", "turbo"):
            result = execute_kind("baseline", "smoke",
                                  config=CoreConfig(engine=engine),
                                  max_instructions=N, warmup=W)
            snap = result.core._deadlock_snapshot()
            assert "trace_window" not in snap


# ----------------------------------------------------------- the obs CLI


class TestObsCli:
    # Bad input ends in one ``error:`` line and exit status 1, never a
    # traceback; a negative warmup is refused rather than read as pool
    # rows counted from the end.
    @pytest.mark.parametrize("argv", (
        ["metrics", "--kind", "nope"],
        ["metrics", "--bench", "nope"],
        ["metrics", "--bench", "smoke", "--warmup", "-5",
         "--instructions", "200"],
        ["metrics", "--bench", "smoke", "--instructions", "0"],
        ["profile", "--bench", "smoke", "--warmup", "-5"],
    ))
    def test_bad_input_is_an_error_line(self, argv, capsys):
        from repro.obs.__main__ import main

        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "\n" == out.err[-1]
        assert out.err.count("\n") == 1
        assert out.out == ""

    def test_kind_help_lists_the_kinds(self, capsys):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit):
            main(["metrics", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "baseline, pipelined_wakeup, flywheel" in help_text

    def test_profile_defaults_to_the_default_engine(self, monkeypatch,
                                                    capsys):
        # ``obs profile`` measures the engine campaigns run on unless
        # ``--engine`` names another.
        import repro.obs.__main__ as cli

        engines = []
        real = cli.profile_machine

        def spy(*args, **kwargs):
            engines.append(kwargs["config"].resolved_engine)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "profile_machine", spy)
        budget = ["--bench", "smoke", "--instructions", "300",
                  "--warmup", "100"]
        assert cli.main(["profile", *budget]) == 0
        assert cli.main(["profile", "--engine", "legacy", *budget]) == 0
        assert engines == [CoreConfig().resolved_engine, "legacy"]
        assert "loop" in capsys.readouterr().out
