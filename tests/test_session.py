"""Tests for the MachineSpec + Session front door and the core-kind
table."""

import dataclasses

import pytest

import repro
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig, stable_hash
from repro.core.sim import get_kind, kind_names
from repro.dvfs import GovernorConfig
from repro.errors import CampaignError, ConfigError, WorkloadError
from repro.session import MachineSpec, Session, SessionEvent

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def ms(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return MachineSpec(kind=kind, bench=bench, **kw)


# ------------------------------------------------------------- MachineSpec


class TestMachineSpec:
    def test_normalizes_like_run_spec(self):
        assert ms() == ms(config=CoreConfig(), clock=ClockPlan())
        fly = ms(kind="flywheel")
        assert fly.fly == FlywheelConfig()
        assert fly.config == CoreConfig(phys_regs=512, regread_stages=2)
        # Sync kinds drop the clock speedup axes, like RunSpec does.
        assert ms(clock=ClockPlan(fe_speedup=0.5)) == ms()

    def test_validation_matches_campaign_layer(self):
        with pytest.raises(CampaignError):
            ms(kind="turbo")
        with pytest.raises(WorkloadError):
            ms(bench="nonesuch")
        with pytest.raises(CampaignError):
            ms(kind="baseline", fly=FlywheelConfig())
        # The runner's budget rule, in the campaign layer's error type.
        for instructions, warmup in ((0, 0), (200, -5)):
            with pytest.raises(CampaignError, match="budgets must be"):
                ms(instructions=instructions, warmup=warmup)

    def test_round_trip_keeps_cache_key(self):
        for spec in (
            ms(),
            ms(kind="flywheel", clock=ClockPlan(fe_speedup=0.25),
               fly=FlywheelConfig(ec_kb=64), seed=9, mem_scale=1.5),
            ms(kind="pipelined_wakeup", seed=3),
            ms(engine="turbo"),
        ):
            back = MachineSpec.from_dict(spec.to_dict())
            assert back == spec
            assert back.cache_key() == spec.cache_key()
            assert MachineSpec.from_run_spec(spec) is spec

    def test_payload_hashes_pinned_against_pr3(self):
        """The content-address function over spec payloads is pinned.

        These hashes were captured on the PR 3 tree and re-pinned once
        when payloads lost the flat ``config.memory`` member and the
        unread ``fly.tag_window``/``fly.max_trace_units`` (CHANGES.md
        lists old -> new); any other change to them is a change to
        every content address. The cache key adds only the code
        fingerprint, which any simulator change rotates by design.
        """
        pins = {
            MachineSpec("baseline", "smoke"):
                "74304774aeb72adfe7e5acd57a736abb8cd39ff4",
            MachineSpec("pipelined_wakeup", "gcc"):
                "f26ea988367d7fab5462b892ae2c403dbb826fc3",
            MachineSpec("flywheel", "gcc",
                        clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5)):
                "b3d8c3b993cf7c17026b4074b1693d311a81cf97",
            MachineSpec("flywheel", "vortex",
                        clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5,
                                        governor=GovernorConfig(
                                            name="ipc_ladder",
                                            interval=500)),
                        fly=FlywheelConfig(ec_kb=64), seed=7,
                        instructions=2000, warmup=500, mem_scale=2.0):
                "6027dfb8a4af6b9728f24b914a0e6a1476605fa5",
            MachineSpec("baseline", "gcc",
                        config=CoreConfig(iw_entries=64), seed=3):
                "e9297a1a6220009e0fd168ad697c16a542f128c9",
        }
        for spec, expected in pins.items():
            assert stable_hash(spec.payload(), length=40) == expected

    def test_replace_and_serialization(self):
        spec = ms(kind="flywheel", seed=1)
        other = spec.replace(seed=2)
        assert other.seed == 2 and other.kind == "flywheel"
        assert other != spec
        back = MachineSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_replace_kind_resets_kind_normalized_axes(self):
        # The baseline-normalized config must not leak into the new
        # kind; the replaced spec equals one written from scratch.
        spec = ms().replace(kind="flywheel")
        assert spec == ms(kind="flywheel")
        assert spec.config == CoreConfig(phys_regs=512, regread_stages=2)
        # An explicit override in the same call still wins.
        custom = ms().replace(kind="flywheel",
                              config=CoreConfig(phys_regs=512,
                                                regread_stages=2,
                                                iw_entries=64))
        assert custom.config.iw_entries == 64

    def test_machine_spec_is_run_spec(self):
        assert MachineSpec is RunSpec
        assert repro.MachineSpec is repro.RunSpec

    def test_engine_sugar_is_not_a_field(self):
        spec = ms(engine="turbo")
        assert spec == ms(config=CoreConfig(engine="turbo"))
        assert spec.cache_key() == ms().cache_key()
        assert spec.payload() == ms().payload()
        assert "engine" not in {f.name for f in dataclasses.fields(spec)}
        # dataclasses.replace passes the InitVar through __init__.
        assert dataclasses.replace(ms(), engine="turbo") == spec
        assert spec.replace(engine="legacy").config.engine == "legacy"


# ----------------------------------------------------------------- Session


class TestSessionRun:
    def test_run_memoizes_and_counts(self):
        with Session() as session:
            a = session.run(ms())
            b = session.run(ms())
            assert a is b
            assert (session.hits, session.executed) == (1, 1)

    def test_store_level_cache_across_sessions(self, tmp_path):
        first = Session(store=ResultStore(tmp_path))
        cold = first.run(ms())
        second = Session(store=ResultStore(tmp_path))
        warm = second.run(ms())
        assert (second.hits, second.executed) == (1, 0)
        assert warm.stats.to_dict() == cold.stats.to_dict()
        assert warm.core is None          # store results come back detached

    def test_store_warmed_by_legacy_runspec_path_hits(self, tmp_path):
        """Records written through the campaign layer (the on-disk format
        since PR 3) must satisfy the Session/MachineSpec path."""
        run = ms()
        store = ResultStore(tmp_path)
        store.put(run.cache_key(), run, run.execute())
        session = Session(store=ResultStore(tmp_path))
        assert session.run(ms()) is not None
        assert (session.hits, session.executed) == (1, 0)

    def test_accepts_run_spec_directly(self):
        session = Session()
        result = session.run(RunSpec("baseline", "smoke", instructions=N,
                                     warmup=W))
        assert result.stats.committed >= N
        assert session.run(ms()) is result   # same key either way
        with pytest.raises(TypeError):
            session.run({"kind": "baseline", "bench": "smoke"})
        with pytest.raises(TypeError):
            session.map([ms(), "baseline/smoke"])

    def test_run_workload_is_uncached_and_live(self):
        session = Session()
        a = session.run_workload("baseline", "smoke", max_instructions=N,
                                 warmup=W)
        b = session.run_workload("baseline", "smoke", max_instructions=N,
                                 warmup=W)
        assert a is not b
        assert a.core is not None
        assert a.to_dict() == b.to_dict()
        with pytest.raises(ConfigError):
            session.run_workload("turbo", "smoke")
        # Failed runs don't count as executed (the counter is the
        # zero-new-work verification primitive).
        before = session.executed
        with pytest.raises(WorkloadError):
            session.run_workload("baseline", "nonesuch")
        assert session.executed == before

    def test_run_workload_refuses_bad_budgets(self):
        # The runner checks the budgets RunSpec checks: a negative
        # warmup would start the timed region before seq 0.
        session = Session()
        for instructions, warmup in ((200, -5), (0, 0)):
            with pytest.raises(ConfigError, match="budgets"):
                session.run_workload("baseline", "smoke",
                                     max_instructions=instructions,
                                     warmup=warmup)
        assert session.executed == 0

    def test_close_drops_memory_cache_only(self, tmp_path):
        session = Session(store=ResultStore(tmp_path))
        session.run(ms())
        session.close()
        again = session.run(ms())
        assert again is not None
        assert session.executed == 1      # second run resolved from store


class TestSessionMap:
    def specs(self):
        return [ms(seed=s) for s in (1, 2)] + \
               [ms(kind="flywheel", seed=s) for s in (1, 2)]

    def test_cold_and_warm_accounting(self, tmp_path):
        specs = self.specs()
        cold = Session(store=ResultStore(tmp_path))
        results = cold.map(specs, jobs=2)
        assert len(results) == len(specs)
        assert (cold.hits, cold.executed) == (0, len(specs))

        warm = Session(store=ResultStore(tmp_path))
        again = warm.map(specs, jobs=2)
        assert (warm.hits, warm.executed) == (len(specs), 0)
        for r1, r2 in zip(results, again):
            assert r1.stats.to_dict() == r2.stats.to_dict()

    def test_input_order_and_duplicates(self):
        session = Session()
        specs = [ms(seed=1), ms(seed=2), ms(seed=1)]
        results = session.map(specs)
        assert results[0] is results[2]
        assert results[0].stats.to_dict() != results[1].stats.to_dict()
        assert session.executed == 2      # deduplicated before running

    def test_map_reuses_memory_cache(self):
        session = Session()
        session.run(ms(seed=1))
        session.map([ms(seed=1), ms(seed=2)])
        assert session.executed == 2      # seed=1 not re-simulated
        assert session.hits == 1          # ...and counted as a hit

    def test_warm_rerun_in_same_session_is_all_hits(self):
        # The README contract: a repeated map reports every spec a hit.
        session = Session()
        specs = [ms(seed=s) for s in (1, 2)]
        session.map(specs)
        session.map(specs)
        assert (session.hits, session.executed) == (len(specs), len(specs))


class TestSessionStream:
    def test_event_ordering_under_parallel_jobs(self):
        session = Session()
        specs = [ms(seed=s) for s in (1, 2, 3)] + [ms(seed=1)]  # dup
        events = list(session.stream(specs, jobs=2))
        assert [e.event for e in events] == \
            ["plan"] + ["result"] * 3 + ["summary"]
        plan, results, summary = events[0], events[1:-1], events[-1]
        assert plan.total == 3            # deduplicated
        assert [e.done for e in results] == [1, 2, 3]
        assert {e.spec.cache_key() for e in results} == \
            {s.cache_key() for s in specs}
        for e in results:
            assert e.source == "run"
            assert e.result.stats.committed >= N
        assert summary.executed == 3 and summary.hits == 0
        assert session.executed == 3

    def test_stream_sources_reflect_cache_levels(self, tmp_path):
        store_specs = [ms(seed=1), ms(seed=2)]
        Session(store=ResultStore(tmp_path)).map(store_specs)

        session = Session(store=ResultStore(tmp_path))
        session.run(ms(seed=1))           # memory-level hit
        events = list(session.stream([ms(seed=1), ms(seed=2), ms(seed=3)]))
        sources = {e.spec.cache_key(): e.source for e in events
                   if e.event == "result"}
        assert sources[ms(seed=1).cache_key()] == "memory"
        assert sources[ms(seed=2).cache_key()] == "store"
        assert sources[ms(seed=3).cache_key()] == "run"
        summary = events[-1]
        assert summary.hits == 2 and summary.executed == 1

    def test_stream_memoizes_results(self):
        session = Session()
        list(session.stream([ms(seed=4)]))
        assert session.run(ms(seed=4)) is not None
        assert session.executed == 1


# ------------------------------------------------------------- kind table


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert kind_names()[:3] == ("baseline", "pipelined_wakeup",
                                    "flywheel")
        assert get_kind("flywheel").dual_clock
        assert not get_kind("baseline").dual_clock

    def test_unknown_kind_raises_config_error(self):
        with pytest.raises(ConfigError):
            get_kind("turbo")

    def test_core_cls_resolves_lazily(self):
        from repro.core.flywheel import FlywheelCore

        assert get_kind("flywheel").core_cls is FlywheelCore


class TestExperimentContextOnSession:
    def test_shared_session_snapshots_executed(self):
        from repro.experiments.common import ExperimentContext

        session = Session()
        first = ExperimentContext(instructions=N, warmup=W, session=session)
        first.session.run(first.spec("baseline", "smoke"))
        assert first.executed == 1
        # A second context on the same (already-used) session starts
        # from zero, and warmed batches stay excluded.
        second = ExperimentContext(instructions=N, warmup=W,
                                   session=session)
        assert second.executed == 0
        second.warm([ms(seed=5)])
        assert second.executed == 0
        second.session.run(second.spec("baseline", "ijpeg"))
        assert second.executed == 1

    def test_warm_defaults_to_session_jobs(self):
        from repro.experiments.common import ExperimentContext

        ctx = ExperimentContext(instructions=N, warmup=W,
                                session=Session(jobs=2))
        report = ctx.warm([ms(seed=6), ms(seed=7)])
        assert report.jobs == 2           # inherited, not pinned to 1


# ------------------------------------------------------------ the surface


class TestPublicSurface:
    def test_new_names_exported(self):
        for name in ("MachineSpec", "Session", "SessionEvent",
                     "get_kind", "kind_names"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_removed_wrappers_are_gone(self):
        # Session is the one way to run a machine: 2.0 removed the v1.1
        # per-kind ``run_<kind>`` wrappers and the process-wide session
        # accessor behind them.
        import repro.core
        import repro.core.sim
        import repro.session

        for module in (repro, repro.core, repro.core.sim, repro.session):
            for kind in ("baseline", "flywheel", "pipelined_wakeup"):
                assert f"run_{kind}" not in module.__all__
                assert not hasattr(module, f"run_{kind}"), module.__name__
            assert [name for name in dir(module)
                    if name.endswith("_session")] == [], module.__name__

    def test_flywheel_has_one_pipeline(self):
        # The Flywheel's stages live once, inline in FlywheelCore.run; the
        # engine axis picks only its oracle. The separate turbo loop and
        # the per-stage method copies are gone.
        import importlib

        from repro.core.flywheel import FlywheelCore

        with pytest.raises(ImportError):
            importlib.import_module("repro.core.engine.turbo.fly")
        for stage in ("fe_tick", "fe_dispatch", "fe_rename", "fe_fetch",
                      "check_natural_end", "be_tick", "be_create",
                      "create_issue", "create_accept", "be_execute",
                      "replay_alloc", "replay_issue"):
            assert not hasattr(FlywheelCore, f"_{stage}"), stage

    def test_session_event_is_frozen(self):
        event = SessionEvent(event="plan", total=3)
        with pytest.raises(Exception):
            event.total = 4


# -------------------------------------------- serialization round-trips


class TestResultRoundTrips:
    """PR-6 coverage: every per-run observability payload must survive
    the store (worker serialization is the same code path)."""

    def _round_trip(self, spec, tmp_path):
        cold = Session(store=ResultStore(tmp_path))
        fresh = cold.run(spec)
        warm = Session(store=ResultStore(tmp_path))
        stored = warm.run(spec)
        assert (warm.hits, warm.executed) == (1, 0)
        return fresh, stored

    def test_freq_trace_and_retunes_round_trip(self, tmp_path):
        spec = ms(bench="gcc", instructions=4000, warmup=1000,
                  clock=ClockPlan(governor=GovernorConfig(
                      name="occupancy", interval=200)))
        fresh, stored = self._round_trip(spec, tmp_path)
        assert fresh.stats.freq_trace          # the initial point at least
        assert stored.stats.freq_trace == fresh.stats.freq_trace
        assert stored.stats.dvfs_retunes == fresh.stats.dvfs_retunes

    def test_cache_stats_round_trip(self, tmp_path):
        from repro.mem import MemorySpec

        spec = ms(config=CoreConfig(mem=MemorySpec(mshrs=4)))
        fresh, stored = self._round_trip(spec, tmp_path)
        assert fresh.stats.cache_stats.get("mshr") is not None
        assert stored.stats.cache_stats == fresh.stats.cache_stats

    def test_metrics_snapshot_round_trip(self, tmp_path):
        fresh, stored = self._round_trip(ms(), tmp_path)
        assert fresh.stats.metrics["engine.committed"] >= N
        assert stored.stats.metrics == fresh.stats.metrics

    def test_trace_round_trips_and_artifact_written(self, tmp_path):
        import json

        from repro.obs import TraceSpec

        spec = ms(config=CoreConfig(trace=TraceSpec(buffer=4096)))
        store_dir, trace_dir = tmp_path / "store", tmp_path / "traces"
        cold = Session(store=ResultStore(store_dir),
                       trace_dir=str(trace_dir))
        fresh = cold.run(spec)
        assert fresh.trace is not None and fresh.trace["events"]
        assert fresh.trace_path is not None
        payload = json.loads(
            (trace_dir / f"{spec.cache_key()[:16]}.trace.json").read_text())
        assert payload["traceEvents"]
        # Warm session: trace data comes back from the store and the
        # artifact is re-exported for the new session's trace_dir.
        warm = Session(store=ResultStore(store_dir),
                       trace_dir=str(tmp_path / "traces2"))
        stored = warm.run(spec)
        assert stored.trace["events"] == fresh.trace["events"]
        assert stored.trace_path is not None

    def test_untraced_spec_writes_no_artifact(self, tmp_path):
        session = Session(trace_dir=str(tmp_path / "traces"))
        result = session.run(ms())
        assert result.trace is None and result.trace_path is None
        assert not (tmp_path / "traces").exists()

    def test_session_profile_reports_phases(self):
        from repro.obs.profiler import PHASES

        session = Session()
        report = session.profile(ms().replace(engine="legacy"))
        assert set(report["profile"]["phases_s"]) == set(PHASES)
        assert session.executed == 1
