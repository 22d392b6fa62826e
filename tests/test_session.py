"""Tests for the MachineSpec + Session front door and the core-kind
registry (PR 4 API redesign)."""

import dataclasses

import pytest

import repro
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig, stable_hash
from repro.core.registry import (
    get_kind,
    is_registered,
    kind_names,
    register_kind,
    unregister_kind,
)
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
        """The projection did not change the content-address function.

        These hashes were captured by running ``stable_hash(
        RunSpec(...).payload(), length=40)`` on the PR 3 tree; a spec
        written via MachineSpec today must project to byte-identical
        payloads (the cache key then only differs by the code
        fingerprint, which any simulator change rotates by design).
        """
        pins = {
            MachineSpec("baseline", "smoke"):
                "1ddc31b9996170e5e7cba93267faa41db38caf82",
            MachineSpec("pipelined_wakeup", "gcc"):
                "bdd997dcb53dac9f45c606ace4a3abfeb30b97bb",
            MachineSpec("flywheel", "gcc",
                        clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5)):
                "5bd93d2a3c5099982974130d6f3c6eb1fabc3692",
            MachineSpec("flywheel", "vortex",
                        clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5,
                                        governor=GovernorConfig(
                                            name="ipc_ladder",
                                            interval=500)),
                        fly=FlywheelConfig(ec_kb=64), seed=7,
                        instructions=2000, warmup=500, mem_scale=2.0):
                "e2a73e843447bac2d18cfd68508e0fc676614d52",
            MachineSpec("baseline", "gcc",
                        config=CoreConfig(iw_entries=64), seed=3):
                "68631c2dec990d0347b8a5d264bf5d47978cc697",
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


# ---------------------------------------------------------------- registry


def _stub_runner(workload, config=None, fly=None, clock=None,
                 max_instructions=0, warmup=0, seed=None, mem_scale=1.0):
    from repro.core.sim import execute_kind

    # Delegate to the baseline machinery but stamp the plug-in kind.
    result = execute_kind("baseline", workload, config=config, clock=clock,
                          max_instructions=max_instructions, warmup=warmup,
                          seed=seed, mem_scale=mem_scale)
    result.kind = "stub"
    return result


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert kind_names()[:3] == ("baseline", "pipelined_wakeup",
                                    "flywheel")
        assert get_kind("flywheel").dual_clock
        assert not get_kind("baseline").dual_clock

    def test_unknown_kind_raises_config_error(self):
        with pytest.raises(ConfigError):
            get_kind("turbo")
        with pytest.raises(ConfigError):
            unregister_kind("turbo")

    def test_duplicate_kind_rejected(self):
        from repro.core.baseline import BaselineCore

        with pytest.raises(ConfigError):
            register_kind("baseline", BaselineCore, _stub_runner)
        # replace=True is the explicit override path.
        info = get_kind("baseline")
        register_kind("baseline", info.core, info.runner,
                      default_config=info.default_config,
                      normalize_config=info.normalize_config, replace=True)
        assert get_kind("baseline").runner is info.runner

    def test_third_party_kind_plugs_into_specs_and_session(self):
        from repro.core.baseline import BaselineCore

        register_kind("stub", BaselineCore, _stub_runner)
        try:
            assert is_registered("stub")
            spec = ms(kind="stub")
            assert spec.config == CoreConfig()      # registry default
            with Session() as session:
                result = session.run(spec)
            assert result.kind == "stub"
            assert result.stats.committed >= N
            # Same machine as the baseline, different content address.
            assert spec.cache_key() != ms().cache_key()
        finally:
            unregister_kind("stub")
        with pytest.raises(CampaignError):
            ms(kind="stub")

    def test_core_cls_resolves_lazily(self):
        from repro.core.flywheel import FlywheelCore

        assert get_kind("flywheel").core_cls is FlywheelCore


class TestExperimentContextOnSession:
    def test_conflicting_store_and_session_rejected(self, tmp_path):
        from repro.experiments.common import ExperimentContext

        with pytest.raises(ConfigError):
            ExperimentContext(store=ResultStore(tmp_path),
                              session=Session())

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
                     "register_kind", "kind_names"):
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
