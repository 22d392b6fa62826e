"""Integration tests for the composable memory subsystem (PR 5):
MemorySpec threading through configs/specs/sessions, normalization and
payload stability, per-level stats surfacing, the governor's miss-rate
input, the mem_sweep experiment and the CLI export columns."""

import csv
import json

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.config import CoreConfig
from repro.errors import ConfigError
from repro.mem import CacheLevelSpec, MemorySpec
from repro.session import MachineSpec, Session

#: Tiny budgets: every simulated spec in this file finishes in ~100ms.
N, W = 1200, 2500


def ms(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return MachineSpec(kind=kind, bench=bench, **kw)


# ------------------------------------------------------------- MemorySpec


class TestMemorySpec:
    def test_default_is_legacy_equivalent(self):
        # The paper's Table 2 stack, and the default machine's memory.
        assert MemorySpec() == MemorySpec(
            l1i=CacheLevelSpec(64, 2, 2),
            levels=(CacheLevelSpec(64, 4, 2), CacheLevelSpec(512, 4, 10)),
            line_bytes=32, dram_latency=100)
        assert MemorySpec().is_simple
        assert CoreConfig().mem == MemorySpec()

    def test_non_simple_shapes(self):
        assert not MemorySpec(mshrs=4).is_simple
        assert not MemorySpec(prefetch="stride").is_simple
        assert not MemorySpec(write_policy="back").is_simple
        assert not MemorySpec(
            levels=(CacheLevelSpec(64, 4, 2),)).is_simple

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemorySpec(levels=())
        with pytest.raises(ConfigError):
            MemorySpec(prefetch="psychic")
        with pytest.raises(ConfigError):
            MemorySpec(write_policy="through-the-floor")
        with pytest.raises(ConfigError):
            MemorySpec(mshrs=-1)
        with pytest.raises(ConfigError):
            MemorySpec(line_bytes=48)
        with pytest.raises(ConfigError):
            CacheLevelSpec(0, 4, 2)

    def test_round_trip_through_json(self):
        spec = MemorySpec(mshrs=8, prefetch="stride", write_policy="back",
                          levels=(CacheLevelSpec(32, 2, 2),
                                  CacheLevelSpec(256, 8, 12),
                                  CacheLevelSpec(2048, 8, 30)))
        again = MemorySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert hash(again) == hash(spec)

    def test_labels_are_compact(self):
        assert MemorySpec().label == "ideal"
        assert MemorySpec(mshrs=4).label == "mshr4"
        assert MemorySpec(mshrs=8, prefetch="next_line").label == "mshr8+nl"
        assert MemorySpec(prefetch="stride",
                          write_policy="back").label == "ideal+st+wb"

    def test_labels_distinguish_every_axis(self):
        # Specs differing in any single axis must not collapse to the
        # same ls/CSV label.
        variants = [
            MemorySpec(),
            MemorySpec(dram_latency=150),
            MemorySpec(dram_latency=200),
            MemorySpec(line_bytes=64),
            MemorySpec(l1i=CacheLevelSpec(32, 2, 2)),
            MemorySpec(l1i=CacheLevelSpec(64, 2, 4)),
            MemorySpec(levels=(CacheLevelSpec(64, 4, 2),
                               CacheLevelSpec(256, 4, 10))),
            MemorySpec(levels=(CacheLevelSpec(64, 8, 2),
                               CacheLevelSpec(512, 4, 10))),
            MemorySpec(levels=(CacheLevelSpec(64, 4, 3),
                               CacheLevelSpec(512, 4, 10))),
        ]
        labels = [v.label for v in variants]
        assert len(set(labels)) == len(labels)


# --------------------------------------------------- config/spec threading


class TestSpecThreading:
    def test_explicit_default_spec_is_the_default_machine(self):
        # Spelling out the Table 2 spec (or None) describes the same
        # machine for every kind: equal, one key, one label, no payload.
        from repro.core.sim import get_kind

        assert CoreConfig() == CoreConfig(mem=MemorySpec())
        assert hash(CoreConfig()) == hash(CoreConfig(mem=MemorySpec()))
        assert CoreConfig(mem=None) == CoreConfig()
        for kind in ("baseline", "pipelined_wakeup", "flywheel"):
            explicit = ms(kind=kind,
                          config=get_kind(kind).default_config()
                          .with_variant(mem=MemorySpec()))
            assert explicit == ms(kind=kind)
            assert explicit.cache_key() == ms(kind=kind).cache_key()
            assert explicit.label == ms(kind=kind).label
            assert "mem=" not in explicit.label
            assert "mem" not in explicit.payload()["config"]

    def test_default_payload_has_no_mem_key(self):
        # A default config serializes without a "mem" key (and without
        # the flat "memory" member payloads carried before).
        payload = ms().payload()
        assert "mem" not in payload["config"]
        assert "memory" not in payload["config"]

    def test_non_default_spec_changes_key_and_round_trips(self):
        spec = ms(config=CoreConfig(mem=MemorySpec(mshrs=4)))
        assert spec.cache_key() != ms().cache_key()
        payload = spec.payload()
        assert payload["config"]["mem"]["mshrs"] == 4
        again = RunSpec.from_dict(json.loads(json.dumps(payload)))
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_label_and_variant(self):
        run = ms(config=CoreConfig(mem=MemorySpec(
            mshrs=4, prefetch="next_line")))
        assert "mem=mshr4+nl" in run.label
        assert "mem" not in run.variant()   # rendered via label, not k=v

    def test_mem_axis_composes_with_config_axis(self):
        # A memory variant keeps the config's other fields through the
        # spec's kind normalization (pipelined_wakeup forces its wakeup
        # delay).
        config = CoreConfig(iw_entries=64).with_variant(
            mem=MemorySpec(mshrs=2))
        spec = ms(kind="pipelined_wakeup", config=config)
        assert spec.config.iw_entries == 64
        assert spec.config.wakeup_extra_delay >= 1
        assert spec.config.mem == MemorySpec(mshrs=2)


# ------------------------------------------------------ stats + execution


class TestCacheStatsSurface:
    def test_runner_populates_cache_stats(self):
        result = Session().run(ms())
        cache = result.stats.cache_stats
        assert set(cache) == {"l1i", "l1d", "l2"}
        assert cache["l1d"]["accesses"] > 0
        assert 0.0 < result.stats.cache_hit_rate("l1d") <= 1.0

    def test_mshr_stats_surface_and_round_trip(self, tmp_path):
        spec = ms(bench="stream_copy",
                  config=CoreConfig(mem=MemorySpec(mshrs=2)))
        store = ResultStore(tmp_path)
        result = Session(store=store).run(spec)
        assert result.stats.cache_stats["mshr"]["allocs"] > 0
        assert result.stats.cache_stats["mshr"]["occupancy_avg"] > 0.0
        # Store round trip keeps the whole cache_stats payload.
        warm = Session(store=ResultStore(tmp_path)).run(spec)
        assert warm.stats.cache_stats == result.stats.cache_stats

    def test_explicit_default_spec_is_bit_identical(self):
        # The normalized explicit spelling runs the same machine: every
        # serialized byte matches the default run.
        a = Session().run(ms())
        b = Session().run(ms(config=CoreConfig(mem=MemorySpec())))
        assert a.to_dict() == b.to_dict()

    def test_flywheel_runs_general_path(self):
        from repro.core.sim import get_kind

        config = (get_kind("flywheel").default_config()
                  .with_variant(mem=MemorySpec(mshrs=4)))
        result = Session().run(ms(kind="flywheel", bench="smoke",
                                  config=config))
        assert result.stats.committed >= N
        assert "mshr" in result.stats.cache_stats

    def test_cache_stats_rows_render_both_shapes(self):
        from repro.analysis.report import cache_stats_rows

        result = Session().run(ms(bench="stream_copy",
                                  config=CoreConfig(mem=MemorySpec(
                                      mshrs=2, prefetch="next_line"))))
        rows = {r["level"]: r for r in cache_stats_rows(result.stats)}
        assert 0.0 < rows["l1d"]["hit_rate"] <= 1.0
        assert rows["l1d"]["prefetches"] > 0
        assert rows["mshr"]["occupancy_avg"] > 0.0
        assert rows["mshr"]["accesses"] > 0     # allocs


class TestNonBlockingWins:
    def test_mshr4_beats_blocking_on_stream_copy(self):
        session = Session()
        specs = [ms(bench="stream_copy",
                    config=CoreConfig(mem=MemorySpec(mshrs=m)),
                    instructions=2500, warmup=1500)
                 for m in (1, 4)]
        blocking, nonblocking = session.map(specs)
        assert nonblocking.stats.ipc > blocking.stats.ipc

    def test_mshr4_beats_blocking_on_pointer_chase(self):
        session = Session()
        specs = [ms(bench="pointer_chase",
                    config=CoreConfig(mem=MemorySpec(mshrs=m)),
                    instructions=2500, warmup=1500)
                 for m in (1, 4)]
        blocking, nonblocking = session.map(specs)
        assert nonblocking.stats.ipc > blocking.stats.ipc


class TestMemSweepExperiment:
    def test_rows_and_acceptance_gate(self):
        from repro.experiments.common import ExperimentContext
        from repro.experiments.mem_sweep import MEM_BENCHMARKS, run

        ctx = ExperimentContext(instructions=1500, warmup=1000)
        rows = run(ctx)
        assert len(rows) == 2 * len(MEM_BENCHMARKS)
        by_key = {(r["benchmark"], r["kind"]): r for r in rows}
        gate = by_key[("stream_copy", "baseline")]
        assert gate["nonblocking_wins"]
        assert gate["mshr4"] > gate["blocking"]


# ---------------------------------------------------------- dvfs coupling


class TestMissRateTelemetry:
    def test_occupancy_governor_steps_down_when_membound(self):
        from repro.dvfs import GovernorConfig
        from repro.dvfs.governors import OccupancyGovernor
        from repro.dvfs.telemetry import IntervalTelemetry

        gov = OccupancyGovernor(GovernorConfig(name="occupancy"))
        busy = IntervalTelemetry(committed=100, iw_occ=0.95)
        assert gov.decide(busy) == +1       # compute-bound: step up
        membound = IntervalTelemetry(committed=100, iw_occ=0.95,
                                     l1d_miss_rate=0.7)
        assert gov.decide(membound) == -1   # DRAM-bound: give it back

    def test_controller_reports_interval_miss_rate(self):
        from repro.core.config import ClockPlan
        from repro.dvfs import GovernorConfig
        from repro.dvfs.governors import OccupancyGovernor

        seen = []
        original = OccupancyGovernor.decide

        def spy(self, t):
            seen.append(t.l1d_miss_rate)
            return original(self, t)

        OccupancyGovernor.decide = spy
        try:
            Session().run_workload(
                "baseline", "pointer_chase", max_instructions=N, warmup=W,
                clock=ClockPlan(governor=GovernorConfig(name="occupancy",
                                                        interval=500)))
        finally:
            OccupancyGovernor.decide = original
        assert seen
        assert max(seen) > 0.5              # pointer_chase is DRAM-bound


# --------------------------------------------------------------- CLI layer


class TestCliSurface:
    def _warm_store(self, tmp_path):
        store = ResultStore(tmp_path)
        Session(store=store).run(
            ms(bench="stream_copy",
               config=CoreConfig(mem=MemorySpec(mshrs=2,
                                                prefetch="next_line"))))
        return store

    def test_export_csv_has_memory_columns(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        self._warm_store(tmp_path / "store")
        out = tmp_path / "out.csv"
        assert main(["export", "--csv", str(out),
                     "--store", str(tmp_path / "store")]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["mem"] == "mshr2+nl"
        assert 0.0 < float(row["l1d_hit_rate"]) <= 1.0
        assert float(row["mshr_occ_avg"]) > 0.0
        assert row["mshr_stall_cycles"] != ""

    def test_ls_shows_mem_label(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        self._warm_store(tmp_path / "store")
        assert main(["ls", "--store", str(tmp_path / "store")]) == 0
        assert "mem=mshr2+nl" in capsys.readouterr().out

    def test_ls_json_carries_mem_field(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        self._warm_store(tmp_path / "store")
        assert main(["ls", "--json",
                     "--store", str(tmp_path / "store")]) == 0
        (summary,) = json.loads(capsys.readouterr().out)
        assert summary["mem"] == "mshr2+nl"
