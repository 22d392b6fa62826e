"""Campaign engine: sweep expansion, store round-trips, cache behaviour,
parallel determinism, and the ExperimentContext cache-key fix."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import ResultStore, RunSpec, Sweep, dedup, run_campaign
from repro.campaign.spec import code_fingerprint
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.errors import CampaignError, ConfigError, WorkloadError
from repro.campaign.presets import SIM_EXPERIMENTS
from repro.session import MachineSpec, Session
from repro.workloads.profiles import SPEC_NAMES

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500

#: Tinier still for the per-experiment drift checks, which simulate
#: every experiment's legs (the memory sweep's 20 included).
DRIFT_N, DRIFT_W = 500, 300


def spec(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return RunSpec(kind=kind, bench=bench, **kw)


class TestRunSpec:
    def test_normalization_none_equals_defaults(self):
        assert spec() == spec(config=CoreConfig(), clock=ClockPlan())
        assert spec().cache_key() == spec(config=CoreConfig()).cache_key()

    def test_flywheel_normalizes_fly_and_config(self):
        s = spec(kind="flywheel")
        assert s.fly == FlywheelConfig()
        assert s.config == CoreConfig(phys_regs=512, regread_stages=2)

    def test_cache_key_covers_every_axis(self):
        base = spec()
        variants = [
            spec(bench="ijpeg"),
            spec(kind="flywheel"),
            spec(config=CoreConfig(iw_entries=64)),
            spec(clock=ClockPlan(base_mhz=1200.0)),
            spec(kind="flywheel", clock=ClockPlan(fe_speedup=0.5)),
            spec(seed=7),
            spec(instructions=N + 1),
            spec(warmup=W + 1),
            spec(mem_scale=2.0),
        ]
        keys = {s.cache_key() for s in variants} | {base.cache_key()}
        assert len(keys) == len(variants) + 1

    def test_cache_key_stable_across_calls(self):
        assert spec(seed=3).cache_key() == spec(seed=3).cache_key()

    def test_equal_specs_hash_equal_despite_int_float(self):
        # JSON renders 2 and 2.0 differently; coercion keeps the
        # spec==spec -> key==key invariant.
        assert (spec(mem_scale=2).cache_key()
                == spec(mem_scale=2.0).cache_key())
        assert (spec(clock=ClockPlan(base_mhz=950)).cache_key()
                == spec().cache_key())
        assert (spec(config=CoreConfig(iw_entries=64.0)).cache_key()
                == spec(config=CoreConfig(iw_entries=64)).cache_key())

    def test_config_cache_key_api(self):
        # The config objects are content-addressed through the spec
        # that carries them.
        assert (spec(config=CoreConfig()).cache_key()
                == spec(config=CoreConfig()).cache_key())
        assert (spec(config=CoreConfig(iw_entries=64)).cache_key()
                != spec(config=CoreConfig()).cache_key())
        assert (spec(kind="flywheel", fly=FlywheelConfig(ec_kb=64))
                .cache_key()
                != spec(kind="flywheel", fly=FlywheelConfig()).cache_key())
        assert (spec(clock=ClockPlan(base_mhz=950)).cache_key()
                == spec(clock=ClockPlan()).cache_key())

    def test_code_fingerprint_ignores_presentation_layers(self):
        from repro.campaign.spec import SIM_PACKAGES

        assert "experiments" not in SIM_PACKAGES
        assert "campaign" not in SIM_PACKAGES
        assert "core" in SIM_PACKAGES and "workloads" in SIM_PACKAGES

    def test_cache_key_includes_code_fingerprint(self):
        payload = spec().payload()
        assert "code" not in payload          # payload is pure spec...
        assert len(code_fingerprint()) == 12  # ...key mixes the code hash

    def test_invalid_specs_rejected(self):
        with pytest.raises(CampaignError):
            spec(kind="turbo")
        with pytest.raises(WorkloadError):
            spec(bench="nonesuch")
        with pytest.raises(CampaignError):
            spec(kind="baseline", fly=FlywheelConfig())

    @pytest.mark.parametrize("axes, message", [
        ({"seed": "a"}, "seed must be an int or None"),
        ({"seed": 1.5}, "seed must be an int or None"),
        ({"seed": True}, "seed must be an int or None"),
        ({"mem_scale": 0.0}, "mem_scale must be finite and positive"),
        ({"mem_scale": -1.0}, "mem_scale must be finite and positive"),
        ({"mem_scale": float("nan")}, "mem_scale must be finite"),
        ({"mem_scale": float("inf")}, "mem_scale must be finite"),
        ({"mem_scale": "near"}, "mem_scale must be finite"),
        ({"instructions": 1200.5}, "budgets must be integers"),
        ({"warmup": True}, "budgets must be integers"),
    ], ids=["seed-str", "seed-float", "seed-bool", "mem-zero",
            "mem-negative", "mem-nan", "mem-inf", "mem-str",
            "budget-float", "budget-bool"])
    def test_malformed_axes_are_refused(self, axes, message):
        with pytest.raises(CampaignError, match=message):
            spec(**axes)
        payload = {**spec().to_dict(), **axes}
        with pytest.raises(CampaignError, match=message):
            RunSpec.from_dict(payload)

    @pytest.mark.parametrize("clock", [
        {"base_mhz": 0.0}, {"base_mhz": -950.0},
        {"fe_speedup": -1.0}, {"be_speedup": -2.0},
        {"base_mhz": float("inf")}, {"fe_speedup": float("nan")},
        {"base_mhz": 1e308, "be_speedup": 1.0},
    ], ids=["base-zero", "base-negative", "fe-zero", "be-fast-negative",
            "base-inf", "fe-nan", "be-fast-overflow"])
    def test_clock_plans_without_a_positive_clock_are_refused(self, clock):
        with pytest.raises(ConfigError, match="ClockPlan"):
            ClockPlan(**clock)
        payload = {**spec(kind="flywheel").to_dict(), "clock": clock}
        with pytest.raises(ConfigError, match="ClockPlan"):
            RunSpec.from_dict(payload)

    def test_variant_surfaces_non_default_axes(self):
        assert spec().variant() == {}
        assert spec(config=CoreConfig(iw_entries=64)).variant() == {
            "iw_entries": 64}
        fly_var = spec(kind="flywheel",
                       fly=FlywheelConfig(ec_kb=64, use_srt=False)).variant()
        assert fly_var == {"fly.ec_kb": 64, "fly.use_srt": False}
        assert "iw_entries=64" in spec(
            config=CoreConfig(iw_entries=64)).label

    def test_round_trip_through_dict(self):
        s = spec(kind="flywheel", clock=ClockPlan(fe_speedup=0.25),
                 fly=FlywheelConfig(ec_kb=64), seed=9, mem_scale=1.5)
        again = RunSpec.from_dict(json.loads(json.dumps(s.to_dict())))
        assert again == s
        assert again.cache_key() == s.cache_key()

    @pytest.mark.parametrize("payload, names", [
        (["baseline", "smoke"], "must be an object"),
        ({"kind": "baseline"}, "'bench'"),
        ({"bench": "smoke"}, "'kind'"),
        ({"kind": "baseline", "bench": "smoke", "config": {"iw": 64}},
         "'config'.*'iw'"),
        ({"kind": "baseline", "bench": "smoke", "config": "big"},
         "'config' must be an object"),
        ({"kind": "baseline", "bench": "smoke",
          "config": {"bpred": {"ghr": 12}}}, "'config.bpred'.*'ghr'"),
        ({"kind": "baseline", "bench": "smoke", "config": {"memory": 64}},
         "'config.memory' must be an object"),
        ({"kind": "flywheel", "bench": "smoke", "fly": {"ec": 64}},
         "'fly'.*'ec'"),
        ({"kind": "flywheel", "bench": "smoke", "fly": [64]},
         "'fly' must be an object"),
        ({"kind": "baseline", "bench": "smoke", "clock": {"mhz": 950}},
         "'clock'.*'mhz'"),
        ({"kind": "baseline", "bench": "smoke", "clock": 950},
         "'clock' must be an object"),
        ({"kind": "baseline", "bench": "smoke", "instructions": "many"},
         "malformed spec payload"),
    ], ids=["not-a-dict", "no-bench", "no-kind", "config-key",
            "config-type", "bpred-key", "memory-type", "fly-key",
            "fly-type", "clock-key", "clock-type", "budget-type"])
    def test_malformed_payload_names_the_problem(self, payload, names):
        with pytest.raises(CampaignError, match=names):
            RunSpec.from_dict(payload)


#: Payload members as written before ``CoreConfig.mem`` became the only
#: memory description: every config carried the flat Table 2 ``memory``
#: member, and every Flywheel config ``tag_window``/``max_trace_units``.
_OLD_CONFIG = {
    "bpred": {"btb_entries": 2048, "btb_ways": 4, "history_bits": 12,
              "pht_entries": 2048, "ras_entries": 16},
    "commit_width": 4, "deadlock_window": 0, "decode_width": 4,
    "dispatch_width": 4, "extra_frontend_stages": 0, "fetch_width": 4,
    "fp_adders": 2, "fp_muldivs": 1, "int_alus": 4, "int_muldivs": 2,
    "issue_width": 6, "iw_entries": 128, "lsq_entries": 64, "mem_ports": 2,
    "memory": {"dram_latency": 100, "l1_latency": 2, "l1d_kb": 64,
               "l1d_ways": 4, "l1i_kb": 64, "l1i_ways": 2, "l2_kb": 512,
               "l2_latency": 10, "l2_ways": 4, "line_bytes": 32},
    "phys_regs": 192, "regread_stages": 1, "rename_width": 4,
    "rob_entries": 160, "wakeup_extra_delay": 0}
_OLD_CLOCK = {"base_mhz": 950.0, "be_speedup": 0.0, "fe_speedup": 0.0,
              "governor": None}
#: ``RunSpec("flywheel", "gcc", clock=ClockPlan(fe_speedup=1.0,
#: be_speedup=0.5), fly=FlywheelConfig(ec_kb=64), seed=7,
#: instructions=1000, warmup=500, engine="turbo").to_dict()`` then.
OLD_FLYWHEEL_PAYLOAD = {
    "bench": "gcc",
    "clock": {**_OLD_CLOCK, "be_speedup": 0.5, "fe_speedup": 1.0},
    "config": {**_OLD_CONFIG, "engine": "turbo", "phys_regs": 512,
               "regread_stages": 2},
    "fly": {"default_pool_size": 8, "delay_network": False,
            "ec_block_slots": 8, "ec_bytes_per_slot": 8,
            "ec_enabled": True, "ec_kb": 64, "ec_latency": 3, "ec_ways": 2,
            "max_pool_size": 32, "max_trace_instrs": 768,
            "max_trace_units": 512, "min_pool_size": 2, "pool_regs": 512,
            "redistribution_enabled": True,
            "redistribution_interval": 10000,
            "redistribution_penalty": 100, "sync_cycles": 1,
            "tag_window": 2, "use_srt": True},
    "instructions": 1000, "kind": "flywheel", "mem_scale": 1.0, "seed": 7,
    "warmup": 500}
#: ``RunSpec("pipelined_wakeup", "gcc", config=CoreConfig(
#: mem=MemorySpec(mshrs=4)), instructions=1000, warmup=500).to_dict()``.
OLD_PIPELINED_PAYLOAD = {
    "bench": "gcc", "clock": _OLD_CLOCK,
    "config": {**_OLD_CONFIG, "wakeup_extra_delay": 1, "mem": {
        "dram_latency": 100, "l1i": {"kb": 64, "latency": 2, "ways": 2},
        "levels": [{"kb": 64, "latency": 2, "ways": 4},
                   {"kb": 512, "latency": 10, "ways": 4}],
        "line_bytes": 32, "mshrs": 4, "prefetch": "none",
        "write_policy": "allocate"}},
    "fly": None, "instructions": 1000, "kind": "pipelined_wakeup",
    "mem_scale": 1.0, "seed": None, "warmup": 500}


def old_payload_specs():
    """The specs today's code builds for the two old payloads' runs."""
    from repro.mem import MemorySpec

    return [
        RunSpec("flywheel", "gcc",
                clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5),
                fly=FlywheelConfig(ec_kb=64), seed=7, instructions=1000,
                warmup=500, engine="turbo"),
        RunSpec("pipelined_wakeup", "gcc",
                config=CoreConfig(mem=MemorySpec(mshrs=4)),
                instructions=1000, warmup=500),
    ]


class TestOldPayloads:
    """Payloads carrying ``config.memory`` and the unread Flywheel
    fields (journals, store records) still rebuild their run."""

    def test_old_payloads_rebuild_todays_spec(self):
        for payload, expected in zip(
                (OLD_FLYWHEEL_PAYLOAD, OLD_PIPELINED_PAYLOAD),
                old_payload_specs()):
            again = RunSpec.from_dict(json.loads(json.dumps(payload)))
            assert again == expected
            assert again.cache_key() == expected.cache_key()
            assert again.label == expected.label

    def test_old_payload_shape_is_gone(self):
        data = old_payload_specs()[0].to_dict()
        assert "memory" not in data["config"]
        assert not {"tag_window", "max_trace_units"} & set(data["fly"])

    def test_a_partial_table2_memory_member_is_dropped(self):
        payload = {"kind": "baseline", "bench": "smoke",
                   "config": {"memory": {"l2_kb": 512, "l1_latency": 2}}}
        assert RunSpec.from_dict(payload) == RunSpec("baseline", "smoke")

    @pytest.mark.parametrize("memory", [
        {"l2_kb": 1024}, {"dram_latency": 200}, {"l3_kb": 4096}],
        ids=["l2-size", "dram", "unknown-member"])
    def test_other_memory_member_is_refused(self, memory):
        payload = {"kind": "baseline", "bench": "smoke",
                   "config": {"memory": memory}}
        with pytest.raises(CampaignError, match="'config.memory'"):
            RunSpec.from_dict(payload)

    def test_old_journal_resumes(self, tmp_path):
        from repro.campaign import resume_campaign

        # Written by the code before this payload change: job 0 done
        # (its record, under the old key, is not in this store), job 1
        # never dispatched.
        journal = tmp_path / "campaigns" / "old.jsonl"
        journal.parent.mkdir()
        header = {
            "campaign": "old", "created": 1792445431.3721356,
            "journal": 1,
            "keys": ["52c3386a92303b1e7ac7b225f5a84ad01a270df1",
                     "b8bb3bb77b4876c7448c24d173593f68d09046ea"],
            "options": {"backoff_s": 0.25, "jobs": 1, "retries": 2,
                        "timeout_s": None},
            "specs": [OLD_FLYWHEEL_PAYLOAD, OLD_PIPELINED_PAYLOAD]}
        journal.write_text("\n".join([
            json.dumps(header, sort_keys=True),
            '{"attempt": 1, "job": 0, "state": "running", '
            '"ts": 1792445431.471}',
            '{"job": 0, "source": "run", "state": "done", '
            '"ts": 1792445431.564}']) + "\n")
        store = ResultStore(tmp_path)
        report = resume_campaign("old", store).execute()
        assert (report.total, report.executed, report.quarantined) \
            == (2, 2, [])
        for expected in old_payload_specs():
            assert expected.cache_key() in report.results
            assert expected.cache_key() in store


class TestSweep:
    def test_cross_product_counts(self):
        sweep = Sweep(kinds=("flywheel",), benchmarks=("smoke", "ijpeg"),
                      clocks=(ClockPlan(), ClockPlan(fe_speedup=0.5)),
                      seeds=(1, 2), instructions=N, warmup=W)
        assert len(sweep.expand()) == 2 * 2 * 2

    def test_baseline_leg_collapses_speedup_axis(self):
        # The baseline core only sees base_mhz, so FE/BE speedup points
        # fold into one baseline job per base clock.
        sweep = Sweep(benchmarks=("smoke",),
                      clocks=(ClockPlan(), ClockPlan(fe_speedup=0.5,
                                                     be_speedup=0.5)),
                      instructions=N, warmup=W)
        jobs = sweep.expand()
        assert sum(1 for j in jobs if j.kind == "baseline") == 1
        assert sum(1 for j in jobs if j.kind == "flywheel") == 2

    def test_dedup_preserves_order(self):
        a, b = spec(), spec(bench="ijpeg")
        assert dedup([a, b, a, b, a]) == [a, b]


class TestStore:
    def test_round_trip_exact_stats(self, tmp_path):
        s = spec(kind="flywheel")
        result = s.execute()
        store = ResultStore(tmp_path)
        store.put(s.cache_key(), s, result)
        loaded = store.get(s.cache_key())
        assert loaded is not None
        assert loaded.stats.to_dict() == result.stats.to_dict()
        assert loaded.stats.events == result.stats.events
        assert loaded.clock == result.clock
        assert loaded.kind == "flywheel"
        assert loaded.l2_accesses == result.core.hierarchy.l2.stats.accesses
        assert loaded.core is None

    def test_detached_result_powers_energy_report(self, tmp_path):
        from repro.power import TECH_130, energy_report

        s = spec(kind="flywheel")
        result = s.execute()
        store = ResultStore(tmp_path)
        store.put(s.cache_key(), s, result)
        live = energy_report(result, TECH_130)
        detached = energy_report(store.get(s.cache_key()), TECH_130)
        assert detached.total_pj == pytest.approx(live.total_pj)
        assert detached.by_event == live.by_event

    def test_miss_and_hit_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec()
        assert store.get(s.cache_key()) is None
        store.put(s.cache_key(), s, s.execute())
        assert store.get(s.cache_key()) is not None
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        s = spec()
        store.put(s.cache_key(), s, s.execute())
        store._path(s.cache_key()).write_text("{not json")
        assert store.get(s.cache_key()) is None

    def test_len_and_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        for bench in ("smoke", "ijpeg"):
            s = spec(bench=bench)
            store.put(s.cache_key(), s, s.execute())
        assert len(store) == 2
        assert store.clean() == 2
        assert len(store) == 0


class TestCampaign:
    def jobs(self):
        return Sweep(benchmarks=("smoke",),
                     clocks=(ClockPlan(), ClockPlan(fe_speedup=0.5,
                                                    be_speedup=0.5)),
                     instructions=N, warmup=W).expand()

    def test_second_run_is_all_hits(self, tmp_path):
        jobs = self.jobs()
        first = run_campaign(jobs, store=ResultStore(tmp_path))
        assert (first.hits, first.executed) == (0, len(jobs))
        again = run_campaign(jobs, store=ResultStore(tmp_path))
        assert (again.hits, again.executed) == (len(jobs), 0)
        for job in jobs:
            assert (again.results[job.cache_key()].stats.to_dict()
                    == first.results[job.cache_key()].stats.to_dict())

    def test_parallel_matches_serial(self):
        jobs = [spec(seed=s) for s in (1, 2)] + \
               [spec(kind="flywheel", seed=s) for s in (1, 2)]
        serial = run_campaign(jobs, jobs=1)
        parallel = run_campaign(jobs, jobs=2)
        assert serial.executed == parallel.executed == len(jobs)
        for job in jobs:
            assert (serial.results[job.cache_key()].stats.to_dict()
                    == parallel.results[job.cache_key()].stats.to_dict())

    @pytest.mark.parametrize("workers", (1, 2))
    def test_journaled_campaign_reports_the_same_payload(self, tmp_path,
                                                         workers):
        # The scheduler is callbacks on the one loop: same jobs, same
        # report, journal or not.
        from repro.campaign import submit_campaign

        jobs = self.jobs()
        plain = run_campaign(jobs, store=ResultStore(tmp_path / "plain"),
                             jobs=workers)
        journaled = submit_campaign(jobs, ResultStore(tmp_path / "journal"),
                                    jobs=workers).execute()
        # Byte-identical stats, keyed by cache key.
        assert (json.dumps({key: result.stats.to_dict()
                            for key, result in plain.results.items()},
                           sort_keys=True)
                == json.dumps({key: result.stats.to_dict()
                               for key, result in journaled.results.items()},
                              sort_keys=True))
        assert (plain.hits, plain.executed) == (0, len(jobs))
        assert (journaled.hits, journaled.executed) == (0, len(jobs))

    def test_overlapping_campaign_only_runs_new_jobs(self, tmp_path):
        jobs = self.jobs()
        run_campaign(jobs, store=ResultStore(tmp_path))
        wider = jobs + [spec(bench="ijpeg")]
        report = run_campaign(wider, store=ResultStore(tmp_path))
        assert (report.hits, report.executed) == (len(jobs), 1)


#: Run in a fresh interpreter: one spec SIGKILLs the worker running it.
_KILLED_WORKER = """
import json, multiprocessing, os, signal, sys, time
from repro.campaign import ResultStore, RunSpec, run_campaign
from repro.errors import CampaignError

store_dir, pid_log = sys.argv[1:]
original = RunSpec.execute

def execute(self):
    with open(pid_log, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    if self.seed == 99:
        time.sleep(1.0)          # let the other jobs finish first
        os.kill(os.getpid(), signal.SIGKILL)
    return original(self)

RunSpec.execute = execute        # patched before the workers fork
specs = [RunSpec(kind="baseline", bench="smoke", instructions=1200,
                 warmup=2500, seed=seed) for seed in (99, 1, 2)]
store = ResultStore(store_dir)
try:
    run_campaign(specs, store, jobs=2)
    error = None
except CampaignError as exc:
    error = str(exc)
alive = []
for pid in {int(line) for line in open(pid_log)}:
    try:
        os.kill(pid, 0)
        alive.append(pid)
    except ProcessLookupError:
        pass
print(json.dumps({
    "error": error, "alive": alive,
    "children": len(multiprocessing.active_children()),
    "stored": [s.seed for s in specs if s.cache_key() in store]}))
"""


class TestWorkerFailures:
    """``run_campaign``'s worker path: a failed job raises CampaignError
    naming it, after the jobs that finished are persisted."""

    def test_killed_worker_fails_cleanly(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                 / "src")}
        # The bound turns a hang (a lost job) into a test failure.
        out = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER, str(tmp_path / "store"),
             str(tmp_path / "pids")],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert "seed=99" in report["error"]
        assert "worker" in report["error"]
        assert sorted(report["stored"]) == [1, 2]
        assert report["alive"] == [] and report["children"] == 0

    def test_timeout_names_the_wedged_job(self, tmp_path, monkeypatch):
        original = RunSpec.execute

        def execute(self):
            if self.seed == 99:
                time.sleep(30)
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", execute)
        quick = [spec(seed=1), spec(seed=2)]
        store = ResultStore(tmp_path)
        t0 = time.monotonic()
        with pytest.raises(CampaignError,
                           match=r"exceeded 0\.5s timeout: .*seed=99"):
            run_campaign(quick + [spec(seed=99)], store, jobs=2,
                         timeout_s=0.5)
        assert time.monotonic() - t0 < 10     # nowhere near the 30s sleep
        for job in quick:                     # finished work is kept
            assert job.cache_key() in store

    def test_deadline_starts_at_dispatch(self, monkeypatch):
        original = RunSpec.execute

        def execute(self):
            time.sleep(0.3)
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", execute)
        jobs = [spec(seed=s) for s in (1, 2, 3, 4)]
        t0 = time.monotonic()
        report = run_campaign(jobs, jobs=1, timeout_s=1.0)
        # The last job waited longer than the budget in the queue, and
        # only its own run counts against it.
        assert time.monotonic() - t0 > 1.0
        assert report.executed == 4

    def test_raising_job_chains_the_original_exception(self, monkeypatch):
        original = RunSpec.execute

        def execute(self):
            if self.seed == 2:
                raise ValueError("poisoned spec")
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", execute)
        with pytest.raises(CampaignError,
                           match=r"failed: .*seed=2: poisoned") as info:
            run_campaign([spec(seed=1), spec(seed=2)], jobs=2)
        assert isinstance(info.value.__cause__, ValueError)
        assert "poisoned spec" in str(info.value.__cause__.__cause__)


    def test_jobs_queued_behind_a_failed_one_run_later(self, tmp_path):
        from repro.campaign.executor import Job, run_workers

        def fail_first_attempt(s):
            marker = tmp_path / str(s.seed)
            if s.seed == 1 and not marker.exists():
                marker.write_text("seen")
                raise ValueError("first attempt fails")

        done, failed = [], []

        def retry(job, error, exc):
            failed.append((job.spec.seed, job.attempt))
            return 0.0

        # One worker, no deadline: job 2 is queued behind job 1.
        run_workers([Job(spec(seed=s)) for s in (1, 2, 3)], 1, None,
                    on_done=lambda job, payload, elapsed_s: done.append(
                        (job.spec.seed, job.attempt)),
                    on_failed=retry, hook=fail_first_attempt)
        assert failed == [(1, 1)]
        assert sorted(done) == [(1, 2), (2, 1), (3, 1)]


class TestAffineDispatch:
    """Workers keep to a workload: a worker takes the jobs of the bench it
    ran last before it takes one that another worker's memos hold."""

    BENCHES = ("smoke", "gcc", "ijpeg")

    def legs(self):
        # Leg-major order, so queue order alone would spread every bench
        # over both workers.
        return [spec(bench=bench, instructions=N + 100 * leg)
                for leg in range(4) for bench in self.BENCHES]

    def test_benches_stay_on_their_worker(self, tmp_path, monkeypatch):
        log = tmp_path / "runs"
        original = RunSpec.execute

        def execute(self):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {self.bench}\n")
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", execute)
        legs = self.legs()
        parallel = run_campaign(legs, jobs=2)
        runs = [tuple(line.split()) for line in log.read_text().splitlines()]
        assert len(runs) == len(legs)
        for pid in {pid for pid, _bench in runs}:
            # A worker never comes back to a bench it left.
            mine = [bench for p, bench in runs if p == pid]
            switches = [b for i, b in enumerate(mine) if i == 0
                        or b != mine[i - 1]]
            assert len(switches) == len(set(switches)), mine
        # Each bench runs on one worker, bar at most one handover per
        # worker when the benches run out.
        assert len(set(runs)) <= len(self.BENCHES) + 2, runs
        serial = run_campaign(legs, jobs=1)
        for leg in legs:
            assert (parallel.results[leg.cache_key()].stats.to_dict()
                    == serial.results[leg.cache_key()].stats.to_dict())

    def test_one_worker_dispatches_in_queue_order(self, tmp_path):
        from repro.campaign import submit_campaign

        order = []
        legs = self.legs()
        submit_campaign(legs, ResultStore(tmp_path), jobs=1,
                        dispatch_hook=lambda _spec, index, _attempt:
                        order.append(index)).execute()
        assert order == list(range(len(legs)))


class TestExperimentContext:
    def test_config_override_no_longer_aliases(self):
        """Regression: same (bench, clock, tag) with different config=
        used to silently return the stale cached result."""
        from repro.experiments.common import ExperimentContext

        ctx = ExperimentContext(instructions=N, warmup=W,
                                benchmarks=("smoke",))

        def run(kind, **kw):
            return ctx.session.run(ctx.spec(kind, "smoke", **kw))

        default = run("baseline")
        shrunk = run("baseline", config=CoreConfig(iw_entries=8,
                                                   issue_width=2))
        assert shrunk is not default
        assert shrunk.stats.to_dict() != default.stats.to_dict()
        # Same for a flywheel fly= override.
        full = run("flywheel")
        tiny = run("flywheel", fly=FlywheelConfig(ec_kb=4))
        assert tiny is not full

    @pytest.mark.parametrize("name", SIM_EXPERIMENTS)
    def test_warmed_context_executes_nothing(self, name, tmp_path):
        """Each simulating experiment's table reads only the runs its
        presets list, so a warmed context simulates nothing more."""
        from repro.campaign.presets import EXPERIMENTS, experiment_specs
        from repro.experiments.common import ExperimentContext

        benches = ("smoke",)
        ctx = ExperimentContext(instructions=DRIFT_N, warmup=DRIFT_W,
                                benchmarks=benches,
                                session=Session(store=ResultStore(tmp_path)))
        ctx.warm(experiment_specs((name,), benchmarks=benches,
                                  instructions=DRIFT_N, warmup=DRIFT_W),
                 jobs=2)
        EXPERIMENTS[name].run(ctx)
        assert ctx.executed == 0

    @pytest.mark.parametrize("benches, n, w, jobs, kinds, digest, labels", [
        (SPEC_NAMES, 30_000, 60_000, 330,
         {"flywheel": 230, "baseline": 90, "pipelined_wakeup": 10},
         "882963f4ac56b127f20a09f6959b8cec1d262c2b867210a8a2f371b85cf78ab8",
         "5ec1a053d670145bb3befa4320c8d0405f7dcadd36ddd4bd106913d434e1b629"),
        (("gcc", "ijpeg"), 1000, 2000, 82,
         {"flywheel": 54, "baseline": 26, "pipelined_wakeup": 2},
         "0df0c87770185b8babdd3e12a95daf819683477f18f27d6c3fd9c7f830174dcb",
         "a2c625999c89bce5e601c3283c1dd9070917491e10e60ea81c6e3000d61dbe28"),
    ], ids=["spec-30k", "gcc-ijpeg-1k"])
    def test_campaign_job_list_is_pinned(self, benches, n, w, jobs, kinds,
                                         digest, labels):
        """The all-experiments job list, order included (the order is
        the campaign's dispatch order), and the jobs' labels, which the
        benchmark's result digests hash."""
        import hashlib
        from collections import Counter

        from repro.campaign.presets import EXPERIMENTS, experiment_specs

        specs = experiment_specs(EXPERIMENTS, benchmarks=benches,
                                 instructions=n, warmup=w)
        assert len(specs) == jobs
        assert Counter(s.kind for s in specs) == kinds
        text = json.dumps([s.to_dict() for s in specs])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        text = json.dumps([s.label for s in specs])
        assert hashlib.sha256(text.encode()).hexdigest() == labels

    def test_turbo_labels_are_pinned(self):
        """The labels of the benchmark's ``flywheel-turbo`` legs, which
        carry ``engine=turbo``."""
        import hashlib

        from repro.campaign.presets import experiment_specs

        labels = [MachineSpec.from_run_spec(s).replace(engine="turbo").label
                  for s in experiment_specs(SIM_EXPERIMENTS,
                                            benchmarks=("gcc",),
                                            instructions=1000, warmup=2000,
                                            seed=7)
                  if s.kind == "flywheel"]
        assert len(labels) == 32
        assert labels[1] == "flywheel/gcc engine=turbo seed=7"
        assert (hashlib.sha256(json.dumps(labels).encode()).hexdigest()
                == "b5e993872ccc10f876ff8500ed05a712179f532ef0e4c5df2e099d5dec238a50")

    def test_campaign_tables_match_serial_path(self, tmp_path):
        """The acceptance check in miniature: rows computed from a
        parallel, store-backed campaign equal the serial in-process ones."""
        from repro.campaign.presets import experiment_specs
        from repro.experiments import fig12_performance
        from repro.experiments.common import ExperimentContext

        benches = ("smoke",)
        serial_ctx = ExperimentContext(instructions=N, warmup=W,
                                       benchmarks=benches)
        serial_rows = fig12_performance.run(serial_ctx)

        camp_ctx = ExperimentContext(
            instructions=N, warmup=W, benchmarks=benches,
            session=Session(store=ResultStore(tmp_path)))
        camp_ctx.warm(experiment_specs(("fig12",), benchmarks=benches,
                                       instructions=N, warmup=W), jobs=2)
        camp_rows = fig12_performance.run(camp_ctx)
        assert camp_rows == serial_rows
        assert camp_ctx.executed == 0

    def test_seed_threads_into_runs(self):
        from repro.experiments.common import ExperimentContext

        a, b = (ExperimentContext(instructions=N, warmup=W, seed=seed)
                for seed in (1, 2))
        assert (a.session.run(a.spec("baseline", "smoke")).stats.to_dict()
                != b.session.run(b.spec("baseline", "smoke")).stats.to_dict())


class TestMemScaleSymmetry:
    def test_flywheel_accepts_and_honours_mem_scale(self):
        fast = Session().run_workload(
            "flywheel", "smoke", max_instructions=N, warmup=W, mem_scale=1.0)
        slow = Session().run_workload(
            "flywheel", "smoke", max_instructions=N, warmup=W, mem_scale=8.0)
        assert slow.stats.total_be_cycles > fast.stats.total_be_cycles

    def test_matches_baseline_api(self):
        base = Session().run_workload(
            "baseline", "smoke", max_instructions=N, warmup=W, mem_scale=8.0)
        fly = Session().run_workload(
            "flywheel", "smoke", max_instructions=N, warmup=W, mem_scale=8.0)
        assert base.stats.committed > 0 and fly.stats.committed > 0

    def test_context_threads_mem_scale(self):
        from repro.experiments.common import ExperimentContext

        ctx = ExperimentContext(instructions=N, warmup=W)
        near = ctx.session.run(ctx.spec("flywheel", "smoke"))
        far = ctx.session.run(ctx.spec("flywheel", "smoke", mem_scale=8.0))
        assert far is not near
        assert far.stats.total_be_cycles > near.stats.total_be_cycles


class TestCampaignCli:
    def run_cli(self, *argv):
        from repro.campaign.__main__ import main

        return main(list(argv))

    def test_run_ls_export_clean(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        csv_path = str(tmp_path / "out.csv")
        args = ["--experiments", "residency", "--benchmarks", "smoke",
                "--instructions", str(N), "--warmup", str(W),
                "--store", store, "--quiet"]
        assert self.run_cli("run", *args) == 0
        first = capsys.readouterr()
        assert "0 from cache" in first.err
        # Not journaled: a killed `run` reruns from the store instead.
        assert not (Path(store) / "campaigns").exists()

        # Immediately repeated invocation: zero new simulations.
        assert self.run_cli("run", *args) == 0
        second = capsys.readouterr()
        assert "1 from cache, 0 simulated" in second.err
        assert "0 misses" in second.err
        # ...and bit-identical tables.
        assert second.out == first.out

        assert self.run_cli("ls", "--store", store) == 0
        assert "flywheel/smoke" in capsys.readouterr().out

        assert self.run_cli("export", "--store", store, "--csv",
                            csv_path) == 0
        header, row = open(csv_path).read().strip().splitlines()
        assert "ipc" in header and "smoke" in row

        assert self.run_cli("clean", "--store", store) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_ls_and_export_json(self, tmp_path, capsys):
        """Machine-readable store inspection: ls --json summaries and the
        lossless export --json record dump both parse and agree."""
        import json

        store = str(tmp_path / "cache")
        assert self.run_cli(
            "run", "--experiments", "residency", "--benchmarks", "smoke",
            "--instructions", str(N), "--warmup", str(W),
            "--store", store, "--quiet", "--no-tables") == 0
        capsys.readouterr()

        assert self.run_cli("ls", "--json", "--store", store) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["kind"] == "flywheel"
        assert summary["bench"] == "smoke"
        assert summary["committed"] >= N
        assert summary["governor"] is None
        assert summary["ipc"] > 0

        json_path = str(tmp_path / "out.json")
        assert self.run_cli("export", "--json", json_path,
                            "--store", store) == 0
        records = json.loads(open(json_path).read())
        assert len(records) == 1
        assert records[0]["key"] == summary["key"]
        assert records[0]["spec"]["bench"] == "smoke"
        assert records[0]["result"]["stats"]["committed"] >= N

        # Stdout variant parses too.
        assert self.run_cli("export", "--json", "--store", store) == 0
        assert json.loads(capsys.readouterr().out)[0]["key"] \
            == summary["key"]

    def test_ls_json_marks_damaged_records(self, tmp_path, capsys):
        from repro.campaign.store import ResultStore

        store_dir = str(tmp_path / "cache")
        store = ResultStore(store_dir)
        s = RunSpec(kind="baseline", bench="smoke", instructions=N,
                    warmup=W)
        store.put(s.cache_key(), s, s.execute())
        # Schema-valid JSON whose payload cannot be summarized.
        path = store._path(s.cache_key())
        record = json.loads(path.read_text())
        record["result"] = {"stats": "not-a-dict"}
        path.write_text(json.dumps(record))

        assert self.run_cli("ls", "--json", "--store", store_dir) == 0
        out = capsys.readouterr()
        rows = json.loads(out.out)
        assert rows == [{"key": s.cache_key(), "damaged": True}]
        assert "1 of 1 record(s)" in out.err

    def test_dry_run_lists_jobs(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--experiments", "fig11", "--benchmarks", "smoke",
            "--instructions", str(N), "--warmup", str(W),
            "--store", str(tmp_path), "--dry-run") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3  # base + 2 flywheel

    def test_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        assert self.run_cli("run", "--experiments", "fig99",
                            "--store", str(tmp_path)) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestObservabilityOnCampaign:
    """PR-6 satellites: elapsed wall time in store records, and the
    trace axis participating in content addressing."""

    def test_trace_axis_changes_cache_key(self):
        from repro.obs import TraceSpec

        base = spec()
        traced = spec(config=CoreConfig(trace=TraceSpec(buffer=1024)))
        other = spec(config=CoreConfig(trace=TraceSpec(buffer=2048)))
        assert len({base.cache_key(), traced.cache_key(),
                    other.cache_key()}) == 3

    def test_untraced_payload_has_no_trace_key(self):
        from repro.obs import TraceSpec

        # Payload byte-compat with pre-TraceSpec records: trace=None is
        # dropped, exactly like mem=None.
        payload = spec().payload()
        assert "trace" not in payload["config"]
        traced = spec(config=CoreConfig(trace=TraceSpec(buffer=512)))
        assert traced.payload()["config"]["trace"]["buffer"] == 512

    def test_executor_records_elapsed_wall_time(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign([spec()], store=store)
        record = next(store.records())
        assert record["elapsed_s"] > 0

    def test_parallel_executor_records_elapsed(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign([spec(seed=1), spec(seed=2)], store=store, jobs=2)
        for record in store.records():
            assert record["elapsed_s"] > 0

    def test_ls_summary_surfaces_elapsed(self, tmp_path):
        from repro.campaign.__main__ import _ls_line, _ls_summary

        store = ResultStore(tmp_path)
        run_campaign([spec()], store=store)
        summary = _ls_summary(next(store.records()))
        assert summary["elapsed_s"] > 0
        assert "elapsed=" in _ls_line(summary)

    def test_csv_export_has_elapsed_column(self, tmp_path, capsys):
        from repro.campaign.__main__ import main as campaign_main

        store_dir = tmp_path / "store"
        run_campaign([spec()], store=ResultStore(store_dir))
        out_csv = tmp_path / "out.csv"
        assert campaign_main(["export", "--store", str(store_dir),
                              "--csv", str(out_csv)]) == 0
        header, row = out_csv.read_text().splitlines()[:2]
        idx = header.split(",").index("elapsed_s")
        assert float(row.split(",")[idx]) > 0

    def test_traced_result_survives_worker_process(self, tmp_path):
        from repro.obs import TraceSpec

        traced = spec(config=CoreConfig(trace=TraceSpec(buffer=2048)))
        store = ResultStore(tmp_path)
        # jobs=2 with a single miss still uses the pool when timeout set;
        # force the parallel path to cover pickling of traced results.
        report = run_campaign([traced], store=store, jobs=2, timeout_s=120)
        result = report.results[traced.cache_key()]
        assert result.trace is not None
        assert result.trace["events"]


class TestStoreEngineMetadata:
    def test_put_records_engine_top_level(self, tmp_path):
        store = ResultStore(tmp_path)
        legacy = spec(config=CoreConfig(engine="legacy"))
        store.put(legacy.cache_key(), legacy, legacy.execute())
        record = next(store.records())
        assert record["engine"] == "legacy"

    def test_turbo_engine_recorded(self, tmp_path):
        store = ResultStore(tmp_path)
        turbo = spec(config=CoreConfig(engine="turbo"))
        store.put(turbo.cache_key(), turbo, turbo.execute())
        record = next(store.records())
        assert record["engine"] == "turbo"

    def test_ls_summary_engine_falls_back_to_spec(self, tmp_path):
        """Records written before the engine metadata still summarize."""
        from repro.campaign.__main__ import _ls_summary

        store = ResultStore(tmp_path)
        s = spec()
        store.put(s.cache_key(), s, s.execute())
        path = store._path(s.cache_key())
        record = json.loads(path.read_text())
        del record["engine"]
        path.write_text(json.dumps(record))
        assert _ls_summary(next(store.records()))["engine"] == "legacy"

    @pytest.mark.parametrize("spec_engine, shown",
                             ((None, "legacy"), ("turbo", "turbo")))
    def test_engineless_record_shows_one_engine_everywhere(
            self, tmp_path, capsys, spec_engine, shown):
        """A record written before the engine metadata names the same
        engine in ``ls --json``, both exports and a ``diff`` row."""
        import csv
        import io

        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path)
        s = spec()
        store.put(s.cache_key(), s, s.execute())
        path = store._path(s.cache_key())
        record = json.loads(path.read_text())
        del record["engine"]
        if spec_engine is not None:
            record["spec"]["config"]["engine"] = spec_engine
        path.write_text(json.dumps(record))

        def cli(*argv):
            assert campaign_main([*argv, "--store", str(tmp_path)]) == 0
            return capsys.readouterr().out

        (listed,) = json.loads(cli("ls", "--json"))
        (row,) = csv.DictReader(io.StringIO(cli("export", "--csv", "-")))
        (exported,) = json.loads(cli("export", "--json", "-"))
        (pair,) = json.loads(cli("diff", "kind=baseline", "kind=baseline",
                                 "--json"))["pairs"]
        assert [listed["engine"], row["engine"], exported["engine"],
                pair["axes"]["engine"]] == [shown] * 4

    @pytest.mark.parametrize("first", ("default", "legacy"))
    def test_engines_share_a_key_and_record_the_one_that_ran(
            self, tmp_path, first):
        default = MachineSpec("baseline", "smoke", instructions=N,
                              warmup=W)
        legacy = default.replace(engine="legacy")
        assert default.cache_key() == legacy.cache_key()
        assert default.label != legacy.label
        session = Session(store=tmp_path)
        specs = {"default": default, "legacy": legacy}
        order = [specs[first]] + [s for name, s in specs.items()
                                  if name != first]
        results = [session.run(s) for s in order]
        assert (session.executed, session.hits) == (1, 1)
        assert results[0] is results[1]
        (record,) = ResultStore(tmp_path).records()
        assert record["engine"] == ("turbo" if first == "default"
                                    else "legacy")
        assert record["spec"]["config"].get("engine") == (
            None if first == "default" else "legacy")
        # A spec shipped as a dict (scheduler workers, the service)
        # keeps the engine it names.
        assert RunSpec.from_dict(legacy.to_dict()).config.engine == "legacy"
        assert "engine" not in default.to_dict()["config"]


class TestLsElapsedAlignment:
    def _line(self, elapsed):
        from repro.campaign.__main__ import _ls_line

        summary = {
            "key": "k" * 40, "created": 1700000000.0, "code": "abc123def456",
            "engine": "legacy", "kind": "baseline", "bench": "smoke",
            "seed": None, "instructions": N, "warmup": W, "mem_scale": 1.0,
            "base_mhz": 400.0, "fe_speedup": None, "be_speedup": None,
            "governor": None, "mem": "", "variant": "",
            "committed": N, "cycles": 1000, "ipc": 1.2,
            "sim_time_ps": 1, "dvfs_retunes": 0, "elapsed_s": elapsed,
        }
        return _ls_line(summary)

    def test_none_and_value_rows_align(self):
        lines = [self._line(e) for e in (None, 0.05, 3.5, 1234.56)]
        columns = {line.index("baseline/smoke") for line in lines}
        assert len(columns) == 1
        assert "elapsed=       -" in lines[0]
        assert "elapsed=   0.05s" in lines[1]
        assert "elapsed=1234.56s" in lines[3]


class TestExportEngineColumns:
    def test_csv_has_code_and_engine_columns(self, tmp_path, capsys):
        from repro.campaign.__main__ import main as campaign_main

        store_dir = tmp_path / "store"
        run_campaign([spec()], store=ResultStore(store_dir))
        out_csv = tmp_path / "out.csv"
        assert campaign_main(["export", "--store", str(store_dir),
                              "--csv", str(out_csv)]) == 0
        header, row = out_csv.read_text().splitlines()[:2]
        cols = header.split(",")
        values = row.split(",")
        assert values[cols.index("engine")] == "turbo"   # the default
        # The code column matches the live fingerprint, making CSV rows
        # joinable with perf-history snapshots.
        assert values[cols.index("code")] == code_fingerprint()

    def test_export_json_augments_engineless_records(self, tmp_path,
                                                     capsys):
        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path / "store")
        s = spec()
        store.put(s.cache_key(), s, s.execute())
        path = store._path(s.cache_key())
        record = json.loads(path.read_text())
        del record["engine"]          # simulate a pre-engine-PR record
        path.write_text(json.dumps(record))
        assert campaign_main(["export", "--json", "--store",
                              str(store.root)]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported[0]["engine"] == "legacy"


class TestDiffAcrossCodeVersions:
    def _put_as(self, store, s, code, created, monkeypatch):
        """Store one executed spec under a forced code fingerprint."""
        monkeypatch.setattr("repro.campaign.spec.code_fingerprint",
                            lambda: code)
        monkeypatch.setattr("repro.campaign.store.code_fingerprint",
                            lambda: code)
        key = s.cache_key()
        store.put(key, s, s.execute())
        path = store._path(key)
        record = json.loads(path.read_text())
        record["created"] = created
        path.write_text(json.dumps(record))

    def test_latest_vs_prev_pairs_identical_specs(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path / "store")
        s = spec()
        self._put_as(store, s, "old0000code0", 1000.0, monkeypatch)
        self._put_as(store, s, "new0000code0", 2000.0, monkeypatch)
        monkeypatch.undo()
        assert campaign_main(["diff", "prev", "latest",
                              "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "prev (code=old0000code0)" in out
        assert "latest (code=new0000code0)" in out
        # Identical simulator output on both sides: one pair, no
        # statistically flagged deltas.
        assert "1 pair(s), 0 flagged delta(s)" in out

    def test_code_prefix_selector(self, tmp_path, monkeypatch, capsys):
        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path / "store")
        s = spec()
        self._put_as(store, s, "old0000code0", 1000.0, monkeypatch)
        self._put_as(store, s, "new0000code0", 2000.0, monkeypatch)
        monkeypatch.undo()
        assert campaign_main(["diff", "code=old", "code=new", "--store",
                              str(store.root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["pairs"]) == 1
        assert report["a"]["codes"] == ["old0000code0"]
        assert report["b"]["codes"] == ["new0000code0"]


    def test_records_from_before_the_payload_change_pair(
            self, tmp_path, monkeypatch, capsys):
        """An old-format record (flat ``config.memory``, unread ``fly``
        members) pairs with today's record of the same run."""
        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path / "store")
        run = old_payload_specs()[0]
        self._put_as(store, run, "old0000code0", 1000.0, monkeypatch)
        path = store._path(run.cache_key())
        record = json.loads(path.read_text())
        record["spec"] = OLD_FLYWHEEL_PAYLOAD
        path.write_text(json.dumps(record))
        self._put_as(store, run, "new0000code0", 2000.0, monkeypatch)
        monkeypatch.undo()
        assert campaign_main(["diff", "prev", "latest",
                              "--store", str(store.root)]) == 0
        assert "1 pair(s), 0 flagged delta(s); 0 only in A, 0 only in B" \
            in capsys.readouterr().out


class TestDiffLabels:
    def test_config_variants_get_distinct_labels(self, tmp_path, capsys):
        """Two baselines that differ only in a config field (fig2's
        plain and ``extra_frontend_stages=1`` legs) label apart in the
        rows, the JSON and the ``only in`` lines."""
        from repro.campaign.__main__ import main as campaign_main

        store = ResultStore(tmp_path)
        plain = spec(instructions=300, warmup=100)
        deep = spec(instructions=300, warmup=100,
                    config=CoreConfig(extra_frontend_stages=1))
        slow = spec(instructions=300, warmup=100,
                    clock=ClockPlan(base_mhz=400))
        for s in (plain, deep, slow):
            store.put(s.cache_key(), s, s.execute())
        assert campaign_main(["diff", "kind=baseline", "kind=baseline",
                              "--store", str(tmp_path), "--json"]) == 0
        labels = [p["label"] for p in
                  json.loads(capsys.readouterr().out)["pairs"]]
        assert sorted(labels) == [
            "baseline/smoke 400MHz engine=turbo",
            "baseline/smoke 950MHz engine=turbo",
            "baseline/smoke 950MHz engine=turbo [extra_frontend_stages=1]"]
        assert campaign_main(["diff", "base_mhz=950", "base_mhz=400",
                              "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 pair(s)" in out
        assert ("only in A: baseline/smoke 950MHz engine=turbo "
                "[extra_frontend_stages=1]") in out


class TestBadInputEndsInAnError:
    """Bad limits, timeouts and output paths end in ``CampaignError``
    (``error: ...`` and exit 1 on the CLIs), before any work."""

    def cli(self, capsys, *argv):
        from repro.campaign.__main__ import main as campaign_main

        code = campaign_main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_store_listings_refuse_a_negative_limit(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(CampaignError, match="limit must be >= 0"):
            store.records(limit=-1)
        with pytest.raises(CampaignError, match="limit must be >= 0"):
            store.query(limit=-1)

    def test_ls_refuses_a_negative_limit(self, tmp_path, capsys):
        code, err = self.cli(capsys, "ls", "--limit", "-1",
                             "--store", str(tmp_path))
        assert code == 1 and "error: limit must be >= 0" in err

    def test_diff_refuses_a_negative_limit(self, tmp_path, capsys):
        code, err = self.cli(capsys, "diff", "kind=baseline",
                             "kind=baseline", "--limit", "-1",
                             "--store", str(tmp_path))
        assert code == 1 and "error: --limit must be >= 0" in err

    @pytest.mark.parametrize("timeout", [-1, 0])
    def test_run_campaign_refuses_a_non_positive_timeout(self, tmp_path,
                                                         timeout):
        store = ResultStore(tmp_path)
        with pytest.raises(CampaignError, match="timeout must be positive"):
            run_campaign([spec()], store=store, timeout_s=timeout)
        assert len(store) == 0

    def test_submit_campaign_refuses_it_before_the_journal(self, tmp_path):
        from repro.campaign import submit_campaign

        with pytest.raises(CampaignError, match="timeout must be positive"):
            submit_campaign([spec()], ResultStore(tmp_path), timeout_s=-1)
        assert not (tmp_path / "campaigns").exists()

    def test_campaign_run_refuses_a_negative_timeout(self, tmp_path,
                                                     capsys):
        code, err = self.cli(capsys, "run", "--experiments", "fig2",
                             "--benchmarks", "gcc", "--instructions", "300",
                             "--warmup", "100", "--timeout", "-1",
                             "--store", str(tmp_path))
        assert code == 1 and "error: timeout must be positive" in err
        assert len(ResultStore(tmp_path)) == 0

    def test_experiments_cli_refuses_a_negative_timeout(self, tmp_path,
                                                        capsys):
        """The alias ends bad input in campaign run's error line."""
        from repro.experiments.__main__ import main as experiments_main

        for argv, message in (
                (["fig2", "--benchmarks", "gcc", "--instructions", "300",
                  "--warmup", "100", "--timeout", "-1"],
                 "error: timeout must be positive"),
                (["fig11", "--benchmarks", "smoke", "--instructions", "0"],
                 "error: instruction budgets must be instructions >= 1")):
            assert experiments_main([*argv, "--store", str(tmp_path)]) == 1
            out = capsys.readouterr()
            assert message in out.err
            assert "Traceback" not in out.err and not out.out
            assert len(ResultStore(tmp_path)) == 0

    @pytest.mark.parametrize("argv", [
        ["export", "--csv", "{missing}/x.csv"],
        ["export", "--json", "{missing}/x.json"],
        ["diff", "kind=baseline", "kind=baseline", "--html",
         "{missing}/x.html"],
    ], ids=["export-csv", "export-json", "diff-html"])
    def test_unwritable_output_path(self, tmp_path, capsys, argv):
        s = spec(instructions=300, warmup=100)
        ResultStore(tmp_path).put(s.cache_key(), s, s.execute())
        path = argv[-1].format(missing=tmp_path / "none")
        code, err = self.cli(capsys, *argv[:-1], path,
                             "--store", str(tmp_path))
        assert code == 1
        assert f"error: cannot write {path}: " in err
