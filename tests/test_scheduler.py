"""Resumable scheduler: journal replay, retry/backoff, quarantine,
per-job timeout, and crash-resume equivalence."""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRun,
    ResultStore,
    RunSpec,
    list_campaigns,
    resume_campaign,
    submit_campaign,
)
from repro.errors import CampaignError

#: Tiny budgets: every simulated spec in this file finishes in ~50ms.
N, W = 1200, 2500


def spec(kind="baseline", bench="smoke", **kw):
    kw.setdefault("instructions", N)
    kw.setdefault("warmup", W)
    return RunSpec(kind=kind, bench=bench, **kw)


def specs(n):
    return [spec(seed=i + 1) for i in range(n)]


def stats_payload(report):
    """Every result's stats as canonical JSON, keyed by cache key. It
    holds no wall-clock field, so a resumed campaign's must equal an
    uninterrupted one's byte for byte."""
    return json.dumps({key: result.stats.to_dict()
                       for key, result in report.results.items()},
                      sort_keys=True)


def fail_once_hook(marker_dir):
    """Worker hook: first attempt per key raises, later attempts pass."""
    def hook(s):
        marker = Path(marker_dir) / s.cache_key()
        if not marker.exists():
            marker.write_text("seen")
            raise RuntimeError("injected first-attempt failure")
    return hook


def always_fail_hook(s):
    raise ValueError("this spec is poisoned")


def sleepy_hook(s):
    time.sleep(30)


def pid_hook(log, inner=None):
    """Worker hook: log "<pid> <key>" per attempt, then run ``inner``."""
    def hook(s):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {s.cache_key()}\n")
        if inner is not None:
            inner(s)
    return hook


def attempts(log):
    """[(pid, key)] per attempt, in the order the attempts started."""
    return [tuple(line.split())
            for line in Path(log).read_text().splitlines()]


class TestSchedulerBasics:
    def test_cold_run_then_resume_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(specs(3), store, jobs=2)
        report = scheduler.execute()
        assert report.executed == 3 and report.hits == 0
        assert not report.quarantined
        assert scheduler.run.complete

        resumed = resume_campaign(scheduler.run.campaign_id, store)
        report2 = resumed.execute()
        assert report2.hits == 3 and report2.executed == 0
        assert stats_payload(report2) == stats_payload(report)

    def test_event_stream_shape(self, tmp_path):
        events = []
        scheduler = submit_campaign(specs(2), ResultStore(tmp_path),
                                    jobs=2, on_event=events.append)
        scheduler.execute()
        kinds = [e.event for e in events]
        assert kinds[0] == "plan" and kinds[-1] == "summary"
        assert kinds.count("result") == 2
        assert all(e.source == "run" for e in events
                   if e.event == "result")
        summary = events[-1]
        assert summary.executed == 2 and summary.hits == 0
        assert summary.done == summary.total == 2

    def test_options_journaled_and_overridable(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(specs(1), store, jobs=3,
                                    timeout_s=42.0, retries=5)
        cid = scheduler.run.campaign_id
        resumed = resume_campaign(cid, store)
        assert resumed.jobs == 3
        assert resumed.timeout_s == 42.0
        assert resumed.retries == 5
        overridden = resume_campaign(cid, store, jobs=1, retries=0)
        assert overridden.jobs == 1 and overridden.retries == 0
        assert overridden.timeout_s == 42.0

    def test_a_journaled_zero_timeout_resumes_without_one(self, tmp_path):
        # Journals written before non-positive timeouts were refused
        # may carry 0, which then meant "no timeout".
        run = CampaignRun.create(tmp_path, specs(1),
                                 options={"jobs": 1, "timeout_s": 0})
        resumed = resume_campaign(run.campaign_id, ResultStore(tmp_path))
        assert resumed.timeout_s is None
        assert resumed.execute().executed == 1


class TestFailureHandling:
    def test_retry_with_backoff_then_success(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        markers = tmp_path / "markers"
        markers.mkdir()
        scheduler = submit_campaign(
            specs(2), store, jobs=2, retries=2, backoff_s=0.01,
            worker_hook=fail_once_hook(str(markers)))
        report = scheduler.execute()
        assert report.executed == 2
        assert report.retried == 2          # one failed attempt per job
        assert not report.quarantined
        # The journal kept the failed attempts on record.
        run = CampaignRun.load(store.root, scheduler.run.campaign_id)
        assert all(job.state == "done" for job in run.jobs)
        assert all(job.attempts == 2 for job in run.jobs)

    def test_quarantine_does_not_abort_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = spec(seed=1), spec(seed=2, bench="gcc")

        def poison_gcc(s):
            if s.bench == "gcc":
                raise ValueError("this spec is poisoned")

        events = []
        scheduler = submit_campaign(
            [good, bad], store, jobs=1, retries=1, backoff_s=0.01,
            worker_hook=poison_gcc, on_event=events.append)
        report = scheduler.execute()
        assert report.executed == 1
        assert len(report.quarantined) == 1
        assert "poisoned" in report.quarantined[0]["error"]
        assert "Traceback" in report.quarantined[0]["error"]
        assert "quarantined" in report.summary()
        assert any(e.event == "quarantine" and e.error for e in events)
        # Journal: quarantined state with traceback, campaign complete.
        run = CampaignRun.load(store.root, scheduler.run.campaign_id)
        states = {job.key: job.state for job in run.jobs}
        assert states[bad.cache_key()] == "quarantined"
        assert states[good.cache_key()] == "done"
        assert run.complete
        # Resume does not retry quarantined jobs.
        report2 = resume_campaign(scheduler.run.campaign_id, store,
                                  worker_hook=poison_gcc).execute()
        assert report2.hits == 1 and report2.executed == 0
        assert len(report2.quarantined) == 1

    def test_timeout_terminates_wedged_worker(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = submit_campaign(
            specs(1), store, jobs=1, timeout_s=0.5, retries=0,
            backoff_s=0.01, worker_hook=sleepy_hook)
        t0 = time.monotonic()
        report = scheduler.execute()
        assert time.monotonic() - t0 < 20   # nowhere near the 30s sleep
        assert len(report.quarantined) == 1
        assert "timeout" in report.quarantined[0]["error"]


class TestPersistentWorkers:
    def test_workers_serve_many_jobs(self, tmp_path):
        log = tmp_path / "pids"
        report = submit_campaign(specs(4), ResultStore(tmp_path / "store"),
                                 jobs=2, worker_hook=pid_hook(log)).execute()
        assert report.executed == 4
        runs = attempts(log)
        assert len(runs) == 4
        assert len({pid for pid, _key in runs}) <= 2

    def test_failed_attempt_retires_its_worker(self, tmp_path):
        log, markers = tmp_path / "pids", tmp_path / "markers"
        markers.mkdir()
        report = submit_campaign(
            specs(3), ResultStore(tmp_path / "store"), jobs=2, retries=1,
            backoff_s=0.01,
            worker_hook=pid_hook(log, fail_once_hook(str(markers)))
        ).execute()
        assert report.executed == 3 and report.retried == 3
        first_seen, failed_pids = set(), set()
        for pid, key in attempts(log):
            if key in first_seen:      # a retry, on a worker that never failed
                assert pid not in failed_pids
            else:                      # the failing first attempt
                first_seen.add(key)
                failed_pids.add(pid)

    def test_dead_worker_is_replaced_and_the_job_retried(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()

        def die_once(s):
            marker = markers / s.cache_key()
            if not marker.exists():
                marker.write_text("seen")
                os.kill(os.getpid(), signal.SIGKILL)

        report = submit_campaign(
            specs(2), ResultStore(tmp_path / "store"), jobs=2, retries=1,
            backoff_s=0.01, worker_hook=die_once).execute()
        assert report.executed == 2 and report.retried == 2
        assert not report.quarantined


class _Crash(BaseException):
    """Raised by the dispatch hook; BaseException so nothing swallows it."""


class TestCrashResume:
    def test_resume_executes_exactly_the_remaining_jobs(self, tmp_path):
        jobs = specs(4)
        store = ResultStore(tmp_path / "a")
        dispatches = []

        def crash_on_third(s, index, attempt):
            dispatches.append(index)
            if len(dispatches) == 3:
                raise _Crash("injected scheduler crash")

        scheduler = submit_campaign(jobs, store, jobs=1,
                                    dispatch_hook=crash_on_third)
        cid = scheduler.run.campaign_id
        with pytest.raises(_Crash):
            scheduler.execute()

        # The journal alone knows the split: 2 done, 2 owed.
        run = CampaignRun.load(store.root, cid)
        counts = run.state_counts()
        assert counts["done"] == 2 and counts["pending"] == 2
        assert not run.complete

        events = []
        report = resume_campaign(cid, store,
                                 on_event=events.append).execute()
        assert report.executed == 2          # exactly N - K, no rework
        assert report.hits == 2
        assert report.total == 4
        assert CampaignRun.load(store.root, cid).complete
        sources = [e.source for e in events if e.event == "result"]
        assert sources.count("store") == 2 and sources.count("run") == 2

        # Byte-identical final report vs. an uninterrupted campaign.
        clean = submit_campaign(jobs, ResultStore(tmp_path / "b"),
                                jobs=1).execute()
        assert stats_payload(report) == stats_payload(clean)

    def test_kill_mid_flight_folds_running_back_to_pending(self, tmp_path):
        store = ResultStore(tmp_path)
        run = CampaignRun.create(store.root, specs(2))
        run.record(0, "running", attempt=1)   # then the process dies
        reloaded = CampaignRun.load(store.root, run.campaign_id)
        assert [j.state for j in reloaded.jobs] == ["pending", "pending"]


class TestJournal:
    def test_create_rejects_empty_and_duplicate(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRun.create(tmp_path, [])
        CampaignRun.create(tmp_path, specs(1), campaign_id="dup")
        with pytest.raises(CampaignError):
            CampaignRun.create(tmp_path, specs(1), campaign_id="dup")

    def test_load_tolerates_torn_tail(self, tmp_path):
        run = CampaignRun.create(tmp_path, specs(2))
        run.record(0, "done", source="run")
        with open(run.path, "a", encoding="utf-8") as fh:
            fh.write('{"job": 1, "state": "don')   # SIGKILL mid-append
        reloaded = CampaignRun.load(tmp_path, run.campaign_id)
        assert reloaded.jobs[0].state == "done"
        assert reloaded.jobs[1].state == "pending"

    def test_load_ignores_foreign_lines(self, tmp_path):
        run = CampaignRun.create(tmp_path, specs(1))
        with open(run.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"job": 99, "state": "done"}) + "\n")
            fh.write(json.dumps({"job": 0, "state": "warp"}) + "\n")
        reloaded = CampaignRun.load(tmp_path, run.campaign_id)
        assert reloaded.jobs[0].state == "pending"

    def test_load_unknown_campaign_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRun.load(tmp_path, "missing")

    def test_malformed_spec_payload_fails_both_resume_forms(self, tmp_path,
                                                           capsys):
        from repro.campaign.__main__ import main

        journal = tmp_path / "campaigns" / "bad.jsonl"
        journal.parent.mkdir()
        journal.write_text(json.dumps(
            {"journal": 1, "campaign": "bad", "specs": [{"kind": "baseline"}],
             "keys": []}) + "\n")
        for argv in (["resume"], ["resume", "bad"]):
            assert main([*argv, "--store", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "'bench'" in err
            assert "bad.jsonl" in err

    def test_listing_skips_a_torn_header(self, tmp_path):
        CampaignRun.create(tmp_path, specs(1), campaign_id="good")
        (tmp_path / "campaigns" / "torn.jsonl").write_text('{"journal": 1, "sp')
        assert [s["campaign"] for s in list_campaigns(tmp_path)] == ["good"]

    def test_status_and_listing(self, tmp_path):
        first = CampaignRun.create(tmp_path, specs(2), campaign_id="one")
        first.record(0, "done", source="run")
        first.record(1, "quarantined", error="Traceback ... boom")
        first.record_complete(hits=0, executed=1)
        time.sleep(0.01)
        CampaignRun.create(tmp_path, specs(1), campaign_id="two")

        status = CampaignRun.load(tmp_path, "one").status()
        assert status["complete"] is True
        assert status["states"]["done"] == 1
        assert status["quarantined"][0]["error"].endswith("boom")
        json.dumps(status)                   # JSON-safe end to end

        listed = list_campaigns(tmp_path)
        assert [s["campaign"] for s in listed] == ["two", "one"]
