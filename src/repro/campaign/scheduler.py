"""Resumable asynchronous campaign scheduler.

Where :func:`repro.campaign.executor.run_campaign` is a synchronous
batch primitive (and raises on the first worker failure), the
:class:`CampaignScheduler` is the serving-stack executor. It runs a
:class:`~repro.campaign.journal.CampaignRun`'s open jobs on the same
worker loop, :func:`~repro.campaign.executor.run_workers` (at most
``jobs`` persistent worker processes; the worker of a failed attempt is
killed and replaced), with its own failure policy, and survives
everything short of the host catching fire:

* **per-job timeout** — a wedged simulation's worker is killed and the
  attempt counted as failed, never stalling the rest of the campaign;
* **bounded retry with backoff** — a failed attempt re-queues with
  exponential backoff until ``retries`` is exhausted;
* **quarantine** — a spec that keeps failing is recorded in the journal
  with its final traceback and the campaign *continues*; the report
  lists the quarantined jobs instead of raising mid-flight;
* **crash resume** — every transition is journaled before/after the
  fact, so ``campaign resume <id>`` (→ :func:`resume_campaign`) rebuilds
  the remaining work from the journal + store alone after a SIGKILL.

Progress surfaces as :class:`~repro.session.SessionEvent` s — the same
``plan``/``result``/``summary`` schema ``Session.stream`` yields, plus
``quarantine`` — which is what the serve daemon bridges onto SSE.

Hooks (both optional, test/fault-injection seams):

* ``dispatch_hook(spec, index, attempt)`` runs in the *scheduler*
  process right before a job is dispatched; raising here aborts the
  scheduler mid-campaign exactly like a crash (the journal keeps the
  done/pending split).
* ``worker_hook(spec)`` runs in the *worker* process right before the
  simulation; raising makes that attempt fail (retry → quarantine
  path). It must be picklable on spawn-based platforms; under the
  default fork start method any callable works.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.campaign.executor import CampaignReport, Job, run_workers
from repro.campaign.journal import CampaignRun, JobEntry, list_campaigns
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError

if TYPE_CHECKING:                 # runtime import is lazy: repro.session
    from repro.session import SessionEvent  # imports repro.campaign back


def _event(**kwargs) -> "SessionEvent":
    """Build a SessionEvent without a module-level cyclic import."""
    from repro.session import SessionEvent

    return SessionEvent(**kwargs)

__all__ = [
    "CampaignScheduler",
    "ScheduleReport",
    "list_campaigns",
    "resume_campaign",
    "submit_campaign",
]

#: Event callback: receives each SessionEvent as the campaign advances.
EventFn = Callable[["SessionEvent"], None]


@dataclass
class ScheduleReport(CampaignReport):
    """Outcome of one scheduler pass over a campaign."""

    campaign_id: str = ""
    retried: int = 0              # failed attempts that were re-queued
    quarantined: List[Dict[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        bits = [super().summary()]
        if self.retried:
            bits.append(f"{self.retried} retried")
        if self.quarantined:
            bits.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(bits)

    def stats_payload(self) -> bytes:
        """Canonical bytes of every result's stats, keyed by cache key.

        Deliberately excludes wall-clock metadata (elapsed, created), so
        an interrupted-then-resumed campaign and an uninterrupted one
        produce **byte-identical** payloads — the crash-resume
        acceptance check compares exactly this.
        """
        stats = {key: result.stats.to_dict()
                 for key, result in sorted(self.results.items())}
        return json.dumps(stats, sort_keys=True).encode("utf-8")


class CampaignScheduler:
    """Stream a journaled campaign's jobs through worker processes."""

    def __init__(self,
                 run: CampaignRun,
                 store: ResultStore,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 backoff_s: float = 0.25,
                 on_event: Optional[EventFn] = None,
                 dispatch_hook: Optional[Callable] = None,
                 worker_hook: Optional[Callable] = None):
        self.run = run
        self.store = store
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.on_event = on_event
        self.dispatch_hook = dispatch_hook
        self.worker_hook = worker_hook

    # ---------------------------------------------------------- internals

    def _emit(self, event: SessionEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _spec_of(self, job: JobEntry) -> RunSpec:
        try:
            return job.spec()
        except Exception as exc:
            raise CampaignError(
                f"campaign {self.run.campaign_id}: job {job.index} payload "
                f"does not reconstruct ({exc}); was the journal written by "
                "an incompatible code version?") from exc

    # --------------------------------------------------------------- run

    def execute(self) -> ScheduleReport:
        """Drive the campaign to completion (or total quarantine).

        Store hits resolve first (including jobs a previous, crashed
        pass already simulated — that is what makes resume cheap), then
        the misses stream through the worker loop. Raises only for
        *scheduler* faults (e.g. a ``dispatch_hook`` crash-injection);
        job failures end in quarantine, not an exception.
        """
        t0 = time.monotonic()
        report = ScheduleReport(campaign_id=self.run.campaign_id,
                                jobs=self.jobs)
        total = len(self.run.jobs)
        done = 0
        self._emit(_event(event="plan", total=total))

        # Phase 1: resolve everything the store already has. On resume
        # this covers both previously-done jobs and records some other
        # campaign happened to produce — the store is the truth.
        misses: List[JobEntry] = []
        for job in self.run.jobs:
            if job.state == "quarantined":
                done += 1
                report.quarantined.append(
                    {"key": job.key, "error": job.error,
                     "label": _label(job)})
                continue
            cached = self.store.get(job.key)
            if cached is not None:
                if job.state != "done":
                    self.run.record(job.index, "done", source="store")
                report.results[job.key] = cached
                report.hits += 1
                done += 1
                self._emit(_event(
                    event="result", spec=self._spec_of(job), result=cached,
                    source="store", done=done, total=total))
            else:
                if job.state == "done":
                    # Journal says done but the record vanished (store
                    # cleaned between passes): owe the work again.
                    job.state = "pending"
                misses.append(job)

        if misses:
            done = self._drain(misses, report, done, total)

        report.elapsed_s = time.monotonic() - t0
        self.run.record_complete(hits=report.hits, executed=report.executed,
                                 quarantined=len(report.quarantined),
                                 retried=report.retried)
        self._emit(_event(
            event="summary", done=done, total=total, hits=report.hits,
            executed=report.executed, quarantined=len(report.quarantined),
            elapsed_s=report.elapsed_s))
        return report

    def _drain(self, misses: List[JobEntry], report: ScheduleReport,
               done: int, total: int) -> int:
        """Run the misses on the shared worker loop; retry failed
        attempts with backoff and quarantine what keeps failing."""

        def dispatch(job: Job) -> None:
            if self.dispatch_hook is not None:
                self.dispatch_hook(job.spec, job.entry.index, job.attempt)
            self.run.record(job.entry.index, "running", attempt=job.attempt)

        def finished(job: Job, payload: Dict[str, object],
                     elapsed_s: float) -> None:
            nonlocal done
            result = report.land(job.spec, job.entry.key, payload,
                                 elapsed_s, self.store)
            self.run.record(job.entry.index, "done", source="run",
                            elapsed_s=round(elapsed_s, 6))
            done += 1
            self._emit(_event(event="result", spec=job.spec, result=result,
                              source="run", done=done, total=total))

        def failed(job: Job, error: str, _exc) -> Optional[float]:
            nonlocal done
            if job.attempt <= self.retries:
                self.run.record(job.entry.index, "failed",
                                attempt=job.attempt, error=error)
                report.retried += 1
                return self.backoff_s * (2 ** (job.attempt - 1))
            self.run.record(job.entry.index, "quarantined",
                            attempt=job.attempt, error=error)
            report.quarantined.append({"key": job.entry.key, "error": error,
                                       "label": job.spec.label})
            done += 1
            self._emit(_event(event="quarantine", spec=job.spec, done=done,
                              total=total, error=error))
            return None

        # A scheduler fault (crash injection, ^C) propagates after the
        # loop has reaped its workers: their journal entries stay
        # "running" and fold back to pending on the next load.
        run_workers([Job(self._spec_of(job), job, job.attempts + 1)
                     for job in misses],
                    self.jobs, self.timeout_s, on_done=finished,
                    on_failed=failed, hook=self.worker_hook,
                    on_dispatch=dispatch)
        return done


def _label(job: JobEntry) -> str:
    try:
        return job.spec().label
    except Exception:
        return job.key[:12]


def submit_campaign(specs,
                    store: Union[ResultStore, str, None],
                    jobs: int = 1,
                    timeout_s: Optional[float] = None,
                    retries: int = 2,
                    backoff_s: float = 0.25,
                    campaign_id: Optional[str] = None,
                    on_event: Optional[EventFn] = None,
                    dispatch_hook: Optional[Callable] = None,
                    worker_hook: Optional[Callable] = None
                    ) -> CampaignScheduler:
    """Journal a new campaign and return its (not yet run) scheduler.

    The scheduler options are persisted in the journal header so
    ``resume`` re-runs with the submitter's settings by default.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    run = CampaignRun.create(
        store.root, specs, campaign_id=campaign_id,
        options={"jobs": jobs, "timeout_s": timeout_s,
                 "retries": retries, "backoff_s": backoff_s})
    return CampaignScheduler(run, store, jobs=jobs, timeout_s=timeout_s,
                             retries=retries, backoff_s=backoff_s,
                             on_event=on_event, dispatch_hook=dispatch_hook,
                             worker_hook=worker_hook)


def resume_campaign(campaign_id: str,
                    store: Union[ResultStore, str, None],
                    jobs: Optional[int] = None,
                    timeout_s: Optional[float] = None,
                    retries: Optional[int] = None,
                    on_event: Optional[EventFn] = None,
                    dispatch_hook: Optional[Callable] = None,
                    worker_hook: Optional[Callable] = None
                    ) -> CampaignScheduler:
    """Rebuild a campaign's scheduler from its journal + the store.

    Explicit arguments override the journaled submit-time options
    (``None`` keeps them). Works on complete campaigns too — every job
    then resolves as a store hit, which doubles as verification.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    run = CampaignRun.load(store.root, campaign_id)
    opts = run.options or {}
    return CampaignScheduler(
        run, store,
        jobs=jobs if jobs is not None else int(opts.get("jobs") or 1),
        timeout_s=(timeout_s if timeout_s is not None
                   else opts.get("timeout_s")),
        retries=(retries if retries is not None
                 else int(opts.get("retries", 2))),
        backoff_s=float(opts.get("backoff_s", 0.25)),
        on_event=on_event, dispatch_hook=dispatch_hook,
        worker_hook=worker_hook)
