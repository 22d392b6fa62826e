"""Resumable asynchronous campaign scheduler.

The :class:`CampaignScheduler` is the serving-stack front end of the one
campaign loop, :func:`repro.campaign.executor.run_campaign`. It takes a
:class:`~repro.campaign.journal.CampaignRun`'s open jobs from the
journal, hands them to ``run_campaign`` with callbacks that write the
journal and emit events, and marks the campaign complete. The loop does
the rest: store hits resolve first, misses run on at most ``jobs``
persistent worker processes (the worker of a failed attempt is killed
and replaced), and results land in the store. The callbacks make the
campaign survive everything short of the host catching fire:

* **per-job timeout** — a wedged simulation's worker is killed and the
  attempt counted as failed, never stalling the rest of the campaign;
* **bounded retry with backoff** — a failed attempt re-queues with
  exponential backoff until ``retries`` is exhausted;
* **quarantine** — a spec that keeps failing is recorded in the journal
  with its final traceback and the campaign *continues*; the report
  lists the quarantined jobs instead of raising mid-flight;
* **crash resume** — every dispatch and result is journaled, so
  ``campaign resume <id>`` (→ :func:`resume_campaign`) rebuilds the
  remaining work from the journal + store alone after a SIGKILL.

``campaign run`` is not journaled: running a killed ``run`` again
finishes it from the store, which a journal would only slow down.

Progress surfaces as :class:`SessionEvent` s (``plan``, ``result``,
``quarantine``, ``summary``), which is what the serve daemon bridges
onto SSE.

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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.campaign.executor import (CampaignReport, Job, check_timeout,
                                     run_campaign)
from repro.campaign.journal import CampaignRun, JobEntry, list_campaigns
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.core.sim import SimResult
from repro.errors import CampaignError

__all__ = [
    "CampaignScheduler",
    "SessionEvent",
    "list_campaigns",
    "resume_campaign",
    "submit_campaign",
]


@dataclass(frozen=True)
class SessionEvent:
    """One structured progress/result event of a scheduled campaign.

    ``event`` is one of:

    * ``"plan"`` — campaign accepted; ``total`` jobs in its journal.
    * ``"result"`` — one job finished; carries the ``spec``, the
      ``result`` and ``source`` (``"store"``/``"run"``), with ``done``
      counting finished jobs so far.
    * ``"quarantine"`` — a job given up on after its retry budget;
      ``spec`` plus the final traceback in ``error``.
    * ``"summary"`` — campaign complete; ``hits``/``executed``/
      ``quarantined`` counters and ``elapsed_s`` wall time.

    The serve daemon bridges these events 1:1 onto its SSE wire format
    (see ``repro.serve``), so the schema here *is* the service schema.
    """

    event: str
    spec: Optional[RunSpec] = None
    result: Optional[SimResult] = None
    source: str = ""
    done: int = 0
    total: int = 0
    hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0
    error: str = ""
    quarantined: int = 0


#: Event callback: receives each SessionEvent as the campaign advances.
EventFn = Callable[[SessionEvent], None]


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

    def execute(self) -> CampaignReport:
        """Drive the campaign to completion (or total quarantine).

        Runs the journal's jobs, bar the quarantined, through
        :func:`run_campaign` with callbacks that journal each dispatch
        and result and emit the events, then records the campaign
        complete. Store hits resolve first (including jobs a previous,
        crashed pass already simulated — that is what makes resume
        cheap). Raises only for *scheduler* faults (e.g. a
        ``dispatch_hook`` crash-injection); job failures end in
        quarantine, not an exception.
        """
        total = len(self.run.jobs)
        self._emit(SessionEvent(event="plan", total=total))
        quarantined = self.run.status()["quarantined"]
        retried = done = 0
        # Jobs quarantined before are not run, only counted, each where
        # the store-hit pass (which goes in journal order) passes it.
        uncounted = [job.index for job in self.run.jobs
                     if job.state == "quarantined"]

        def advance(index: int) -> None:
            nonlocal done
            while uncounted and uncounted[0] < index:
                del uncounted[0]
                done += 1
            done += 1
        # Every job but the quarantined: a "done" one resolves from the
        # store, or runs again if its record has left it.
        specs: List[RunSpec] = []
        entries: Dict[str, JobEntry] = {}    # by the key the loop reports
        for job in self.run.jobs:
            if job.state != "quarantined":
                specs.append(self._spec_of(job))
                entries[specs[-1].cache_key()] = job

        def dispatch(job: Job) -> None:
            entry = entries[job.spec.cache_key()]
            attempt = entry.attempts + 1
            if self.dispatch_hook is not None:
                self.dispatch_hook(job.spec, entry.index, attempt)
            self.run.record(entry.index, "running", attempt=attempt)

        def landed(spec: RunSpec, result, source: str) -> None:
            entry = entries[spec.cache_key()]
            source = "store" if source == "hit" else "run"
            if source == "run" or entry.state != "done":
                self.run.record(entry.index, "done", source=source)
            advance(entry.index if source == "store" else total)
            self._emit(SessionEvent(event="result", spec=spec, result=result,
                                    source=source, done=done, total=total))

        def failed(job: Job, error: str, _exc) -> Optional[float]:
            nonlocal retried
            entry = entries[job.spec.cache_key()]
            if entry.attempts <= self.retries:
                self.run.record(entry.index, "failed",
                                attempt=entry.attempts, error=error)
                retried += 1
                return self.backoff_s * (2 ** (entry.attempts - 1))
            self.run.record(entry.index, "quarantined",
                            attempt=entry.attempts, error=error)
            quarantined.append({"key": entry.key, "error": error,
                                "label": job.spec.label})
            advance(total)
            self._emit(SessionEvent(event="quarantine", spec=job.spec,
                                    done=done, total=total, error=error))
            return None

        # A scheduler fault (crash injection, ^C) propagates after the
        # loop has reaped its workers: their journal entries stay
        # "running" and fold back to pending on the next load.
        report = run_campaign(
            specs, self.store, self.jobs, self.timeout_s, on_result=landed,
            on_failed=failed, on_dispatch=dispatch, hook=self.worker_hook)
        done += len(uncounted)
        report.campaign_id = self.run.campaign_id
        report.retried = retried
        report.quarantined = quarantined
        self.run.record_complete(hits=report.hits, executed=report.executed,
                                 quarantined=len(quarantined),
                                 retried=retried)
        self._emit(SessionEvent(
            event="summary", done=done, total=total, hits=report.hits,
            executed=report.executed, quarantined=len(quarantined),
            elapsed_s=report.elapsed_s))
        return report


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
    ``resume`` re-runs with the submitter's settings by default. A
    ``timeout_s`` that is not positive raises before the journal is
    written.
    """
    check_timeout(timeout_s)
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
        # A journaled 0 meant "no timeout" before it was refused.
        timeout_s=(timeout_s if timeout_s is not None
                   else opts.get("timeout_s") or None),
        retries=(retries if retries is not None
                 else int(opts.get("retries", 2))),
        backoff_s=float(opts.get("backoff_s", 0.25)),
        on_event=on_event, dispatch_hook=dispatch_hook,
        worker_hook=worker_hook)
