"""Campaign executor: the one campaign loop, on persistent worker processes.

``run_campaign`` takes a job list of :class:`RunSpec`s, resolves as many
as possible from the :class:`ResultStore`, and runs the remaining misses
on ``jobs`` worker processes. Results come back as serialized dicts
(never live core objects), so the parent can both persist them and hand
them to experiments — the exact same bytes a cache hit would yield,
which is what makes parallel and serial campaigns bit-identical.

Every campaign runs through it: ``campaign run``, ``Session`` and the
experiments fail fast (the default policy raises
:class:`~repro.errors.CampaignError` naming the first failed spec, after
the results that already landed are persisted), while
:class:`~repro.campaign.scheduler.CampaignScheduler` passes callbacks
that journal each dispatch and result and retry or quarantine a failed
job. :func:`run_workers` is the worker loop under it: at most ``jobs``
forked workers each run job after job over their own pipe, so the
per-process program and stream-pool memos carry over between jobs. A
job's deadline starts when it is dispatched. A worker whose job times
out, raises or dies with it is killed and replaced by a fresh fork.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.spec import RunSpec, dedup
from repro.campaign.store import ResultStore
from repro.core.sim import SimResult, get_kind
from repro.errors import CampaignError

#: progress callback: (done, total, spec, source) with source "hit"/"run".
ProgressFn = Callable[[int, int, RunSpec, str], None]

#: result callback: (spec, result, source) fired as each job resolves —
#: the hook the scheduler journals and emits each result through.
ResultFn = Callable[[RunSpec, SimResult, str], None]


@dataclass
class CampaignReport:
    """Outcome of one campaign: results keyed by cache key, plus counters."""

    results: Dict[str, SimResult] = field(default_factory=dict)
    hits: int = 0          # jobs satisfied by the store
    executed: int = 0      # jobs actually simulated
    elapsed_s: float = 0.0
    jobs: int = 1
    retried: int = 0       # failed attempts that were re-queued
    #: Jobs given up on, ``{"key", "error", "label"}`` each: only a
    #: failure policy that quarantines (the scheduler's) adds any.
    quarantined: List[Dict[str, str]] = field(default_factory=list)
    campaign_id: str = ""  # the journal's id, on the scheduler's path

    @property
    def total(self) -> int:
        return self.hits + self.executed + len(self.quarantined)

    def summary(self) -> str:
        bits = [f"{self.total} jobs: {self.hits} from cache, "
                f"{self.executed} simulated on {self.jobs} worker(s) "
                f"in {self.elapsed_s:.1f}s"]
        if self.retried:
            bits.append(f"{self.retried} retried")
        if self.quarantined:
            bits.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(bits)


def print_progress(done: int, total: int, spec: RunSpec, source: str) -> None:
    """Default progress reporter (one line per finished job, stderr)."""
    mark = "cached" if source == "hit" else "ran"
    width = len(str(total))
    print(f"  [{done:{width}d}/{total}] {mark:>6} {spec.label}",
          file=sys.stderr, flush=True)


class WorkerTraceback(Exception):
    """The traceback a failed job left in its worker process."""


def _raise_failure(job: "Job", error: str,
                   exc: Optional[BaseException]) -> None:
    """``run_campaign``'s failure policy: the first failure ends it."""
    if exc is None:
        raise CampaignError(f"campaign {error}: {job.spec.label}") from None
    exc.__cause__ = WorkerTraceback(error)
    raise CampaignError(
        f"campaign job failed: {job.spec.label}: {exc}") from exc


def check_timeout(timeout_s: Optional[float]) -> None:
    """Refuse a per-job timeout that would fail every job, or none."""
    if timeout_s is not None and timeout_s <= 0:
        raise CampaignError(
            f"timeout must be positive (seconds), got {timeout_s:g}")


def run_campaign(specs: Iterable[RunSpec],
                 store: Optional[ResultStore] = None,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 progress: Optional[ProgressFn] = None,
                 on_result: Optional[ResultFn] = None,
                 on_failed: Callable = _raise_failure,
                 on_dispatch: Optional[Callable] = None,
                 hook: Optional[Callable] = None) -> CampaignReport:
    """Execute a deduplicated job list, memoizing through ``store``.

    Store hits resolve first; the misses run in this process when a
    failure ends the campaign, no timeout is set and one worker (or one
    miss) suffices, else on :func:`run_workers`' worker processes. The
    parent process performs all store writes, so workers never race on
    the cache directory. Identical seeds give identical stats dicts
    regardless of ``jobs`` (simulations are deterministic and share no
    state across runs).

    ``on_result`` (if given) is called with ``(spec, result, source)``
    as each job resolves, after the result is in the report (and, for
    executed jobs, persisted); it is how the scheduler journals them.

    ``on_failed``, ``on_dispatch`` and ``hook`` go to :func:`run_workers`
    as its failure policy, dispatch callback and worker hook. The
    default policy raises :class:`~repro.errors.CampaignError` on the
    first failed job; a policy that returns a delay retries the job.
    A ``timeout_s`` that is not positive raises before any job runs.
    """
    check_timeout(timeout_s)
    t0 = time.monotonic()
    specs = dedup(specs)
    report = CampaignReport(jobs=max(1, jobs))
    total = len(specs)
    done = 0

    def note(spec: RunSpec, source: str) -> None:
        nonlocal done
        done += 1
        if on_result is not None:
            on_result(spec, report.results[spec.cache_key()], source)
        if progress is not None:
            progress(done, total, spec, source)

    misses: List[RunSpec] = []
    for spec in specs:
        key = spec.cache_key()
        cached = store.get(key) if store is not None else None
        if cached is not None:
            report.results[key] = cached
            report.hits += 1
            note(spec, "hit")
        else:
            misses.append(spec)

    def finish(job: Job, payload: Dict[str, object],
               elapsed_s: float) -> None:
        key = job.spec.cache_key()
        result = SimResult.from_dict(payload)
        if store is not None:
            store.put(key, job.spec, result, elapsed_s=elapsed_s)
        report.results[key] = result
        report.executed += 1
        note(job.spec, "run")

    # A timeout can only be enforced from outside the job, so any
    # timeout_s takes the worker path even for a single serial miss;
    # so does any policy that survives a failure.
    if (on_failed is _raise_failure and timeout_s is None
            and (jobs <= 1 or len(misses) <= 1)):
        for spec in misses:
            job = Job(spec)
            if on_dispatch is not None:
                on_dispatch(job)
            finish(job, *_execute(spec, hook))
    else:
        run_workers([Job(spec) for spec in misses], jobs, timeout_s,
                    on_done=finish, on_failed=on_failed,
                    hook=hook, on_dispatch=on_dispatch)

    report.elapsed_s = time.monotonic() - t0
    return report


# ------------------------------------------------------------ worker loop


@dataclass
class Job:
    """One spec on its way through :func:`run_workers`."""

    spec: RunSpec
    attempt: int = 1


def _execute(spec: RunSpec, hook: Optional[Callable] = None
             ) -> Tuple[Dict[str, object], float]:
    """Run one spec, return (result dict, wall time of the simulation)."""
    if hook is not None:
        hook(spec)
    t0 = time.perf_counter()
    result = spec.execute()
    return result.to_dict(), time.perf_counter() - t0


def _serve(conn, hook: Optional[Callable], inherited: List) -> None:
    """Worker entry: run the specs that arrive on ``conn`` until it closes,
    replying ``("ok", result dict, seconds)`` or ``("err", traceback,
    exception)``. The parent-side pipe ends this fork inherited are
    closed first, so the worker sees EOF (and exits) once the parent is
    gone."""
    import traceback

    for other in inherited:
        other.close()
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply: tuple = ("ok", *_execute(spec, hook))
        except Exception as exc:
            reply = ("err", traceback.format_exc(), exc)
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception:          # the exception does not pickle
            raised = reply[2]
            conn.send(("err", reply[1],
                       RuntimeError(f"{type(raised).__name__}: {raised}")))


def _spawn(ctx, hook: Optional[Callable], workers) -> tuple:
    """Fork one worker: the only place campaign worker processes start."""
    ours, theirs = ctx.Pipe()
    process = ctx.Process(
        target=_serve, daemon=True,
        args=(theirs, hook, [ours] + [conn for _p, conn in workers]))
    process.start()
    theirs.close()
    return process, ours


def _reply(worker, deadline: Optional[float], now: float,
           timeout_s: Optional[float]) -> Optional[tuple]:
    """The worker's reply once its job has ended (a timeout or a lost
    worker is an ``"err"`` reply with no exception), else None."""
    process, conn = worker
    if conn.poll():
        try:
            return conn.recv()
        except (EOFError, OSError):
            pass
    elif process.is_alive():
        if deadline is None or now < deadline:
            return None
        return "err", f"job exceeded {timeout_s:g}s timeout", None
    process.join()
    return ("err", "job lost its worker process "
            f"(exitcode {process.exitcode})", None)


def _retire(worker) -> None:
    process, conn = worker
    process.kill()
    process.join()
    conn.close()


def _workload(job: Job) -> tuple:
    """What a worker's program and stream-pool memos are keyed by."""
    return job.spec.bench, job.spec.seed


def _affine(ready: List[tuple], worker, held: Dict[tuple, tuple]) -> tuple:
    """The first ready ``(not before, job)`` entry of the workload
    ``worker`` ran last, else the first of a workload no other worker
    holds, else the first."""
    mine = held.get(worker)
    others = {load for other, load in held.items() if other != worker}
    fresh = None
    for entry in ready:
        load = _workload(entry[1])
        if load == mine:
            return entry
        if fresh is None and load not in others:
            fresh = entry
    return fresh or ready[0]


def run_workers(queue: List[Job], jobs: int, timeout_s: Optional[float],
                on_done: Callable, on_failed: Callable,
                hook: Optional[Callable] = None,
                on_dispatch: Optional[Callable] = None) -> None:
    """Run ``queue`` on at most ``jobs`` persistent worker processes.

    Jobs dispatch as workers free up, ``on_dispatch(job)`` just before
    each; ``hook(spec)`` runs in the worker before each simulation. One
    worker takes the queue in order. With more, a worker takes the first
    waiting job of the workload ``(bench, seed)`` it ran last, else the
    first of a workload no other worker holds, else the head of the
    queue: each workload's program and stream pool are then built in
    about one worker instead of in every one its jobs happen to reach.
    A finished job reaches ``on_done(job, result dict, seconds)``. A
    failed one reaches ``on_failed(job, error, exc)`` —
    ``error`` is the worker's traceback and ``exc`` what the job raised,
    or a one-line reason (timeout, lost worker) and None — which returns
    a delay after which the job re-queues as its next attempt, or None
    to drop it, or raises to end the loop. Callbacks run in this
    process, results that land together before failures, and with an
    ``on_dispatch`` before the next dispatch (the scheduler journals a
    result before it dispatches again). Every worker is reaped on the
    way out.

    When neither a deadline nor ``on_dispatch`` needs to see each job
    start, a worker also holds the next job queued behind the one it
    runs, so it does not wait for the callbacks (the store writes)
    before starting another.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    # Import what the workers will run before they fork, so each one
    # inherits a warmed interpreter instead of importing it per worker.
    for kind in {job.spec.kind for job in queue}:
        get_kind(kind).core_cls
    ctx = multiprocessing.get_context()
    jobs = max(1, jobs)
    depth = 1 if timeout_s or on_dispatch is not None else 2
    waiting = [(0.0, job) for job in queue]   # (not before, job)
    #: Live worker -> the (job, deadline)s sent to it, oldest first.
    sent: Dict[tuple, List[Tuple[Job, Optional[float]]]] = {}
    #: Live worker -> the workload of the last job sent to it.
    held: Dict[tuple, tuple] = {}

    def refill() -> None:
        now = time.monotonic()
        ready = [entry for entry in waiting if entry[0] <= now]
        while ready:
            # An idle worker, else a new one while there are fewer than
            # ``jobs``, else the least-loaded one with room while more
            # jobs wait than there are workers (so none of the last jobs
            # queues behind a long one).
            worker = min(sent, key=lambda w: len(sent[w]), default=None)
            if worker is None or sent[worker]:
                if len(sent) < jobs:
                    worker = _spawn(ctx, hook, sent)
                    sent[worker] = []
                elif len(sent[worker]) >= depth or len(waiting) <= jobs:
                    return
            entry = ready[0] if jobs == 1 else _affine(ready, worker, held)
            ready.remove(entry)
            waiting.remove(entry)
            job = entry[1]
            held[worker] = _workload(job)
            if on_dispatch is not None:
                on_dispatch(job)
            try:
                worker[1].send(job.spec)
            except OSError:         # it died idle; the job fails below
                pass
            sent[worker].append(
                (job, now + timeout_s if timeout_s else None))

    try:
        while waiting or any(sent.values()):
            refill()
            now = time.monotonic()
            busy = [worker for worker, queued in sent.items() if queued]
            wakes = [sent[w][0][1] for w in busy if sent[w][0][1] is not None]
            wakes += [not_before for not_before, _job in waiting
                      if not_before > now]        # backoffs ending
            wait([conn for _p, conn in busy]
                 + [process.sentinel for process, _c in busy],
                 max(0.0, min(wakes) - now) if wakes else None)
            now = time.monotonic()
            ended = []
            for worker in busy:
                queued = sent[worker]
                while queued:
                    reply = _reply(worker, queued[0][1], now, timeout_s)
                    if reply is None:
                        break
                    ended.append((queued.pop(0)[0], reply))
                    if reply[0] != "ok":
                        _retire(worker)
                        del sent[worker]
                        held.pop(worker, None)
                        # The jobs queued behind it never started.
                        waiting[:0] = [(0.0, job) for job, _d in queued]
                        break
            if on_dispatch is None:
                # Nothing watches the dispatch order: top the workers'
                # queues up before the callbacks (the store writes) run.
                refill()
            ended.sort(key=lambda item: item[1][0] != "ok")
            for job, (tag, detail, extra) in ended:
                if tag == "ok":
                    on_done(job, detail, extra)
                    continue
                delay = on_failed(job, detail, extra)
                if delay is not None:
                    job.attempt += 1
                    waiting.append((time.monotonic() + delay, job))
    finally:
        for worker in sent:
            _retire(worker)
