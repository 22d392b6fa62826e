"""Multiprocess campaign executor.

``run_campaign`` takes a job list of :class:`RunSpec`s, resolves as many
as possible from the :class:`ResultStore`, and fans the remaining misses
out over ``jobs`` worker processes. Results come back as serialized
dicts (never live core objects), so the parent can both persist them and
hand them to experiments — the exact same bytes a cache hit would yield,
which is what makes parallel and serial campaigns bit-identical.

``timeout_s`` is a bounded-wait safety valve: the parent collects
results in submission order and never waits more than ``timeout_s`` on
any single pending job; a violation terminates the pool and raises
:class:`~repro.errors.CampaignError` naming the offending spec. (A job
running concurrently behind others can therefore exceed the bound by up
to its queue position's accumulated wait — this catches hangs, not
precise per-job budgets.)
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.spec import RunSpec, dedup
from repro.campaign.store import ResultStore
from repro.core.registry import get_kind
from repro.core.sim import SimResult
from repro.errors import CampaignError

#: progress callback: (done, total, spec, source) with source "hit"/"run".
ProgressFn = Callable[[int, int, RunSpec, str], None]

#: result callback: (spec, result, source) fired as each job resolves —
#: the hook ``Session.stream`` uses to yield results incrementally.
ResultFn = Callable[[RunSpec, SimResult, str], None]


@dataclass
class CampaignReport:
    """Outcome of one campaign: results keyed by cache key, plus counters."""

    results: Dict[str, SimResult] = field(default_factory=dict)
    hits: int = 0          # jobs satisfied by the store
    executed: int = 0      # jobs actually simulated
    elapsed_s: float = 0.0
    jobs: int = 1

    @property
    def total(self) -> int:
        return self.hits + self.executed

    def result_for(self, spec: RunSpec) -> SimResult:
        return self.results[spec.cache_key()]

    def summary(self) -> str:
        return (f"{self.total} jobs: {self.hits} from cache, "
                f"{self.executed} simulated on {self.jobs} worker(s) "
                f"in {self.elapsed_s:.1f}s")


def _execute_detached(
        spec: RunSpec) -> Tuple[str, Dict[str, object], float]:
    """Worker entry point: run one spec, return (key, result, wall time)."""
    t0 = time.perf_counter()
    result = spec.execute()
    elapsed_s = time.perf_counter() - t0
    return spec.cache_key(), result.to_dict(), elapsed_s


def print_progress(done: int, total: int, spec: RunSpec, source: str) -> None:
    """Default progress reporter (one line per finished job, stderr)."""
    mark = "cached" if source == "hit" else "ran"
    width = len(str(total))
    print(f"  [{done:{width}d}/{total}] {mark:>6} {spec.label}",
          file=sys.stderr, flush=True)


def run_campaign(specs: Iterable[RunSpec],
                 store: Optional[ResultStore] = None,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 progress: Optional[ProgressFn] = None,
                 on_result: Optional[ResultFn] = None) -> CampaignReport:
    """Execute a deduplicated job list, memoizing through ``store``.

    With ``jobs > 1`` the misses run under a ``multiprocessing`` pool;
    the parent process performs all store writes, so workers never race
    on the cache directory. Identical seeds give identical stats dicts
    regardless of ``jobs`` (simulations are deterministic and share no
    state across runs).

    ``on_result`` (if given) is called with ``(spec, result, source)``
    as each job resolves, after the result is in the report (and, for
    executed jobs, persisted); it is how ``Session.stream`` surfaces
    results incrementally.
    """
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

    if misses:
        # A timeout can only be enforced from outside the job, so any
        # timeout_s forces the pool path even for a single serial miss.
        if (jobs > 1 and len(misses) > 1) or timeout_s is not None:
            _run_parallel(misses, report, jobs, timeout_s, store, note)
        else:
            _run_serial(misses, report, store, note)

    report.elapsed_s = time.monotonic() - t0
    return report


def _finish(spec: RunSpec, key: str, result: SimResult,
            report: CampaignReport, store: Optional[ResultStore],
            note: Callable[[RunSpec, str], None],
            elapsed_s: Optional[float] = None) -> None:
    if store is not None:
        store.put(key, spec, result, elapsed_s=elapsed_s)
    report.results[key] = result
    report.executed += 1
    note(spec, "run")


def _run_serial(misses: List[RunSpec], report: CampaignReport,
                store: Optional[ResultStore],
                note: Callable[[RunSpec, str], None]) -> None:
    for spec in misses:
        key, payload, elapsed_s = _execute_detached(spec)
        _finish(spec, key, SimResult.from_dict(payload), report, store, note,
                elapsed_s=elapsed_s)


def _run_parallel(misses: List[RunSpec], report: CampaignReport, jobs: int,
                  timeout_s: Optional[float], store: Optional[ResultStore],
                  note: Callable[[RunSpec, str], None]) -> None:
    import multiprocessing

    # Import what the workers will run before they fork, so each one
    # inherits a warmed interpreter instead of importing it per worker.
    for kind in {spec.kind for spec in misses}:
        get_kind(kind).core_cls
    workers = max(1, min(jobs, len(misses)))
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        pending = [(spec, pool.apply_async(_execute_detached, (spec,)))
                   for spec in misses]
        for idx, (spec, handle) in enumerate(pending):
            try:
                key, payload, elapsed_s = handle.get(timeout_s)
            except multiprocessing.TimeoutError:
                _salvage(pending[idx + 1:], report, store, note)
                pool.terminate()
                raise CampaignError(
                    f"campaign job exceeded {timeout_s:g}s timeout: "
                    f"{spec.label}") from None
            except Exception as exc:
                _salvage(pending[idx + 1:], report, store, note)
                pool.terminate()
                raise CampaignError(
                    f"campaign job failed: {spec.label}: {exc}") from exc
            _finish(spec, key, SimResult.from_dict(payload), report, store,
                    note, elapsed_s=elapsed_s)


def _salvage(remaining, report: CampaignReport, store: Optional[ResultStore],
             note: Callable[[RunSpec, str], None]) -> None:
    """Persist already-finished worker results before a pool teardown, so
    one hung job doesn't throw away the rest of the campaign's work."""
    for spec, handle in remaining:
        if not handle.ready():
            continue
        try:
            key, payload, elapsed_s = handle.get(0)
        except Exception:
            continue
        _finish(spec, key, SimResult.from_dict(payload), report, store, note,
                elapsed_s=elapsed_s)
