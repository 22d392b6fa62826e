"""One front door for execution: :class:`MachineSpec` + :class:`Session`.

``MachineSpec`` is the public name of :class:`~repro.campaign.spec.RunSpec`,
the one frozen, declarative description of a machine+run — kind,
``CoreConfig``/``FlywheelConfig`` overrides, ``ClockPlan`` (including an
optional DVFS governor), benchmark, seed, instruction budgets and memory
scale. Construction validates and normalizes the axes, and its
:meth:`~repro.campaign.spec.RunSpec.cache_key` is the content address
every :class:`~repro.campaign.store.ResultStore` record is filed under.

``Session`` executes specs::

    from repro import MachineSpec, Session

    with Session(store="~/.cache/repro-campaign", jobs=4) as session:
        base = session.run(MachineSpec("baseline", "gcc"))
        sweep = [MachineSpec("flywheel", "gcc",
                             clock=ClockPlan(fe_speedup=f, be_speedup=0.5))
                 for f in (0.0, 0.5, 1.0)]
        results = session.map(sweep)            # dedup + fan-out + memoize
        for event in session.stream(sweep):     # structured progress
            print(event)

A session is warm-cache aware on three levels: its in-memory memo table,
the optional persistent store, and the multiprocess campaign executor it
fans ``map``/``stream`` batches out through. The machine kinds are the
paper's three (:func:`repro.core.sim.kind_names`), and every run a
session makes, in this process or a worker, is built and run by
:func:`repro.core.sim.build_core` and :func:`repro.core.sim.run_core`.

:meth:`Session.run_workload` is the imperative escape hatch: it runs an
ad-hoc profile or program uncached and keeps the live core.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.campaign.executor import CampaignReport, ProgressFn, run_campaign
from repro.campaign.spec import MachineSpec, RunSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.sim import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    SimResult,
    execute_kind,
)

__all__ = [
    "MachineSpec",
    "Session",
    "SessionEvent",
]


def _checked(spec: RunSpec) -> RunSpec:
    if not isinstance(spec, RunSpec):
        raise TypeError(f"expected a MachineSpec, got {type(spec)!r}")
    return spec


@dataclass(frozen=True)
class SessionEvent:
    """One structured progress/result event from :meth:`Session.stream`.

    ``event`` is one of:

    * ``"plan"`` — batch accepted; ``total`` unique jobs after dedup.
    * ``"result"`` — one job finished; carries the ``spec``, the
      ``result`` and ``source`` (``"memory"``/``"store"``/``"run"``),
      with ``done`` counting finished jobs so far.
    * ``"quarantine"`` — a job the resumable scheduler gave up on
      after its retry budget; ``spec`` plus the final traceback in
      ``error`` (only the :mod:`repro.campaign.scheduler` path emits
      this — ``Session.stream`` raises on failure instead).
    * ``"summary"`` — batch complete; ``hits``/``executed`` counters
      (plus ``quarantined`` on the scheduler path) and ``elapsed_s``
      wall time.

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


class Session:
    """The single front door for executing :class:`MachineSpec` s.

    ``store`` may be a :class:`ResultStore`, a directory path, or None
    (no persistence); ``jobs`` is the default worker-process count for
    :meth:`map`/:meth:`stream`. Results are memoized in-memory for the
    session's lifetime and (when a store is attached) on disk under the
    spec's content hash, so a warmed session re-simulates nothing.

    ``hits``/``executed`` count, across all entry points, the specs
    resolved from either cache level vs. actually simulated — tests and
    CLIs use them to *verify* a warm path performed zero new work.

    Context-managed: ``with Session(...) as s`` releases the in-memory
    memo table on exit (the store, if any, persists).
    """

    def __init__(self,
                 store: Union[ResultStore, str, None] = None,
                 jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 trace_dir: Optional[str] = None):
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        #: When set, every result carrying flight-recorder data gets its
        #: Chrome trace-event JSON written here (named by cache key) and
        #: ``result.trace_path`` points at the file.
        self.trace_dir = trace_dir
        self.hits = 0
        self.executed = 0
        self._cache: Dict[str, SimResult] = {}

    def _export_trace(self, key: str, result: SimResult) -> SimResult:
        """Write the Chrome trace artifact for a traced result, if asked."""
        if (self.trace_dir is None or result.trace is None
                or result.trace_path is not None):
            return result
        import json
        import os

        from repro.obs.render import chrome_trace

        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, f"{key[:16]}.trace.json")
        label = f"{result.kind}/{result.name}"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(result.trace["events"], label=label), fh)
        result.trace_path = path
        return result

    # ------------------------------------------------------ single runs

    def run(self, spec: RunSpec) -> SimResult:
        """Execute one spec, memoized: memory, then store, then simulate."""
        run = _checked(spec)
        key = run.cache_key()
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return self._export_trace(key, hit)
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self._cache[key] = stored
                self.hits += 1
                return self._export_trace(key, stored)
        import time

        t0 = time.perf_counter()
        result = run.execute()
        elapsed_s = time.perf_counter() - t0
        if self.store is not None:
            self.store.put(key, run, result, elapsed_s=elapsed_s)
        self._cache[key] = result
        self.executed += 1
        return self._export_trace(key, result)

    def run_workload(self, kind: str, workload,
                     config: Optional[CoreConfig] = None,
                     fly: Optional[FlywheelConfig] = None,
                     clock: Optional[ClockPlan] = None,
                     max_instructions: int = DEFAULT_INSTRUCTIONS,
                     warmup: int = DEFAULT_WARMUP,
                     seed: Optional[int] = None,
                     mem_scale: float = 1.0) -> SimResult:
        """Imperative escape hatch: run any kind directly.

        Unlike :meth:`run` this accepts ad-hoc workloads (a
        :class:`WorkloadProfile` or pre-built :class:`Program`, not just
        a benchmark name) and never memoizes — every call simulates
        afresh and the result keeps its live ``core`` object.
        """
        result = execute_kind(kind, workload, config=config, fly=fly,
                              clock=clock,
                              max_instructions=max_instructions,
                              warmup=warmup, seed=seed, mem_scale=mem_scale)
        self.executed += 1
        return result

    def profile(self, spec: RunSpec,
                out: Optional[str] = None) -> Dict[str, object]:
        """Self-profile one spec: wall time bucketed per engine phase.

        Runs the spec's machine uncached (a memoized result would time
        nothing) and returns the
        :func:`repro.obs.profiler.profile_machine` report; ``out``
        additionally writes it as JSON.
        """
        from repro.obs.profiler import profile_machine, write_profile

        run = _checked(spec)
        report = profile_machine(
            run.kind, run.bench, config=run.config, fly=run.fly,
            clock=run.clock, instructions=run.instructions,
            warmup=run.warmup, seed=run.seed, mem_scale=run.mem_scale)
        if out is not None:
            write_profile(report, out)
        self.executed += 1
        return report

    # ----------------------------------------------------------- batches

    def warm(self, specs: Iterable[RunSpec],
             jobs: Optional[int] = None,
             timeout_s: Optional[float] = None,
             progress: Optional[ProgressFn] = None) -> CampaignReport:
        """Pre-execute a batch into the cache via the campaign executor.

        Specs already in the in-memory memo table are skipped outright
        (counted as hits); the rest resolve from the store or fan out
        over worker processes. Returns the executor's
        :class:`CampaignReport` (whose own counters cover only the
        non-memory portion of the batch).
        """
        seen = set()
        misses: List[RunSpec] = []
        for run in (_checked(s) for s in specs):
            key = run.cache_key()
            if key in seen:
                continue
            seen.add(key)
            if key in self._cache:
                self.hits += 1
            else:
                misses.append(run)
        report = run_campaign(misses, store=self.store,
                              jobs=self.jobs if jobs is None else jobs,
                              timeout_s=(self.timeout_s if timeout_s is None
                                         else timeout_s),
                              progress=progress)
        self._cache.update(report.results)
        for key, result in report.results.items():
            self._export_trace(key, result)
        self.hits += report.hits
        self.executed += report.executed
        return report

    def map(self, specs: Sequence[RunSpec],
            jobs: Optional[int] = None,
            timeout_s: Optional[float] = None,
            progress: Optional[ProgressFn] = None) -> List[SimResult]:
        """Execute a batch (deduplicated, parallel) and return results
        in input order — duplicates map to the same result object."""
        runs = list(specs)
        self.warm(runs, jobs=jobs, timeout_s=timeout_s, progress=progress)
        return [self._cache[r.cache_key()] for r in runs]

    def stream(self, specs: Iterable[RunSpec],
               jobs: Optional[int] = None,
               timeout_s: Optional[float] = None) -> Iterator[SessionEvent]:
        """Execute a batch, yielding structured events as jobs finish.

        Event order: one ``"plan"``, then one ``"result"`` per unique
        spec as each resolves (memory hits first, then store hits /
        simulations in completion order), then one ``"summary"``.
        Results are memoized exactly as :meth:`map` does; an error in
        the underlying campaign (worker failure, timeout) propagates
        after the events for already-finished jobs have been yielded.

        Once the first miss has been dispatched, abandoning the iterator
        does not cancel the campaign: the remaining jobs finish on a
        background thread and are still memoized and counted — only
        their events go unobserved. (Dropping the iterator before then —
        e.g. right after the ``"plan"`` event — runs nothing, as the
        generator body never reaches the executor.)
        """
        from repro.campaign.spec import dedup

        runs = dedup(_checked(s) for s in specs)
        total = len(runs)
        yield SessionEvent(event="plan", total=total)

        done = 0
        memory_hits: List[RunSpec] = []
        misses: List[RunSpec] = []
        for run in runs:
            (memory_hits if run.cache_key() in self._cache
             else misses).append(run)
        for run in memory_hits:
            done += 1
            self.hits += 1
            yield SessionEvent(event="result", spec=run,
                               result=self._cache[run.cache_key()],
                               source="memory", done=done, total=total)

        report = CampaignReport()
        if misses:
            # The executor is synchronous; run it on a thread and drain
            # its completion callbacks through a queue so results stream
            # out as they finish rather than after the whole batch.
            import queue

            events: "queue.Queue" = queue.Queue()

            def on_result(spec: RunSpec, result: SimResult,
                          source: str) -> None:
                # Memoize and count here, on the campaign thread, so an
                # abandoned consumer loses events but never results.
                self._cache[spec.cache_key()] = result
                self._export_trace(spec.cache_key(), result)
                if source == "hit":
                    self.hits += 1
                else:
                    self.executed += 1
                events.put(("result", spec, result, source))

            outcome: Dict[str, object] = {}

            def drive() -> None:
                try:
                    outcome["report"] = run_campaign(
                        misses, store=self.store,
                        jobs=self.jobs if jobs is None else jobs,
                        timeout_s=(self.timeout_s if timeout_s is None
                                   else timeout_s),
                        on_result=on_result)
                except BaseException as exc:  # re-raised on the consumer
                    outcome["error"] = exc
                finally:
                    events.put(("end",))

            worker = threading.Thread(target=drive, daemon=True)
            worker.start()
            while True:
                item = events.get()
                if item[0] == "end":
                    break
                _tag, spec, result, source = item
                done += 1
                source = "store" if source == "hit" else "run"
                yield SessionEvent(event="result", spec=spec, result=result,
                                   source=source, done=done, total=total)
            worker.join()
            error = outcome.get("error")
            if error is not None:
                raise error
            report = outcome["report"]

        yield SessionEvent(event="summary", done=done, total=total,
                           hits=len(memory_hits) + report.hits,
                           executed=report.executed,
                           elapsed_s=report.elapsed_s)

    # -------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Drop the in-memory memo table (the store persists)."""
        self._cache.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        root = str(self.store.root) if self.store is not None else None
        return (f"Session(store={root!r}, jobs={self.jobs}, "
                f"cached={len(self._cache)}, hits={self.hits}, "
                f"executed={self.executed})")
