"""One front door for execution: :class:`MachineSpec` + :class:`Session`.

``MachineSpec`` is a frozen, declarative description of one machine+run
— kind, ``CoreConfig``/``FlywheelConfig`` overrides, ``ClockPlan``
(including an optional DVFS governor), benchmark, seed, instruction
budgets and memory scale. It validates and normalizes exactly like the
campaign layer's :class:`~repro.campaign.spec.RunSpec` — because its
:meth:`MachineSpec.run_spec` *is* that projection — so its
:meth:`cache_key` is byte-compatible with every record the
:class:`~repro.campaign.store.ResultStore` has ever written.

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
fans ``map``/``stream`` batches out through. Machine kinds resolve
through :mod:`repro.core.registry`, so a third-party
``register_kind(...)`` machine works here with no further wiring.

The historical ``run_baseline``/``run_flywheel``/``run_pipelined_wakeup``
functions are deprecated wrappers over :func:`default_session`.
"""

from __future__ import annotations

import dataclasses
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
from repro.campaign.spec import RunSpec
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
    "default_session",
]


@dataclass(frozen=True)
class MachineSpec:
    """Frozen, declarative description of one machine + run.

    Construction validates the kind (against the core-kind registry),
    the benchmark name and the budgets, and *normalizes* the axes the
    same way the campaign layer does — ``None`` config/fly/clock
    resolve to the kind's defaults, synchronous kinds drop the clock
    speedup axes — so two ways of writing the same run compare, hash
    and cache identically.
    """

    kind: str
    bench: str
    config: Optional[CoreConfig] = None
    fly: Optional[FlywheelConfig] = None
    clock: Optional[ClockPlan] = None
    seed: Optional[int] = None
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    mem_scale: float = 1.0
    #: Constructor sugar for the engine-backend axis: ``engine="turbo"``
    #: folds into ``config.engine`` during normalization (overriding any
    #: value the config carries) and resets to ``None``, so
    #: ``MachineSpec("baseline", "gcc", engine="turbo")`` and the
    #: spelled-out ``config=CoreConfig(engine="turbo")`` are the same
    #: frozen spec — same equality, same cache key.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        # RunSpec owns validation + normalization; copy the normalized
        # axes back so MachineSpec equality/dedup sees through None, and
        # keep the projection (specs are frozen, so it can never drift).
        run = RunSpec(kind=self.kind, bench=self.bench, clock=self.clock,
                      config=self.config, fly=self.fly, seed=self.seed,
                      instructions=self.instructions, warmup=self.warmup,
                      mem_scale=self.mem_scale)
        if self.engine is not None and self.engine != run.config.engine:
            run = RunSpec(kind=self.kind, bench=self.bench, clock=self.clock,
                          config=run.config.with_variant(engine=self.engine),
                          fly=self.fly, seed=self.seed,
                          instructions=self.instructions, warmup=self.warmup,
                          mem_scale=self.mem_scale)
        object.__setattr__(self, "engine", None)
        for axis in ("clock", "config", "fly", "mem_scale"):
            object.__setattr__(self, axis, getattr(run, axis))
        object.__setattr__(self, "_run", run)

    # ------------------------------------------------------- projection

    def run_spec(self) -> RunSpec:
        """The campaign projection of this spec (same axes, same key)."""
        return self._run

    @classmethod
    def from_run_spec(cls, spec: RunSpec) -> "MachineSpec":
        """The MachineSpec whose projection is ``spec`` itself.

        ``spec`` is already validated and normalized, so it is adopted
        as is (with its memoized cache key) instead of being rebuilt.
        """
        machine = cls.__new__(cls)
        for axis in dataclasses.fields(RunSpec):
            object.__setattr__(machine, axis.name, getattr(spec, axis.name))
        object.__setattr__(machine, "engine", None)
        object.__setattr__(machine, "_run", spec)
        return machine

    def cache_key(self) -> str:
        """Content address, byte-compatible with stored campaign records."""
        return self.run_spec().cache_key()

    @property
    def label(self) -> str:
        return self.run_spec().label

    def replace(self, **overrides) -> "MachineSpec":
        """A copy with the given axes overridden (re-validated).

        Changing ``kind`` resets ``config``/``fly`` to the new kind's
        defaults unless they are overridden in the same call: the
        current values were normalized *for this spec's kind* (e.g. the
        flywheel's register-file sizing), and carrying them across
        would silently describe a machine nobody asked for.
        """
        if overrides.get("kind", self.kind) != self.kind:
            overrides.setdefault("config", None)
            overrides.setdefault("fly", None)
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        return self.run_spec().to_dict()

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineSpec":
        return cls.from_run_spec(RunSpec.from_dict(data))


#: Anything a Session accepts where a spec is expected.
SpecLike = Union[MachineSpec, RunSpec]


def _as_run_spec(spec: SpecLike) -> RunSpec:
    if isinstance(spec, MachineSpec):
        return spec.run_spec()
    if isinstance(spec, RunSpec):
        return spec
    raise TypeError(f"expected MachineSpec or RunSpec, got {type(spec)!r}")


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

    def run(self, spec: SpecLike) -> SimResult:
        """Execute one spec, memoized: memory, then store, then simulate."""
        run = _as_run_spec(spec)
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
        """Imperative escape hatch: run any registered kind directly.

        Unlike :meth:`run` this accepts ad-hoc workloads (a
        :class:`WorkloadProfile` or pre-built :class:`Program`, not just
        a benchmark name) and never memoizes — every call simulates
        afresh and the result keeps its live ``core`` object. The
        deprecated ``run_*`` wrappers route here, which is what keeps
        their behaviour (fresh run, live core) exactly as it was.
        """
        result = execute_kind(kind, workload, config=config, fly=fly,
                              clock=clock,
                              max_instructions=max_instructions,
                              warmup=warmup, seed=seed, mem_scale=mem_scale)
        self.executed += 1
        return result

    def profile(self, spec: SpecLike,
                out: Optional[str] = None) -> Dict[str, object]:
        """Self-profile one spec: wall time bucketed per engine phase.

        Runs the spec's machine uncached (profiling wraps the engine's
        stage functions, so a memoized result would defeat the point)
        and returns the :func:`repro.obs.profiler.profile_machine`
        report; ``out`` additionally writes it as JSON.
        """
        from repro.obs.profiler import profile_machine, write_profile

        run = _as_run_spec(spec)
        report = profile_machine(
            run.kind, run.bench, config=run.config, fly=run.fly,
            clock=run.clock, instructions=run.instructions,
            warmup=run.warmup, seed=run.seed, mem_scale=run.mem_scale)
        if out is not None:
            write_profile(report, out)
        self.executed += 1
        return report

    # ----------------------------------------------------------- batches

    def warm(self, specs: Iterable[SpecLike],
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
        for run in (_as_run_spec(s) for s in specs):
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

    def map(self, specs: Sequence[SpecLike],
            jobs: Optional[int] = None,
            timeout_s: Optional[float] = None,
            progress: Optional[ProgressFn] = None) -> List[SimResult]:
        """Execute a batch (deduplicated, parallel) and return results
        in input order — duplicates map to the same result object."""
        runs = [_as_run_spec(s) for s in specs]
        self.warm(runs, jobs=jobs, timeout_s=timeout_s, progress=progress)
        return [self._cache[r.cache_key()] for r in runs]

    def stream(self, specs: Iterable[SpecLike],
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

        runs = dedup(_as_run_spec(s) for s in specs)
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


#: Lazily created module-level session backing the deprecated ``run_*``
#: wrappers: no store, no memoization surprises (wrappers go through
#: :meth:`Session.run_workload`, which always simulates afresh).
_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide default :class:`Session` (created on first use)."""
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = Session()
        return _DEFAULT_SESSION
