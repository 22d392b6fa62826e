"""Shared experiment plumbing: cached runs, normalization, table printing.

Each simulating experiment names its runs once, in ``legs(ctx)``: a
dict of :class:`~repro.session.MachineSpec` s built with
:meth:`ExperimentContext.spec`, keyed the way its table reads them
(``(bench, column)``). Its ``run(ctx)`` reads every result through those
legs, and the campaign presets expand the same ``legs`` into job lists,
so the runs an experiment needs are written down in one place.

``ExperimentContext`` is a thin experiment-facing veneer over the
:class:`repro.Session` front door: every leg executes through the
session, memoized under its content hash. That keying covers the
*entire* run configuration — benchmark, clock plan, core/flywheel
config overrides, seed, budgets and memory scale — so two legs that
differ only in ``config=``/``fly=`` can never alias.

Pass a :class:`~repro.session.Session` with a
:class:`~repro.campaign.store.ResultStore` to make the cache persistent
across invocations, and use :meth:`ExperimentContext.warm` to fan a job
list out over worker processes before the (serial) experiment code
reads the results back.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.campaign.executor import CampaignReport, ProgressFn
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.session import MachineSpec, Session
from repro.workloads.profiles import SPEC_NAMES

#: Default measurement budgets. The paper fast-forwards 500M instructions
#: and measures 100M; a pure-Python simulator scales both down ~3000x,
#: which is enough for the normalized ratios these experiments report.
DEFAULT_INSTRUCTIONS = 30_000
DEFAULT_WARMUP = 60_000

#: An experiment's runs: each leg's spec under the key its table reads.
Legs = Dict[Hashable, MachineSpec]


class ExperimentContext:
    """Session + budgets shared by all experiments in one invocation.

    ``seed`` applies to every run (None = each benchmark's stable default
    seed); ``executed`` counts simulations the underlying session
    actually ran, so tests can verify a warmed context performs zero new
    work. Pass ``session`` to share one (its store and warm cache)
    across several contexts.
    """

    def __init__(self,
                 instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP,
                 benchmarks: Tuple[str, ...] = SPEC_NAMES,
                 seed: Optional[int] = None,
                 session: Optional[Session] = None):
        self.instructions = instructions
        self.warmup = warmup
        self.benchmarks = benchmarks
        self.seed = seed
        self.session = session if session is not None else Session()
        # Snapshot so a shared session's earlier work (and this
        # context's own warm() batches) never count as on-demand runs.
        self._executed_before = self.session.executed
        self._warm_executed = 0
        #: One spec per distinct lookup: experiments ask for the same
        #: runs many times, and a spec keeps its memoized cache key.
        self._specs: Dict[tuple, MachineSpec] = {}

    @property
    def executed(self) -> int:
        """Simulations run *on demand* by this context — outside
        :meth:`warm` and after construction.

        Zero after a pass warmed with the experiments' legs; ``campaign
        run`` reports a positive value as a table reading a run outside
        them.
        """
        return (self.session.executed - self._executed_before
                - self._warm_executed)

    # ------------------------------------------------------------- runs

    def spec(self, kind: str, bench: str,
             clock: Optional[ClockPlan] = None,
             config: Optional[CoreConfig] = None,
             fly: Optional[FlywheelConfig] = None,
             mem_scale: float = 1.0) -> MachineSpec:
        """The spec of one run at this context's seed and budgets.

        Equal lookups return the same spec object, so its cache key is
        computed once however often the tables ask for the run.
        """
        lookup = (kind, bench, clock, config, fly, mem_scale, self.seed,
                  self.instructions, self.warmup)
        spec = self._specs.get(lookup)
        if spec is None:
            spec = self._specs[lookup] = MachineSpec(
                kind=kind, bench=bench, clock=clock, config=config, fly=fly,
                seed=self.seed, instructions=self.instructions,
                warmup=self.warmup, mem_scale=mem_scale)
        return spec

    # --------------------------------------------------------- campaigns

    def warm(self, specs: Iterable[MachineSpec], jobs: Optional[int] = None,
             timeout_s: Optional[float] = None,
             progress: Optional[ProgressFn] = None) -> CampaignReport:
        """Pre-execute a job list (parallel) into the session's cache.

        ``jobs=None`` defers to the session's configured worker count.
        Experiments run afterwards hit the session's in-memory cache
        instead of simulating; any spec the list missed still runs on
        demand. Specs already in the in-memory cache are skipped
        outright.
        """
        report = self.session.warm(specs, jobs=jobs, timeout_s=timeout_s,
                                   progress=progress)
        self._warm_executed += report.executed
        return report


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def print_table(title: str, rows: List[dict], columns: List[str],
                fmt: str = "{:>10}") -> None:
    """Print rows as a fixed-width table (the figures' data series)."""
    print(f"\n== {title} ==")
    header = "".join(fmt.format(c[:10]) for c in columns)
    print(header)
    for row in rows:
        line = ""
        for c in columns:
            v = row.get(c, "")
            if isinstance(v, float):
                line += fmt.format(f"{v:.3f}")
            else:
                line += fmt.format(str(v))
        print(line)
