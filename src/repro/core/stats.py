"""Simulation statistics and power-event counting.

``SimStats`` gathers architectural counters (cycles, commits, mispredicts)
and a free-form event counter dictionary that the power model converts to
energy. Keeping events as plain string-keyed counts decouples the cores
from the power model: a core can be extended with new activity without
touching the accounting code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class SimStats:
    """Counters for one simulation run."""

    # Architectural progress
    committed: int = 0
    fetched: int = 0
    issued: int = 0

    # Back-end cycles split by operating mode (Flywheel)
    be_cycles_create: int = 0       # trace-creation (slow clock)
    be_cycles_execute: int = 0      # trace-execution (fast clock)
    fe_cycles_active: int = 0
    fe_cycles_gated: int = 0

    # Control flow
    branches: int = 0
    mispredicts: int = 0

    # Flywheel trace machinery
    traces_built: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    instrs_from_ec: int = 0
    checkpoint_stall_cycles: int = 0
    srt_switches: int = 0
    redistributions: int = 0
    rename_pool_stalls: int = 0

    # Adaptive clocking (repro.dvfs)
    dvfs_retunes: int = 0
    #: Frequency transitions as ``[be_cycle, mhz]`` pairs. Empty without a
    #: governor; with one, the first entry is the cycle-0 starting point.
    freq_trace: List[List[float]] = field(default_factory=list)

    # Wall-clock of the simulated run
    sim_time_ps: int = 0

    #: Per-level memory-system counters (``"l1i"``/``"l1d"``/``"l2"``/...
    #: -> :meth:`repro.mem.CacheStats.to_dict` dicts, plus an ``"mshr"``
    #: aggregate when miss handling is modelled). Populated by the
    #: runners from ``MemoryHierarchy.stats_dict()`` at the end of a run.
    cache_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)

    #: Flat :func:`repro.obs.metrics.core_metrics` snapshot
    #: (``"engine.rob.occupancy"`` -> value) taken by ``run_core`` at the
    #: end of a run. Deterministic for a deterministic simulation, so it
    #: rides through the golden-stats gate and the content-addressed
    #: store like any other counter.
    metrics: Dict[str, object] = field(default_factory=dict)

    #: Power events: structure-access counts consumed by repro.power.
    events: Counter = field(default_factory=Counter)

    def count(self, event: str, n: int = 1) -> None:
        self.events[event] += n

    # ------------------------------------------------- (de)serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-safe dict; exact inverse of :meth:`from_dict`."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name != "events"
        }
        out["events"] = dict(self.events)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        """Rebuild stats from :meth:`to_dict` output (unknown keys ignored,
        so records survive the addition of new counters)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items()
                  if k in known and k != "events"}
        kwargs["events"] = Counter(data.get("events", {}))
        return cls(**kwargs)

    # ------------------------------------------------------------ metrics

    @property
    def total_be_cycles(self) -> int:
        return self.be_cycles_create + self.be_cycles_execute

    @property
    def ipc(self) -> float:
        """Committed instructions per back-end cycle (mode-weighted)."""
        cycles = self.total_be_cycles
        return self.committed / cycles if cycles else 0.0

    @property
    def time_seconds(self) -> float:
        return self.sim_time_ps / 1e12

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def cache_hit_rate(self, level: str) -> float:
        """Demand hit rate of one memory level (0.0 when unrecorded)."""
        counters = self.cache_stats.get(level)
        if not counters:
            return 0.0
        accesses = counters.get("accesses", 0)
        return counters.get("hits", 0) / accesses if accesses else 0.0

    @property
    def ec_residency(self) -> float:
        """Fraction of back-end time spent on the alternative (EC) path."""
        cycles = self.total_be_cycles
        return self.be_cycles_execute / cycles if cycles else 0.0
