"""Simulation execution for the registered core kinds.

This module defines :class:`SimResult`, the per-kind runners, and the
built-in registrations in the core-kind registry
(:mod:`repro.core.registry`). The preferred public entry point is
``repro.Session`` with a ``repro.MachineSpec`` — the historical
``run_baseline``/``run_flywheel``/``run_pipelined_wakeup`` trio survive
below as thin deprecated wrappers over the module-level default session.

``SimResult`` is serializable: the live ``core`` object is an in-process
convenience only, and everything downstream consumers need (the power
model's L2 access count and core kind, the clock plan, the full
:class:`SimStats`) round-trips through :meth:`SimResult.to_dict` /
:meth:`SimResult.from_dict`. This is what lets the campaign engine run
simulations in worker processes and memoize them on disk.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.registry import get_kind, register_kind
from repro.core.stats import SimStats
from repro.mem.spec import MemorySpec
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:
    from repro.workloads.cfg import Program

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WARMUP",
    "KIND_BASELINE",
    "KIND_FLYWHEEL",
    "KIND_PIPELINED_WAKEUP",
    "SimResult",
    "default_config",
    "execute_kind",
    "run_baseline",
    "run_flywheel",
    "run_pipelined_wakeup",
]

#: Default instruction budgets; small enough for a pure-Python simulator,
#: large enough for normalized ratios to stabilise on these workloads.
DEFAULT_WARMUP = 60_000
DEFAULT_INSTRUCTIONS = 60_000

#: Kind tags of the built-in machines (also their registry names).
KIND_BASELINE = "baseline"
KIND_FLYWHEEL = "flywheel"
KIND_PIPELINED_WAKEUP = "pipelined_wakeup"


@dataclass
class SimResult:
    """Everything a report or power model needs from one run.

    ``core`` holds the live simulator for in-process inspection and is
    ``None`` on results rebuilt from a worker process or the on-disk
    store; ``kind`` is the machine's registered name in
    :mod:`repro.core.registry` (``"baseline"``, ``"flywheel"``,
    ``"pipelined_wakeup"``, or a plug-in kind), and ``l2_accesses``
    carries the information the power model would otherwise read off
    the core object.
    """

    name: str
    stats: SimStats
    core: object = None   # live core object, or None if detached
    clock: ClockPlan = field(default_factory=ClockPlan)
    kind: str = ""        # registered kind name (see repro.core.registry)
    l2_accesses: int = 0
    #: Serialized flight-recorder ring (``TraceRecorder.serialize()``),
    #: or None when the run was untraced — the common case, and the one
    #: whose ``to_dict`` stays byte-identical to pre-tracing results.
    trace: Optional[Dict[str, object]] = None
    #: Path of the trace artifact a Session wrote for this result (the
    #: Chrome trace-event JSON), if any. In-process convenience like
    #: ``core``; not serialized.
    trace_path: Optional[str] = None

    @property
    def time_ps(self) -> int:
        return self.stats.sim_time_ps

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    # ------------------------------------------------- (de)serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (drops the live ``core`` object)."""
        data = {
            "name": self.name,
            "kind": self.kind,
            "l2_accesses": self.l2_accesses,
            "clock": asdict(self.clock),
            "stats": self.stats.to_dict(),
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        return cls(
            name=data["name"],
            stats=SimStats.from_dict(data["stats"]),
            core=None,
            clock=ClockPlan(**data["clock"]),
            kind=data.get("kind", ""),
            l2_accesses=int(data.get("l2_accesses", 0)),
            trace=data.get("trace"),
        )


def generate_program(profile: WorkloadProfile,
                     seed: Optional[int] = None) -> Program:
    """:func:`repro.workloads.generator.generate_program`, imported on
    the first generation: reading results back never loads the
    generator."""
    from repro.workloads.generator import generate_program as generate

    return generate(profile, seed=seed)


@lru_cache(maxsize=16)
def _shared_program(profile: WorkloadProfile,
                    seed: Optional[int]) -> Program:
    """The per-process shared program for ``(profile, seed)``.

    Generation is a pure function of its arguments, so every run of one
    workload can read the same finalized (hence read-only) program; a
    campaign worker cycles through a handful of pairs, so 16 suffice.
    ``generate_program`` is looked up at call time, so a wrapper
    installed on this module sees exactly the real generations.
    """
    return generate_program(profile, seed=seed)


def _resolve_workload(workload: Union[str, WorkloadProfile, Program],
                      seed: Optional[int]) -> Program:
    from repro.workloads.cfg import Program

    if isinstance(workload, Program):
        return workload
    if isinstance(workload, str):
        workload = get_profile(workload)
    return _shared_program(workload, seed)


# ---------------------------------------------------------------- runners

def _sync_runner(kind: str):
    """Runner factory for the single-clock core kinds."""

    def runner(workload: Union[str, WorkloadProfile, Program],
               config: Optional[CoreConfig] = None,
               fly: Optional[FlywheelConfig] = None,
               clock: Optional[ClockPlan] = None,
               max_instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               seed: Optional[int] = None,
               mem_scale: float = 1.0) -> SimResult:
        from repro.workloads.stream import InstructionStream

        info = get_kind(kind)
        if fly is not None:
            from repro.errors import ConfigError

            raise ConfigError(f"{kind} does not take a FlywheelConfig")
        config = config or info.default_config()
        clock = clock or ClockPlan()
        program = _resolve_workload(workload, seed)
        stream = InstructionStream(program)
        core = info.core_cls(config, stream, mem_scale=mem_scale,
                             clock=clock)
        stats = core.run(max_instructions, warmup=warmup)
        if core.dvfs is not None:
            # Piecewise sum over the governor's frequency segments; with
            # no retunes this is exactly cycles x base period.
            stats.sim_time_ps = core.dvfs.finalize(stats.total_be_cycles)
        else:
            period_ps = round(1e6 / clock.base_mhz)
            stats.sim_time_ps = stats.total_be_cycles * period_ps
        stats.cache_stats = core.hierarchy.stats_dict()
        stats.metrics = core.metrics.snapshot()
        return SimResult(name=program.name, stats=stats, core=core,
                         clock=clock, kind=info.name,
                         l2_accesses=core.hierarchy.l2.stats.accesses,
                         trace=(core.trace.serialize()
                                if core.trace is not None else None))

    runner.__name__ = f"run_{kind}_kind"
    return runner


def _flywheel_runner(workload: Union[str, WorkloadProfile, Program],
                     config: Optional[CoreConfig] = None,
                     fly: Optional[FlywheelConfig] = None,
                     clock: Optional[ClockPlan] = None,
                     max_instructions: int = DEFAULT_INSTRUCTIONS,
                     warmup: int = DEFAULT_WARMUP,
                     seed: Optional[int] = None,
                     mem_scale: float = 1.0) -> SimResult:
    """Runner for the dual-clock Flywheel machine."""
    from repro.workloads.stream import InstructionStream

    info = get_kind(KIND_FLYWHEEL)
    config = config or info.default_config()
    fly = fly or FlywheelConfig()
    clock = clock or ClockPlan()
    program = _resolve_workload(workload, seed)
    stream = InstructionStream(program)
    core = info.core_cls(config, fly, clock, stream, mem_scale=mem_scale)
    stats = core.run(max_instructions, warmup=warmup)
    stats.cache_stats = core.hierarchy.stats_dict()
    stats.metrics = core.metrics.snapshot()
    return SimResult(name=program.name, stats=stats, core=core, clock=clock,
                     kind=info.name,
                     l2_accesses=core.hierarchy.l2.stats.accesses,
                     trace=(core.trace.serialize()
                            if core.trace is not None else None))


def execute_kind(kind: str,
                 workload: Union[str, WorkloadProfile, Program],
                 config: Optional[CoreConfig] = None,
                 fly: Optional[FlywheelConfig] = None,
                 clock: Optional[ClockPlan] = None,
                 max_instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP,
                 seed: Optional[int] = None,
                 mem_scale: float = 1.0) -> SimResult:
    """Execute any registered kind through its runner (uncached)."""
    return get_kind(kind).runner(
        workload, config=config, fly=fly, clock=clock,
        max_instructions=max_instructions, warmup=warmup, seed=seed,
        mem_scale=mem_scale)


def default_config(kind: str) -> CoreConfig:
    """The CoreConfig a kind's runner substitutes for ``config=None``.

    Single source of truth (via the registry) shared by the runners and
    spec normalization, so ``config=None`` and an explicitly passed
    default always describe (and hash as) the same run.
    """
    return get_kind(kind).default_config()


# --------------------------------------------------- built-in registration

# The core classes resolve on first use (``KindInfo.core_cls``), so
# validating specs and reading results back load no simulator.

def _baseline_core_cls() -> type:
    from repro.core.baseline import BaselineCore

    return BaselineCore


def _pipelined_core_cls() -> type:
    from repro.core.pipelined import PipelinedWakeupCore

    return PipelinedWakeupCore


def _flywheel_core_cls() -> type:
    from repro.core.flywheel import FlywheelCore

    return FlywheelCore


def _flywheel_default_config() -> CoreConfig:
    return CoreConfig(phys_regs=512, regread_stages=2)


def _pipelined_default_config() -> CoreConfig:
    return CoreConfig(wakeup_extra_delay=1)


def _normalize_memory(config: CoreConfig) -> CoreConfig:
    # An explicit MemorySpec that merely spells out what ``memory``
    # already implies describes the same machine as ``mem=None``; fold
    # it away so both spellings compare, label and content-address
    # identically (the memory-system analogue of the clock-axis
    # normalization in RunSpec).
    if (config.mem is not None
            and config.mem == MemorySpec.from_config(config.memory)):
        return config.with_variant(mem=None)
    return config


def _pipelined_normalize(config: CoreConfig) -> CoreConfig:
    # The core forces the pipelined Wake-Up/Select loop; normalizing here
    # keeps spec payloads/cache keys describing the machine actually
    # simulated.
    if config.wakeup_extra_delay < 1:
        config = config.with_variant(wakeup_extra_delay=1)
    return _normalize_memory(config)


register_kind(KIND_BASELINE, _baseline_core_cls,
              _sync_runner(KIND_BASELINE),
              normalize_config=_normalize_memory)
register_kind(KIND_PIPELINED_WAKEUP, _pipelined_core_cls,
              _sync_runner(KIND_PIPELINED_WAKEUP),
              default_config=_pipelined_default_config,
              normalize_config=_pipelined_normalize)
register_kind(KIND_FLYWHEEL, _flywheel_core_cls, _flywheel_runner,
              default_config=_flywheel_default_config, dual_clock=True,
              normalize_config=_normalize_memory)


# ----------------------------------------------------- deprecated wrappers

#: Wrapper names that already warned; each shim warns once per process.
_DEPRECATION_WARNED = set()


def _warn_deprecated(name: str, replacement: str) -> None:
    if name in _DEPRECATION_WARNED:
        return
    _DEPRECATION_WARNED.add(name)
    warnings.warn(
        f"repro.{name}() is deprecated; use {replacement} "
        "(see repro.Session / repro.MachineSpec)",
        DeprecationWarning, stacklevel=3)


def run_baseline(workload: Union[str, WorkloadProfile, Program],
                 config: Optional[CoreConfig] = None,
                 clock: Optional[ClockPlan] = None,
                 max_instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP,
                 seed: Optional[int] = None,
                 mem_scale: float = 1.0) -> SimResult:
    """Run the fully synchronous baseline core on a workload.

    .. deprecated:: 1.1
       Thin wrapper over the default :class:`repro.Session`; prefer
       ``Session().run(MachineSpec(kind="baseline", bench=...))``.

    ``workload`` may be a benchmark name (``"gcc"``), a profile, or a
    pre-built program. The single clock is ``clock.base_mhz``.
    """
    _warn_deprecated("run_baseline", 'Session.run(MachineSpec("baseline", ...))')
    from repro.session import default_session

    return default_session().run_workload(
        KIND_BASELINE, workload, config=config, clock=clock,
        max_instructions=max_instructions, warmup=warmup, seed=seed,
        mem_scale=mem_scale)


def run_pipelined_wakeup(workload: Union[str, WorkloadProfile, Program],
                         config: Optional[CoreConfig] = None,
                         clock: Optional[ClockPlan] = None,
                         max_instructions: int = DEFAULT_INSTRUCTIONS,
                         warmup: int = DEFAULT_WARMUP,
                         seed: Optional[int] = None,
                         mem_scale: float = 1.0) -> SimResult:
    """Run the pipelined Wake-Up/Select variant (paper Fig. 2).

    .. deprecated:: 1.1
       Thin wrapper over the default :class:`repro.Session`; prefer
       ``Session().run(MachineSpec(kind="pipelined_wakeup", bench=...))``.

    Identical to the baseline except the issue window's Wake-Up/Select
    loop is pipelined (``wakeup_extra_delay >= 1``), sacrificing
    back-to-back scheduling of dependent instructions.
    """
    _warn_deprecated("run_pipelined_wakeup",
                     'Session.run(MachineSpec("pipelined_wakeup", ...))')
    from repro.session import default_session

    return default_session().run_workload(
        KIND_PIPELINED_WAKEUP, workload, config=config, clock=clock,
        max_instructions=max_instructions, warmup=warmup, seed=seed,
        mem_scale=mem_scale)


def run_flywheel(workload: Union[str, WorkloadProfile, Program],
                 config: Optional[CoreConfig] = None,
                 fly: Optional[FlywheelConfig] = None,
                 clock: Optional[ClockPlan] = None,
                 max_instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP,
                 seed: Optional[int] = None,
                 mem_scale: float = 1.0) -> SimResult:
    """Run the Flywheel core on a workload under a clock plan.

    .. deprecated:: 1.1
       Thin wrapper over the default :class:`repro.Session`; prefer
       ``Session().run(MachineSpec(kind="flywheel", bench=...))``.

    ``mem_scale`` inflates DRAM latency the same way it does for the
    baseline (on top of the clock-domain scaling the core already
    applies), so memory-sensitivity sweeps cover both cores.
    """
    _warn_deprecated("run_flywheel",
                     'Session.run(MachineSpec("flywheel", ...))')
    from repro.session import default_session

    return default_session().run_workload(
        KIND_FLYWHEEL, workload, config=config, fly=fly, clock=clock,
        max_instructions=max_instructions, warmup=warmup, seed=seed,
        mem_scale=mem_scale)
