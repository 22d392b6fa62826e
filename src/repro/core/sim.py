"""Simulation execution: the three machine kinds and their one runner.

This module holds the fixed table of the machines the paper evaluates
(:func:`get_kind`, :func:`kind_names`), :func:`build_core` and
:func:`run_core`, which every run goes through (``RunSpec.execute``,
``Session.run_workload``, the self-profiler), and :class:`SimResult`.
The public entry point is ``repro.Session`` with a ``repro.MachineSpec``;
:func:`execute_kind` builds and runs one machine directly.

``SimResult`` is serializable: the live ``core`` object is an in-process
convenience only, and everything downstream consumers need (the power
model's L2 access count and core kind, the clock plan, the full
:class:`SimStats`) round-trips through :meth:`SimResult.to_dict` /
:meth:`SimResult.from_dict`. This is what lets the campaign engine run
simulations in worker processes and memoize them on disk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.stats import SimStats
from repro.errors import ConfigError
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:
    from repro.workloads.cfg import Program

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WARMUP",
    "KIND_BASELINE",
    "KIND_FLYWHEEL",
    "KIND_PIPELINED_WAKEUP",
    "KindInfo",
    "SimResult",
    "build_core",
    "check_budgets",
    "default_config",
    "execute_kind",
    "get_kind",
    "kind_names",
    "run_core",
]

#: Default instruction budgets; small enough for a pure-Python simulator,
#: large enough for normalized ratios to stabilise on these workloads.
DEFAULT_WARMUP = 60_000
DEFAULT_INSTRUCTIONS = 60_000

#: Kind tags of the three machines.
KIND_BASELINE = "baseline"
KIND_FLYWHEEL = "flywheel"
KIND_PIPELINED_WAKEUP = "pipelined_wakeup"


@dataclass
class SimResult:
    """Everything a report or power model needs from one run.

    ``core`` holds the live simulator for in-process inspection and is
    ``None`` on results rebuilt from a worker process or the on-disk
    store; ``kind`` is the machine's kind name (``"baseline"``,
    ``"flywheel"`` or ``"pipelined_wakeup"``), and ``l2_accesses``
    carries the information the power model would otherwise read off
    the core object.
    """

    name: str
    stats: SimStats
    core: object = None   # live core object, or None if detached
    clock: ClockPlan = field(default_factory=ClockPlan)
    kind: str = ""        # kind name (see get_kind)
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


# ------------------------------------------------------------ the kinds

@dataclass(frozen=True)
class KindInfo:
    """Everything the library knows about one machine kind.

    The core class is ``module.cls``, imported on first use through
    :attr:`core_cls`, so validating specs and reading results back load
    no simulator. ``dual_clock`` kinds keep the full :class:`ClockPlan`
    (front-end/back-end speedups) and accept a ``FlywheelConfig``;
    synchronous kinds are normalized down to ``base_mhz`` + governor and
    must not carry one. ``normalize_config`` (optional) maps a user
    config onto the config the core actually simulates, so spec
    payloads and cache keys always describe the simulated machine.
    """

    name: str
    module: str
    cls: str
    default_config: Callable[[], CoreConfig] = CoreConfig
    dual_clock: bool = False
    normalize_config: Optional[Callable[[CoreConfig], CoreConfig]] = None

    @property
    def core_cls(self) -> type:
        return getattr(import_module(self.module), self.cls)


def _pipelined_normalize(config: CoreConfig) -> CoreConfig:
    # The kind is the pipelined Wake-Up/Select loop: a config that asks
    # for back-to-back scheduling is raised to one extra cycle.
    if config.wakeup_extra_delay < 1:
        config = config.with_variant(wakeup_extra_delay=1)
    return config


#: The three machines the paper evaluates, in table order.
_KINDS: Dict[str, KindInfo] = {info.name: info for info in (
    KindInfo(KIND_BASELINE, "repro.core.baseline", "BaselineCore"),
    KindInfo(KIND_PIPELINED_WAKEUP, "repro.core.pipelined",
             "PipelinedWakeupCore",
             default_config=lambda: CoreConfig(wakeup_extra_delay=1),
             normalize_config=_pipelined_normalize),
    KindInfo(KIND_FLYWHEEL, "repro.core.flywheel", "FlywheelCore",
             default_config=lambda: CoreConfig(phys_regs=512,
                                               regread_stages=2),
             dual_clock=True),
)}


def get_kind(name: str) -> KindInfo:
    """Look a kind up, raising :class:`ConfigError` for unknown names."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ConfigError(f"unknown core kind {name!r}; kinds: "
                          f"{', '.join(_KINDS)}") from None


def kind_names() -> Tuple[str, ...]:
    """Every kind name, in table order."""
    return tuple(_KINDS)


def default_config(kind: str) -> CoreConfig:
    """The CoreConfig :func:`build_core` substitutes for ``config=None``.

    Shared by the runs and spec normalization, so ``config=None`` and an
    explicitly passed default always describe (and hash as) the same
    run.
    """
    return get_kind(kind).default_config()


# ------------------------------------------------------------ the runner

def check_budgets(instructions: int, warmup: int) -> None:
    """Refuse a budget no run can honour: at least one measured
    instruction, and no negative warmup."""
    if instructions < 1 or warmup < 0:
        raise ConfigError(
            f"instruction budgets must be instructions >= 1 and warmup "
            f">= 0, got instructions={instructions}, warmup={warmup}")


def build_core(kind: str,
               workload: Union[str, WorkloadProfile, Program],
               config: Optional[CoreConfig] = None,
               fly: Optional[FlywheelConfig] = None,
               clock: Optional[ClockPlan] = None,
               seed: Optional[int] = None,
               mem_scale: float = 1.0):
    """An unrun core of ``kind`` over ``workload``.

    ``None`` axes resolve to the kind's defaults and the config goes
    through the kind's ``normalize_config``, as :class:`RunSpec`
    construction does. ``workload`` is a benchmark name, a profile or a
    built program; names and profiles share one generated program per
    process (:func:`_shared_program`).
    """
    from repro.workloads.stream import InstructionStream

    info = get_kind(kind)
    if fly is not None and not info.dual_clock:
        raise ConfigError(f"{kind} does not take a FlywheelConfig")
    config = config or info.default_config()
    if info.normalize_config is not None:
        config = info.normalize_config(config)
    clock = clock or ClockPlan()
    stream = InstructionStream(_resolve_workload(workload, seed))
    if info.dual_clock:
        return info.core_cls(config, fly or FlywheelConfig(), clock, stream,
                             mem_scale=mem_scale)
    return info.core_cls(config, stream, mem_scale=mem_scale, clock=clock)


def run_core(core, kind: str,
             instructions: int = DEFAULT_INSTRUCTIONS,
             warmup: int = DEFAULT_WARMUP) -> SimResult:
    """Run a :func:`build_core` core and return its :class:`SimResult`.

    ``warmup`` instructions are streamed through the caches functionally
    before ``instructions`` are measured. The result's stats carry the
    simulated time, the cache and metric snapshots, and the trace ring
    when the config armed the recorder.
    """
    from repro.obs.metrics import core_metrics

    check_budgets(instructions, warmup)
    info = get_kind(kind)
    stats = core.run(instructions, warmup=warmup)
    if not info.dual_clock:           # the Flywheel loop sums its own
        if core.dvfs is not None:
            # Piecewise sum over the governor's frequency segments; with
            # no retunes this is exactly cycles x base period.
            stats.sim_time_ps = core.dvfs.finalize(stats.total_be_cycles)
        else:
            stats.sim_time_ps = (stats.total_be_cycles
                                 * round(1e6 / core.clock.base_mhz))
    stats.cache_stats = core.hierarchy.stats_dict()
    stats.metrics = core_metrics(core)
    return SimResult(name=core.stream.program.name, stats=stats, core=core,
                     clock=core.clock, kind=info.name,
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
    """Build and run one machine (uncached)."""
    core = build_core(kind, workload, config=config, fly=fly, clock=clock,
                      seed=seed, mem_scale=mem_scale)
    return run_core(core, kind, max_instructions, warmup)
