"""Declarative run specifications and sweeps.

A :class:`RunSpec` names one simulation completely: core kind, benchmark,
clock plan, config overrides, seed, instruction budgets and memory scale.
Specs are frozen, hashable and normalized (``None`` configs are resolved
to the defaults :func:`~repro.core.sim.build_core` would substitute), so
two ways of writing the same run produce the same spec — and the same
:meth:`RunSpec.cache_key`. It is the one spec class: the public front
door exports it as :class:`~repro.session.MachineSpec`, kinds are the
fixed table in :mod:`repro.core.sim`, and :meth:`RunSpec.execute` runs
through that module's one runner.

The cache key is a content hash over the full spec payload *plus a code
fingerprint* of the installed ``repro`` sources, so results memoized by
the :class:`~repro.campaign.store.ResultStore` are invalidated whenever
the simulator itself changes.

A :class:`Sweep` expands cross-products of the axes into a deduplicated
job list (e.g. the baseline leg of a flywheel-config sweep collapses to a
single job).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from dataclasses import InitVar, asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import (
    ClockPlan,
    CoreConfig,
    FlywheelConfig,
    canonical_json,
)
from repro.core.sim import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    KIND_BASELINE,
    KIND_FLYWHEEL,
    KindInfo,
    SimResult,
    check_budgets,
    default_config,
    execute_kind,
    get_kind,
    kind_names,
)
from repro.errors import CampaignError, ConfigError
from repro.frontend.bpred import BPredConfig
from repro.mem.spec import MemorySpec
from repro.workloads.profiles import get_profile

#: Default sweep axis: the paper's headline comparison pair. The
#: pipelined-wakeup machine is opt-in (it only appears in the Fig. 2
#: loop study), so default sweeps don't silently grow a third leg.
DEFAULT_SWEEP_KINDS = (KIND_BASELINE, KIND_FLYWHEEL)

#: The default memory system (Table 2), which payloads and labels omit.
_DEFAULT_MEM = MemorySpec()

#: The flat Table 2 ``config.memory`` member that payloads carried before
#: ``CoreConfig.mem`` became the only memory description. It describes
#: ``_DEFAULT_MEM``, so :meth:`RunSpec.from_dict` drops it.
_TABLE2_MEMORY = {"l1i_kb": 64, "l1i_ways": 2, "l1d_kb": 64, "l1d_ways": 4,
                  "l2_kb": 512, "l2_ways": 4, "line_bytes": 32,
                  "l1_latency": 2, "l2_latency": 10, "dram_latency": 100}

#: ``fly`` members of older payloads that no simulated path ever read.
_UNREAD_FLY = ("tag_window", "max_trace_units")


def _kind_info(kind: str) -> KindInfo:
    """Kind lookup re-raised as the campaign layer's error type."""
    try:
        return get_kind(kind)
    except ConfigError:
        raise CampaignError(
            f"unknown run kind {kind!r}; expected one of "
            f"{kind_names()}") from None


#: Subpackages whose code determines simulation output (and therefore
#: stored results). Presentation layers — analysis, experiments tables,
#: power reports, the campaign machinery itself — are derived from the
#: stored stats at read time, so editing them must NOT invalidate the
#: store.
SIM_PACKAGES = ("core", "clocks", "dvfs", "ec", "execute", "frontend",
                "isa", "issue", "mem", "obs", "rename", "rob", "workloads")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the simulation-determining ``repro`` sources.

    Folded into every cache key so stale on-disk results cannot survive
    a change to the simulator (the ISSUE's "code version" axis), while
    CLI/docs/report-layer edits leave the store valid.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in SIM_PACKAGES:
        if not (root / package).is_dir():
            # A silently skipped package would quietly drop out of the
            # store-invalidation contract after a rename.
            raise CampaignError(
                f"code_fingerprint: simulation package {package!r} not "
                f"found under {root}; update SIM_PACKAGES")
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class RunSpec:
    """Frozen, declarative description of one machine + run.

    Construction validates the kind (against the kind table),
    the benchmark name and the budgets, and *normalizes* the axes —
    ``None`` config/fly/clock resolve to the kind's defaults, synchronous
    kinds drop the clock speedup axes — so two ways of writing the same
    run compare, hash and cache identically.
    """

    kind: str
    bench: str
    clock: Optional[ClockPlan] = None
    config: Optional[CoreConfig] = None
    fly: Optional[FlywheelConfig] = None
    seed: Optional[int] = None
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    mem_scale: float = 1.0
    #: Constructor sugar for the engine-backend axis: ``engine="turbo"``
    #: folds into ``config.engine`` (overriding any value the config
    #: carries). It is not a field, so ``RunSpec("baseline", "gcc",
    #: engine="turbo")`` and the spelled-out
    #: ``config=CoreConfig(engine="turbo")`` are the same frozen spec.
    engine: InitVar[Optional[str]] = None

    def __post_init__(self, engine: Optional[str]) -> None:
        info = _kind_info(self.kind)
        get_profile(self.bench)  # raises WorkloadError for unknown names
        if not info.dual_clock and self.fly is not None:
            raise CampaignError(
                f"{self.kind} spec for {self.bench!r} cannot carry a "
                "FlywheelConfig")
        try:
            check_budgets(self.instructions, self.warmup)
        except ConfigError as exc:
            raise CampaignError(str(exc)) from None
        if not (_is_int(self.instructions) and _is_int(self.warmup)):
            raise CampaignError(
                f"instruction budgets must be integers, got "
                f"instructions={self.instructions!r}, "
                f"warmup={self.warmup!r}")
        if self.seed is not None and not _is_int(self.seed):
            raise CampaignError(
                f"seed must be an int or None, got {self.seed!r}")
        if (not isinstance(self.mem_scale, (int, float))
                or not 0.0 < self.mem_scale < math.inf):
            raise CampaignError(f"mem_scale must be finite and positive, "
                                f"got {self.mem_scale!r}")
        # Equal specs must serialize identically: JSON renders 2 and 2.0
        # differently, so an int-valued mem_scale would split cache keys.
        object.__setattr__(self, "mem_scale", float(self.mem_scale))
        # Normalize: a spec written with None axes is the *same run* as one
        # written with the defaults spelled out, so resolve them here and
        # let equality / hashing / dedup see through the difference.
        clock = self.clock or ClockPlan()
        if not info.dual_clock:
            # The synchronous kinds only see base_mhz (and the governor);
            # dropping the speedup axes collapses their legs of clock
            # sweeps.
            clock = ClockPlan(base_mhz=clock.base_mhz,
                              governor=clock.governor)
        object.__setattr__(self, "clock", clock)
        config = self.config or info.default_config()
        if engine is not None and engine != config.engine:
            config = config.with_variant(engine=engine)
        if info.normalize_config is not None:
            # e.g. pipelined_wakeup forces wakeup_extra_delay >= 1; the
            # spec's payload/cache key/variant() must describe the
            # machine actually simulated.
            config = info.normalize_config(config)
        object.__setattr__(self, "config", config)
        if info.dual_clock:
            object.__setattr__(self, "fly", self.fly or FlywheelConfig())

    @classmethod
    def from_run_spec(cls, spec: "RunSpec") -> "RunSpec":
        """``spec`` itself, kept for callers written when
        ``MachineSpec`` was a separate class (``perfbench/shim.py``)."""
        return spec

    def replace(self, **overrides) -> "RunSpec":
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

    # ----------------------------------------------------------- identity

    def payload(self) -> Dict[str, object]:
        """JSON-safe dict of everything that defines this run."""
        return {
            "kind": self.kind,
            "bench": self.bench,
            "clock": asdict(self.clock),
            "config": _config_payload(self.config),
            "fly": asdict(self.fly) if self.fly is not None else None,
            "seed": self.seed,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "mem_scale": self.mem_scale,
        }

    def cache_key(self) -> str:
        """Content address: spec payload + simulator code fingerprint.

        Kept on the instance (specs are frozen, so it cannot go stale;
        the fingerprint check covers one swapped in at run time), so
        repeated calls skip even the spec's dataclass hash.
        """
        code = code_fingerprint()
        memo = self.__dict__.get("_key")
        if memo is None or memo[0] != code:
            memo = (code, _cache_key(self, code))
            object.__setattr__(self, "_key", memo)
        return memo[1]

    def variant(self) -> Dict[str, object]:
        """Non-default config/fly fields — the axes a sweep varied.

        Keys are field names (``fly.``-prefixed for FlywheelConfig),
        values the overridden settings; empty for an all-defaults run.
        Used to make config-sweep jobs distinguishable in labels,
        ``ls`` and CSV exports, where the clock/seed axes alone are
        identical across e.g. the sensitivity or ablation sweeps.
        """
        out: Dict[str, object] = {}
        base = asdict(default_config(self.kind))
        for name, value in asdict(self.config).items():
            if name in ("mem", "trace", "engine"):
                continue  # rendered compactly by ``label`` (mem=/trace=/engine=)
            if value != base[name]:
                out[name] = value
        if self.fly is not None:
            fly_base = asdict(FlywheelConfig())
            for name, value in asdict(self.fly).items():
                if value != fly_base[name]:
                    out[f"fly.{name}"] = value
        return out

    @property
    def label(self) -> str:
        """Short human-readable job name for progress lines and ``ls``."""
        bits = [f"{self.kind}/{self.bench}"]
        if self.clock.fe_speedup or self.clock.be_speedup:
            bits.append(f"fe+{self.clock.fe_speedup:.0%}"
                        f",be+{self.clock.be_speedup:.0%}")
        if self.clock.base_mhz != ClockPlan().base_mhz:
            bits.append(f"{self.clock.base_mhz:.0f}MHz")
        if self.clock.governor is not None:
            gov = self.clock.governor
            bits.append(f"gov={gov.name}@{gov.interval}")
        if self.config.mem != _DEFAULT_MEM:
            bits.append(f"mem={self.config.mem.label}")
        if self.config.trace is not None:
            bits.append(self.config.trace.label)
        if self.config.engine is not None:
            bits.append(f"engine={self.config.engine}")
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        if self.mem_scale != 1.0:
            bits.append(f"mem×{self.mem_scale:g}")
        variant = ",".join(f"{k}={v}" for k, v in self.variant().items())
        if variant:
            bits.append(variant if len(variant) <= 48
                        else variant[:45] + "...")
        return " ".join(bits)

    # ---------------------------------------------------------- execution

    def execute(self) -> SimResult:
        """Run the simulation this spec describes (in this process)."""
        return execute_kind(
            self.kind, self.bench, config=self.config, fly=self.fly,
            clock=self.clock, max_instructions=self.instructions,
            warmup=self.warmup, seed=self.seed, mem_scale=self.mem_scale)

    # ----------------------------------------------- (de)serialization

    def to_dict(self) -> Dict[str, object]:
        """:meth:`payload` plus an explicitly chosen engine, so a spec
        shipped to a worker (or a store record) keeps its engine."""
        data = self.payload()
        if self.config.engine is not None:
            data["config"]["engine"] = self.config.engine
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        """The spec a :meth:`to_dict` payload describes.

        Payloads come from outside (journals, store records, ``POST
        /campaigns``), so a malformed one raises :class:`CampaignError`
        naming the problem. Payloads written before ``CoreConfig.mem``
        became the only memory description still load: their Table 2
        ``config.memory`` member and the ``fly`` members no simulated
        path read (:data:`_UNREAD_FLY`) are dropped, and any other
        ``memory`` member is refused.
        """
        if not isinstance(data, dict):
            raise CampaignError(
                f"spec payload must be an object, got {data!r}")
        missing = [name for name in ("kind", "bench") if name not in data]
        if missing:
            raise CampaignError(
                f"spec payload lacks {' and '.join(map(repr, missing))}: "
                f"{data!r}")
        config = data.get("config")
        if config is not None:
            config = _member(dict, "config", config)
            if "memory" in config:
                _check_table2_memory(config.pop("memory"))
            if "bpred" in config:
                config["bpred"] = _member(BPredConfig, "config.bpred",
                                          config["bpred"])
            config = _member(CoreConfig, "config", config)
        clock = data.get("clock")
        clock = _member(ClockPlan, "clock", clock) if clock else None
        fly = data.get("fly")
        if fly is not None:
            fly = {name: value for name, value in
                   _member(dict, "fly", fly).items()
                   if name not in _UNREAD_FLY}
            fly = _member(FlywheelConfig, "fly", fly)
        try:
            return cls(
                kind=data["kind"],
                bench=data["bench"],
                clock=clock,
                config=config,
                fly=fly,
                seed=data.get("seed"),
                instructions=data.get("instructions", DEFAULT_INSTRUCTIONS),
                warmup=data.get("warmup", DEFAULT_WARMUP),
                mem_scale=data.get("mem_scale", 1.0),
            )
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"malformed spec payload: {exc}") from None


#: The spec class's public name, which ``repro`` and ``repro.session``
#: export.
MachineSpec = RunSpec


def _is_int(value) -> bool:
    """An int axis value: a float or a bool is a malformed one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _member(cls, name: str, value):
    """``cls(**value)`` for the spec payload member ``name``, or a
    :class:`CampaignError` naming it."""
    if not isinstance(value, dict):
        raise CampaignError(
            f"spec payload member {name!r} must be an object, "
            f"got {value!r}")
    try:
        return cls(**value)
    except (TypeError, ValueError) as exc:
        raise CampaignError(
            f"spec payload member {name!r}: {exc}") from None


def _check_table2_memory(value) -> None:
    """Refuse an old payload's ``config.memory`` unless it is Table 2's."""
    memory = _member(dict, "config.memory", value)
    other = {name: setting for name, setting in memory.items()
             if name not in _TABLE2_MEMORY
             or _TABLE2_MEMORY[name] != setting}
    if other:
        raise CampaignError(
            f"spec payload member 'config.memory' is not the Table 2 "
            f"memory system ({other!r}); describe it as 'config.mem', "
            f"a MemorySpec")


@lru_cache(maxsize=4096)
def _cache_key(spec: RunSpec, code: str) -> str:
    """``stable_hash({**spec.payload(), "code": code}, length=40)``.

    Equal specs serialize identically (see ``__post_init__`` and
    ``stable_hash``), so the key is a pure function of this pair, and
    equal specs built separately share one computation. The canonical
    JSON is assembled from members rendered on their own: the config
    objects' texts are memoized, and the scalars, which sort after
    every other member, render in one call.
    """
    tail = canonical_json({"instructions": spec.instructions,
                           "kind": spec.kind, "mem_scale": spec.mem_scale,
                           "seed": spec.seed, "warmup": spec.warmup})
    text = '{"bench":%s,"clock":%s,"code":%s,"config":%s,"fly":%s,%s' % (
        canonical_json(spec.bench), _member_json(spec.clock),
        canonical_json(code), _member_json(spec.config),
        "null" if spec.fly is None else _member_json(spec.fly), tail[1:])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]


def _config_payload(config: CoreConfig) -> Dict[str, object]:
    """A spec payload's ``config`` member."""
    data = asdict(config)
    if config.mem == _DEFAULT_MEM:
        # The default memory system is left out, so the two spellings
        # of the Table 2 machine share one payload.
        del data["mem"]
    if data.get("trace") is None:
        # Same contract for the flight recorder: an untraced run's
        # payload is byte-identical to pre-TraceSpec payloads.
        del data["trace"]
    # The engine backend is an implementation, never a machine: the
    # golden gate holds every engine bit-identical, so all engines share
    # one content address (and default/legacy payloads stay
    # byte-identical to pre-engine ones).
    del data["engine"]
    return data


@lru_cache(maxsize=4096)
def _member_json(part) -> str:
    """Canonical JSON of a ``CoreConfig``, ``FlywheelConfig`` or
    ``ClockPlan`` as a spec payload carries it.

    Equal objects serialize identically (their ``__post_init__`` coerces
    the spellings JSON would tell apart, and integral floats fold to
    ints), so each distinct one is serialized once per process: a sweep
    shares a few configs and clock plans across hundreds of specs.
    """
    if isinstance(part, CoreConfig):
        return canonical_json(_config_payload(part))
    return canonical_json(asdict(part))


def dedup(specs: Iterable[RunSpec]) -> List[RunSpec]:
    """Drop duplicate specs, keeping first-seen order.

    Specs are normalized, so duplicates are exact dataclass equals; no
    hashing of payloads is needed here.
    """
    seen = set()
    out: List[RunSpec] = []
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            out.append(spec)
    return out


@dataclass(frozen=True)
class Sweep:
    """Cross-product of run axes, expanded into a deduplicated job list.

    Every axis is a sequence; ``expand()`` yields the full product of
    kinds × benchmarks × clocks × seeds × mem_scales, each job on its
    kind's default machine (build a :class:`RunSpec` for any other).

    Budgets default to :class:`RunSpec`'s (60k measured instructions
    after a 60k warmup); the experiments CLI and presets measure 30k. Budgets
    are part of the cache key, so pass ``instructions=``/``warmup=``
    explicitly when a sweep should share store entries with a
    ``python -m repro.campaign run``-warmed cache.
    """

    kinds: Tuple[str, ...] = DEFAULT_SWEEP_KINDS
    benchmarks: Tuple[str, ...] = ()
    clocks: Tuple[Optional[ClockPlan], ...] = (None,)
    seeds: Tuple[Optional[int], ...] = (None,)
    mem_scales: Tuple[float, ...] = (1.0,)
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP

    def expand(self) -> List[RunSpec]:
        return dedup(
            RunSpec(kind=kind, bench=bench, clock=clock, seed=seed,
                    instructions=self.instructions, warmup=self.warmup,
                    mem_scale=mem_scale)
            for kind, bench, clock, seed, mem_scale in itertools.product(
                self.kinds, self.benchmarks, self.clocks, self.seeds,
                self.mem_scales))
