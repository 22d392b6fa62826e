"""Core configuration (the paper's Table 2, plus clock plans from Table 1).

``CoreConfig`` describes the machine independent of clocks; ``ClockPlan``
binds the front-end / back-end domains to frequencies. The paper sweeps
front-end speedups of 0-100% and a back-end (trace-execution) speedup of
50% over the issue-window-limited baseline clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from typing import Optional

from repro.errors import ConfigError
from repro.frontend.bpred import BPredConfig
from repro.mem.hierarchy import MemoryConfig
from repro.mem.spec import MemorySpec
from repro.obs.spec import TraceSpec


def _canonical(value: object) -> object:
    """Normalize a payload so ``==``-equal values serialize identically.

    JSON renders 64 and 64.0 differently while Python compares them
    equal; folding integral floats to ints keeps the invariant that
    equal configs/specs share a hash, whatever numeric type the caller
    used.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      default=str)


def canonical_json(payload: object) -> str:
    """Canonical JSON text of a payload: sorted keys, no whitespace,
    integral floats folded to ints.

    Each nested object renders the same inside a document as on its own,
    so a document can be assembled from separately rendered members.
    """
    return _CANONICAL_ENCODER.encode(_canonical(payload))


def stable_hash(payload: object, length: int = 16) -> str:
    """Deterministic hex digest of a JSON-serializable payload.

    Hashes :func:`canonical_json`, so the digest is stable across
    processes and Python versions — unlike ``hash()``, which is
    randomized per interpreter run.
    """
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()[:length]


#: The engine a ``CoreConfig(engine=None)`` run executes on.
DEFAULT_ENGINE = "turbo"


class _CacheKeyMixin:
    """Content-addressed identity for frozen config dataclasses."""

    def cache_key(self) -> str:
        """Stable short hash of every field (nested configs included)."""
        return stable_hash(asdict(self))


@dataclass(frozen=True)
class CoreConfig(_CacheKeyMixin):
    """Microarchitecture parameters (defaults = paper Table 2, baseline)."""

    # Widths
    fetch_width: int = 4
    decode_width: int = 4
    rename_width: int = 4
    dispatch_width: int = 4
    commit_width: int = 4
    issue_width: int = 6

    # Structures
    iw_entries: int = 128
    rob_entries: int = 160
    lsq_entries: int = 64
    phys_regs: int = 192          # baseline register file
    regread_stages: int = 1       # 2 for the Flywheel's 512-entry file

    # Functional units (Table 2)
    int_alus: int = 4
    int_muldivs: int = 2
    mem_ports: int = 2
    fp_adders: int = 2
    fp_muldivs: int = 1

    # Pipeline-variant knobs (Fig. 2 loops study)
    extra_frontend_stages: int = 0   # extra Fetch/Mispredict loop stages
    wakeup_extra_delay: int = 0      # 1 = pipelined Wake-Up/Select (no b2b)

    #: Abort the run if no instruction commits for this many cycles.
    #: 0 selects the kind-specific default (20k for synchronous cores,
    #: 40k for the Flywheel, whose checkpoint/drain sequences legitimately
    #: stall longer).
    deadlock_window: int = 0

    # Substrates
    bpred: BPredConfig = field(default_factory=BPredConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    #: Composable memory-system spec (:class:`repro.mem.MemorySpec`):
    #: cache-level chain, MSHR budget, prefetcher, write policy. ``None``
    #: derives the legacy-equivalent spec from ``memory`` — the
    #: golden-pinned default. The kind registry's ``normalize_config``
    #: folds an explicit-but-redundant spec back to ``None`` so both
    #: spellings of the default machine hash identically.
    mem: Optional[MemorySpec] = None

    #: Flight-recorder spec (:class:`repro.obs.TraceSpec`): ring-buffer
    #: size, event mask and cycle window. ``None`` (the default) means
    #: no recorder is constructed — the cores carry a single ``None``
    #: attribute and every emission site reduces to one predictable
    #: branch, which is what keeps the golden stats and BENCH_core.json
    #: untouched (DESIGN.md §7).
    trace: Optional[TraceSpec] = None

    #: Execution-engine backend: ``None`` (the default engine, which is
    #: ``"turbo"``, the batched struct-of-arrays engine in
    #: ``repro.core.engine.turbo``), ``"turbo"`` or ``"legacy"``, the
    #: per-object tick loop every golden number was pinned on. Both
    #: backends are required to be bit-identical on every counter — the
    #: engine axis picks an implementation, never a machine (DESIGN.md
    #: §8) — so the key never enters a spec's content address.
    engine: Optional[str] = None

    @property
    def resolved_engine(self) -> str:
        """The engine a run of this config executes on."""
        return DEFAULT_ENGINE if self.engine is None else self.engine

    def __post_init__(self) -> None:
        # Rebuild specs handed over as plain payload dicts (store
        # records, RunSpec.from_dict), mirroring ClockPlan.governor.
        if isinstance(self.mem, dict):
            object.__setattr__(self, "mem", MemorySpec.from_dict(self.mem))
        if isinstance(self.trace, dict):
            object.__setattr__(self, "trace",
                               TraceSpec.from_dict(self.trace))
        if self.issue_width < 1 or self.fetch_width < 1:
            raise ConfigError("widths must be >= 1")
        if self.phys_regs < 64 + self.rename_width:
            raise ConfigError("too few physical registers to rename at all")
        if self.iw_entries < self.issue_width:
            raise ConfigError("issue window smaller than issue width")
        if self.deadlock_window < 0:
            raise ConfigError("deadlock_window must be >= 0 (0 = default)")
        if self.engine not in (None, "legacy", "turbo"):
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected None (the "
                "default engine), 'legacy' or 'turbo'")

    def with_variant(self, **kw) -> "CoreConfig":
        """Return a copy with some fields replaced (pipeline variants)."""
        return replace(self, **kw)


@dataclass(frozen=True)
class FlywheelConfig(_CacheKeyMixin):
    """Flywheel-specific structures on top of a :class:`CoreConfig`.

    Defaults follow Table 2 and Sections 3.3-3.5: a 128K two-way Execution
    Cache with three-cycle access and eight-instruction blocks, a 512-entry
    register file organised as per-architected-register pools, two-cycle
    register file access, SRT fast trace switch, and register
    redistribution checked every 500k cycles at a 100-cycle penalty.
    """

    ec_enabled: bool = True         # False = "Register Allocation" config
    ec_kb: int = 128
    ec_ways: int = 2
    ec_latency: int = 3             # cycles per data-array access
    ec_block_slots: int = 8         # instructions per DA block
    ec_bytes_per_slot: int = 8      # storage per pre-scheduled instruction
    #: Traces are kept "as long as possible" (Section 3.3) so that the
    #: recurring post-mispredict PCs dominate trace starts; a short cap
    #: would slice loops at phase-shifting addresses and thrash the EC.
    #: ``max_trace_units`` is part of the config (so of cache keys and
    #: pinned payloads), but nothing reads it: it changes no simulated
    #: number. Traces end at ``max_trace_instrs`` (fetch side); the
    #: largest one stored in a default-budget run has 354 Issue Units
    #: (bzip2; gcc 276).
    max_trace_units: int = 512
    max_trace_instrs: int = 768     # natural trace-end threshold

    pool_regs: int = 512            # Flywheel register file entries
    default_pool_size: int = 8      # 512 / 64 architected registers
    min_pool_size: int = 2
    max_pool_size: int = 32

    use_srt: bool = True            # speculative remapping table enabled
    #: The paper checks the stall counters every 500k cycles over 100M
    #: simulated instructions. Our runs are ~1000x shorter, so the default
    #: interval is scaled down proportionally to keep the same number of
    #: redistribution opportunities per run; pass 500_000 to model the
    #: paper's literal setting.
    redistribution_interval: int = 10_000    # cycles between counter checks
    redistribution_penalty: int = 100        # cycles per redistribution
    redistribution_enabled: bool = True

    sync_cycles: int = 1            # mixed-clock FIFO latency (consumer cycles)
    #: Dual Clock Issue Window (Sec. 3.2): entries are written with the
    #: front-end clock and seen by Wake-Up/Select after a synchronization
    #: delay in back-end cycles. The RAT is read in the front-end domain
    #: while tags broadcast in the back-end one, so a tag can arrive after
    #: the RAT read but before Wake-Up sees the entry (the race of Fig. 4).
    #: The paper offers two fixes; the run loop applies the chosen one at
    #: window insertion (``# ---- Register Update``).
    #:
    #: Duplicated tag matching (the default): wake-up also matches tags
    #: broadcast in the previous ``tag_window`` back-end cycles, so a
    #: raced tag is caught and back-to-back scheduling is kept. The timing
    #: model needs no state for this (an inserted entry sees the
    #: scoreboard as of its insertion cycle) and the power model does not
    #: charge the extra match lines, so ``tag_window`` is part of the
    #: config (so of cache keys and pinned payloads) but changes no
    #: simulated number.
    tag_window: int = 2
    #: The delay network: entries become selectable one extra back-end
    #: cycle after insertion, losing exactly the back-to-back capability
    #: the design preserves.
    delay_network: bool = False

    def __post_init__(self) -> None:
        # Coerce the switches (e.g. ec_enabled=0 from a JSON client) so
        # equal configs also serialize identically: 0 == False, but JSON
        # renders them differently and cache keys go through JSON.
        for name in ("ec_enabled", "use_srt", "redistribution_enabled",
                     "delay_network"):
            object.__setattr__(self, name, bool(getattr(self, name)))

    @property
    def ec_blocks(self) -> int:
        """Total data-array blocks in the Execution Cache."""
        return (self.ec_kb * 1024) // (self.ec_block_slots * self.ec_bytes_per_slot)


@dataclass(frozen=True)
class ClockPlan(_CacheKeyMixin):
    """Frequencies (MHz) for a run, plus an optional adaptive governor.

    ``fe_mhz`` drives fetch/decode/rename/dispatch; ``be_mhz`` drives the
    issue window and execution core in trace-creation mode (and is the
    baseline's single clock); ``be_fast_mhz`` drives the execution core in
    trace-execution mode. The paper's sweep expresses these as percentage
    speedups over the baseline clock.

    ``governor`` attaches a runtime DVFS policy
    (:class:`repro.dvfs.GovernorConfig`) that retunes the back-end clock
    at interval boundaries; ``None`` (the default) attaches no controller
    and is the static machine the paper models. Because the governor
    rides inside the plan, it participates in ``cache_key()`` and flows
    through campaign specs and the result store unchanged.
    """

    base_mhz: float = 950.0          # Table 1, 0.18um issue window
    fe_speedup: float = 0.0          # 0.0 .. 1.0  (0% .. 100%)
    be_speedup: float = 0.0          # trace-execution core speedup (0.5 = 50%)
    governor: "object" = None        # Optional[repro.dvfs.GovernorConfig]

    def __post_init__(self) -> None:
        # Coerce int-valued inputs (e.g. base_mhz=950) so equal plans
        # also serialize identically — cache keys go through JSON, where
        # 950 and 950.0 render differently.
        for name in ("base_mhz", "fe_speedup", "be_speedup"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Rebuild a governor handed over as a plain payload dict (store
        # records, RunSpec.from_dict). Deferred import: repro.dvfs is a
        # consumer of this module.
        if isinstance(self.governor, dict):
            from repro.dvfs.config import GovernorConfig

            object.__setattr__(self, "governor",
                               GovernorConfig(**self.governor))

    @property
    def fe_mhz(self) -> float:
        return self.base_mhz * (1.0 + self.fe_speedup)

    @property
    def be_mhz(self) -> float:
        return self.base_mhz

    @property
    def be_fast_mhz(self) -> float:
        return self.base_mhz * (1.0 + self.be_speedup)

    def mem_scale(self, domain_mhz: float) -> float:
        """DRAM cycles multiplier: DRAM time is fixed in ns, so a faster
        clock sees proportionally more cycles."""
        return domain_mhz / self.base_mhz
