"""Declarative memory-system specification.

A :class:`MemorySpec` names a whole memory system the way a
:class:`~repro.core.config.ClockPlan` names the clocks: a frozen value
object carrying the cache-level chain (geometry + hit latency per
level), the line size, the DRAM latency, the miss-handling register
(MSHR) budget, the prefetcher and the write policy. It rides inside
:class:`~repro.core.config.CoreConfig` (``CoreConfig.mem``) so memory
configurations flow through ``MachineSpec``/``RunSpec`` payloads, cache
keys, campaign sweeps and both CLIs like any other machine axis.

``MemorySpec()`` (all defaults) is the paper's Table 2 stack and the
default ``CoreConfig.mem``: split 64K L1I / 64K L1D over a unified 512K
L2, 32-byte lines, 2/10/100 cycle latencies, unbounded miss overlap
(``mshrs=0``), no prefetcher, allocate-on-write. The hierarchy detects
that shape and takes its fast path, which keeps the default machine
golden-equivalent (bit-identical ``SimStats``) with pre-spec trees. A
spec payload leaves the default out, so ``CoreConfig()`` and
``CoreConfig(mem=MemorySpec())`` are one machine with one content
address.

The interesting axes:

* ``mshrs`` — 0 models ideal, unbounded memory-level parallelism (the
  legacy behaviour: every miss pays its own latency, independent misses
  overlap freely). ``mshrs=1`` is a *blocking* cache: a second miss
  waits for the outstanding fill to complete before its own fill can
  start. ``mshrs>=2`` bounds the overlap: up to that many distinct
  lines may be in flight below L1D, misses to an in-flight line merge
  into its MSHR, and a full file stalls the requester until the
  earliest fill lands.
* ``prefetch`` — ``"none"``, ``"next_line"`` (install line+1 on every
  L1D demand miss) or ``"stride"`` (a last-miss stride detector that
  installs line+stride after two same-stride misses).
* ``write_policy`` — ``"allocate"`` (the legacy write-allocate stack)
  or ``"back"`` (write-allocate + dirty bits; evicting a dirty line
  writes it back to the next level and counts a ``writebacks`` event).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError

__all__ = ["CacheLevelSpec", "MemorySpec", "PREFETCHERS", "WRITE_POLICIES"]

#: Valid ``MemorySpec.prefetch`` values.
PREFETCHERS = ("none", "next_line", "stride")

#: Valid ``MemorySpec.write_policy`` values.
WRITE_POLICIES = ("allocate", "back")

#: Hard bound on chain depth (L1D..L4 is already beyond the design space).
MAX_LEVELS = 4


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and hit latency of one cache level."""

    kb: int
    ways: int
    latency: int

    def __post_init__(self) -> None:
        if self.kb < 1 or self.ways < 1 or self.latency < 1:
            raise ConfigError(
                f"cache level ({self.kb}KB, {self.ways}w, "
                f"{self.latency}cyc): all fields must be >= 1")


@dataclass(frozen=True)
class MemorySpec:
    """Frozen, declarative description of one memory system.

    ``levels`` is the data-side chain (L1D first); ``levels[1:]`` are
    shared with the instruction side, whose private first level is
    ``l1i``. Defaults reproduce the paper's Table-2 stack exactly.
    """

    l1i: CacheLevelSpec = CacheLevelSpec(64, 2, 2)
    levels: Tuple[CacheLevelSpec, ...] = (CacheLevelSpec(64, 4, 2),
                                          CacheLevelSpec(512, 4, 10))
    line_bytes: int = 32
    dram_latency: int = 100
    mshrs: int = 0                 # 0 = ideal/unbounded miss overlap
    prefetch: str = "none"         # none | next_line | stride
    write_policy: str = "allocate"  # allocate | back

    def __post_init__(self) -> None:
        # Coerce payload dicts (RunSpec.from_dict, store records) and
        # lists back into the frozen value types, so specs rebuilt from
        # JSON compare and hash equal to the originals.
        if isinstance(self.l1i, dict):
            object.__setattr__(self, "l1i", CacheLevelSpec(**self.l1i))
        levels = tuple(CacheLevelSpec(**lvl) if isinstance(lvl, dict)
                       else lvl for lvl in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels or len(levels) > MAX_LEVELS:
            raise ConfigError(
                f"MemorySpec needs 1..{MAX_LEVELS} data levels, "
                f"got {len(levels)}")
        if self.line_bytes < 4 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a power of two >= 4")
        if self.dram_latency < 1:
            raise ConfigError("dram_latency must be >= 1")
        if self.mshrs < 0:
            raise ConfigError("mshrs must be >= 0 (0 = unbounded)")
        if self.prefetch not in PREFETCHERS:
            raise ConfigError(
                f"unknown prefetcher {self.prefetch!r}; expected one of "
                f"{PREFETCHERS}")
        if self.write_policy not in WRITE_POLICIES:
            raise ConfigError(
                f"unknown write policy {self.write_policy!r}; expected "
                f"one of {WRITE_POLICIES}")

    # ----------------------------------------------------------- derived

    @property
    def is_simple(self) -> bool:
        """True when the hierarchy may take its fast path: a two-level
        data chain with no MSHR modelling, no prefetcher and the
        allocate write policy, whatever the geometry. The fast path
        returns the general walk's latencies and counters for such a
        chain at less cost."""
        return (len(self.levels) == 2 and self.mshrs == 0
                and self.prefetch == "none"
                and self.write_policy == "allocate")

    @property
    def label(self) -> str:
        """Compact tag for run labels and ``campaign ls`` lines.

        Every non-default axis contributes a bit, so two different
        specs in the same sweep render different labels (the CSV/``ls``
        ``mem`` column is how runs differing only in memory shape are
        told apart — the spec is deliberately absent from the ``k=v``
        variant string).
        """
        default = type(self)()
        bits = []

        def lvl_tag(lvl: CacheLevelSpec) -> str:
            return f"{lvl.kb}kx{lvl.ways}@{lvl.latency}"

        if self.levels != default.levels:
            bits.append("/".join(lvl_tag(lvl) for lvl in self.levels))
        if self.l1i != default.l1i:
            bits.append("i" + lvl_tag(self.l1i))
        if self.line_bytes != default.line_bytes:
            bits.append(f"ln{self.line_bytes}")
        if self.dram_latency != default.dram_latency:
            bits.append(f"d{self.dram_latency}")
        bits.append(f"mshr{self.mshrs}" if self.mshrs else "ideal")
        if self.prefetch != "none":
            bits.append({"next_line": "nl", "stride": "st"}[self.prefetch])
        if self.write_policy == "back":
            bits.append("wb")
        return "+".join(bits)

    # ------------------------------------------------------- conversions

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload; exact inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MemorySpec":
        return cls(**data)
