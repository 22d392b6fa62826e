"""Set-associative cache with true-LRU replacement.

Timing is handled by the callers (the hierarchy knows hit latencies; the
cores know how to overlap them); this model tracks *contents* so hit/miss
behaviour emerges from the actual address stream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Access counters, also consumed by the power model.

    ``prefetches`` counts lines installed by a prefetcher (they bypass
    the demand ``accesses``/``hits``/``misses`` counters); ``writebacks``
    counts dirty-victim spills under the write-back policy.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0
    prefetches: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def to_dict(self) -> Dict[str, int]:
        return {
            "accesses": self.accesses, "hits": self.hits,
            "misses": self.misses, "evictions": self.evictions,
            "writes": self.writes, "prefetches": self.prefetches,
            "writebacks": self.writebacks,
        }


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass
class Cache:
    """One level of set-associative cache with LRU replacement."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 32
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigError(f"{self.name}: ways must be >= 1")
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways ({self.line_bytes}*{self.ways})"
            )
        self.num_sets = self.size_bytes // (self.line_bytes * self.ways)
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"{self.name}: set count must be a power of two")
        self._set_mask = self.num_sets - 1
        self._line_shift = self.line_bytes.bit_length() - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        # Set index -> (tag -> LRU stamp); eviction scans for the min
        # stamp (associativity is small, so the scan beats an ordered
        # structure). A set's map is made on its first allocation, so a
        # short run pays only for the sets it touches.
        self._sets: Dict[int, Dict[int, int]] = defaultdict(dict)
        self._clock = 0

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one address; returns True on hit. Misses allocate."""
        self._clock += 1
        self.stats.accesses += 1
        if write:
            self.stats.writes += 1
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        cset = self._sets[set_idx]
        if tag in cset:
            cset[tag] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cset) >= self.ways:
            victim = min(cset, key=cset.get)
            del cset[victim]
            self.stats.evictions += 1
        cset[tag] = self._clock
        return False

    def access_ex(self, addr: int, write: bool = False):
        """Like :meth:`access`, but also reports the evicted victim.

        Returns ``(hit, victim_line)`` where ``victim_line`` is the
        global line id (``addr >> line_shift``) of the line evicted to
        make room, or ``None``. Used by the general hierarchy path,
        whose write-back policy must know which line left the cache;
        the hierarchy's fast path keeps the cheaper :meth:`access`.
        """
        self._clock += 1
        self.stats.accesses += 1
        if write:
            self.stats.writes += 1
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        cset = self._sets[set_idx]
        if tag in cset:
            cset[tag] = self._clock
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        victim = None
        if len(cset) >= self.ways:
            vtag = min(cset, key=cset.get)
            del cset[vtag]
            self.stats.evictions += 1
            victim = (vtag << self._tag_shift) | set_idx
        cset[tag] = self._clock
        return False, victim

    def install(self, addr: int):
        """Allocate a line without counting a demand access.

        Touches LRU state if already resident. Returns the evicted
        victim's global line id, or ``None``. Fills from prefetchers
        and write-back spills go through here so demand hit/miss
        counters stay meaningful.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        cset = self._sets[set_idx]
        self._clock += 1
        if tag in cset:
            cset[tag] = self._clock
            return None
        victim = None
        if len(cset) >= self.ways:
            vtag = min(cset, key=cset.get)
            del cset[vtag]
            self.stats.evictions += 1
            victim = (vtag << self._tag_shift) | set_idx
        cset[tag] = self._clock
        return victim

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or counters."""
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        cset = self._sets.get(set_idx)     # never allocates a set
        return cset is not None and tag in cset
