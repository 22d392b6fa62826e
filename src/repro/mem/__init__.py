"""Memory-system substrate: declarative specs, set-associative caches,
and the composable L1/L2/DRAM hierarchy with MSHRs and prefetch."""

from repro.mem.cache import Cache, CacheStats
from repro.mem.hierarchy import CacheLevel, MemoryHierarchy
from repro.mem.spec import (
    PREFETCHERS,
    WRITE_POLICIES,
    CacheLevelSpec,
    MemorySpec,
)

__all__ = [
    "Cache",
    "CacheStats",
    "CacheLevel",
    "CacheLevelSpec",
    "MemoryHierarchy",
    "MemorySpec",
    "PREFETCHERS",
    "WRITE_POLICIES",
]
