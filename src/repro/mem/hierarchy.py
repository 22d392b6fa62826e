"""The memory system: a composable cache-level chain with miss handling.

Built from a declarative :class:`~repro.mem.spec.MemorySpec` (the
paper's Table 2 stack by default; ``CoreConfig.mem`` carries it): a
private L1I in front of the shared tail of a data-side
:class:`CacheLevel` chain (L1D → L2 [→ L3 ...] → DRAM). Latencies are
returned in cycles *of the requesting clock domain*; the paper keeps
DRAM access time fixed in nanoseconds, so when a domain's clock is
raised the DRAM latency in cycles grows proportionally — callers pass a
``mem_scale`` factor for that (1.0 = baseline clock).

Two execution paths, chosen once at construction:

* **Fast path** — taken when ``spec.is_simple`` (two data levels, no
  MSHR modelling, no prefetcher, allocate-on-write): byte-for-byte the
  historical three-probe code, which keeps the default spec
  golden-equivalent with pre-spec trees and the L1-hit hot loop at full
  speed.
* **General path** — walks the chain level by level (allocating on the
  way down, so a store that misses L1 but hits L2 installs the line in
  L1 — allocation is part of the walk, not a side effect of the last
  probe), spills dirty victims to the next level under the write-back
  policy, trains the prefetcher on L1D demand misses, and models
  *non-blocking* loads through a bounded MSHR file: up to
  ``spec.mshrs`` distinct lines may be in flight below L1D, a miss to
  an in-flight line merges (paying only the remaining fill time), and a
  full file delays the request until the earliest fill lands. With
  ``mshrs=1`` the cache blocks — independent misses serialize — which
  is the contrast the ``mem`` experiment measures.

Timing model notes (DESIGN.md §6): MSHR occupancy is tracked on the
data side only (instruction fetch contends for neither MSHRs nor
prefetch state); ``now`` is the requester's cycle counter, which is
monotonic per run for every core kind; prefetch fills install
instantly (an ideal-timeliness prefetcher — the knob measures *what* to
prefetch, not bus contention). Functional warmup uses the ``warm_*``
entry points, which update contents and counters but never the MSHR
timeline, so a 60k-instruction warmup at cycle 0 cannot poison the
timed run's miss overlap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.mem.cache import Cache
from repro.mem.spec import CacheLevelSpec, MemorySpec


class CacheLevel:
    """One composable level of the data chain: cache + latency + policy."""

    __slots__ = ("cache", "latency", "dirty")

    def __init__(self, name: str, spec: CacheLevelSpec, line_bytes: int,
                 write_back: bool):
        self.cache = Cache(name, spec.kb * 1024, spec.ways, line_bytes)
        self.latency = spec.latency
        #: Dirty line ids under the write-back policy, else None.
        self.dirty: Optional[Set[int]] = set() if write_back else None


#: Prefetcher kind codes (resolved once at construction).
_PF_NONE, _PF_NEXT_LINE, _PF_STRIDE = 0, 1, 2
_PF_KINDS = {"none": _PF_NONE, "next_line": _PF_NEXT_LINE,
             "stride": _PF_STRIDE}


class MemoryHierarchy:
    """Content-tracking memory stack shared by the simulated cores.

    ``ifetch``/``load``/``store`` take ``(addr, mem_scale, now)`` and
    return the access latency in requester cycles; ``now`` feeds the
    MSHR timeline and is ignored on the fast path. ``warm_*`` are the
    timing-free variants for functional warmup.
    """

    def __init__(self, spec: Optional[MemorySpec] = None,
                 force_general: bool = False):
        self.spec = spec = spec or MemorySpec()
        write_back = spec.write_policy == "back"

        self.l1i = Cache("l1i", spec.l1i.kb * 1024, spec.l1i.ways,
                         spec.line_bytes)
        self._l1i_latency = spec.l1i.latency
        names = ["l1d"] + [f"l{i}" for i in range(2, len(spec.levels) + 1)]
        self._dchain: List[CacheLevel] = [
            CacheLevel(name, lvl, spec.line_bytes, write_back)
            for name, lvl in zip(names, spec.levels)]
        self.l1d = self._dchain[0].cache
        # ``l2`` survives as the power/telemetry tap for shared-level
        # accesses; a one-level chain exposes an empty stand-in so
        # consumers (energy_report, DVFS telemetry) read zero.
        self.l2 = (self._dchain[1].cache if len(self._dchain) > 1
                   else Cache("l2", spec.line_bytes * 4, 4, spec.line_bytes))
        self._line_shift = spec.line_bytes.bit_length() - 1
        self._dram_lat = spec.dram_latency

        # MSHR file: line id -> fill-completion cycle, bounded to
        # ``spec.mshrs`` in-flight entries (0 = not modelled).
        self._mshr_count = spec.mshrs
        self._mshr_table: Dict[int, int] = {}
        self._mshr_allocs = 0
        self._mshr_merges = 0
        self._mshr_stall_cycles = 0
        self._mshr_peak = 0
        self._mshr_occ_sum = 0

        # Prefetcher state (stride detector trains on L1D miss lines).
        self._pf_kind = _PF_KINDS[spec.prefetch]
        self._pf_last_line = -1
        self._pf_last_stride = 0

        #: Flight recorder (set by the owning core when tracing is on).
        #: Consulted only on general-path miss/stall handling — the
        #: golden-pinned fast path and the L1-hit hot loop never read it.
        self.trace = None

        if spec.is_simple and not force_general:
            # Legacy fast path: identical probe sequence and latency
            # arithmetic to the pre-spec hierarchy (golden-pinned; the
            # I-side carries its own latency so a spec with a custom
            # L1I stays fast *and* correct — default l1i latency equals
            # l1d latency, so the default numbers are unchanged).
            self._l1_lat = self._dchain[0].latency
            self._l12_lat = self._dchain[0].latency + self._dchain[1].latency
            self._l1i_lat = self._l1i_latency
            self._l1i2_lat = self._l1i_latency + self._dchain[1].latency
            self.ifetch = self._ifetch_fast
            self.load = self._load_fast
            self.store = self._store_fast
            self.warm_ifetch = self._ifetch_fast
            self.warm_load = self._load_fast
            self.warm_store = self._store_fast
        else:
            # Instruction chain: private L1I level + the shared tail.
            l1i_level = CacheLevel.__new__(CacheLevel)
            l1i_level.cache = self.l1i
            l1i_level.latency = self._l1i_latency
            l1i_level.dirty = None
            self._ichain = [l1i_level] + self._dchain[1:]
            self.ifetch = self._ifetch_general
            self.load = self._load_general
            self.store = self._store_general
            # The I-side never touches the MSHR timeline, so its timed
            # entry point doubles as the warm one.
            self.warm_ifetch = self._ifetch_general
            self.warm_load = self._warm_load_general
            self.warm_store = self._warm_store_general

    # ------------------------------------------------------------ fast path

    def _ifetch_fast(self, pc: int, mem_scale: float = 1.0,
                     now: int = 0) -> int:
        """Instruction fetch; returns total latency in requester cycles."""
        if self.l1i.access(pc):
            return self._l1i_lat
        if self.l2.access(pc):
            return self._l1i2_lat
        return self._l1i2_lat + self._dram(mem_scale)

    def _load_fast(self, addr: int, mem_scale: float = 1.0,
                   now: int = 0) -> int:
        """Data load; returns total latency in requester cycles."""
        if self.l1d.access(addr):
            return self._l1_lat
        if self.l2.access(addr):
            return self._l12_lat
        return self._l12_lat + self._dram(mem_scale)

    def _store_fast(self, addr: int, mem_scale: float = 1.0,
                    now: int = 0) -> int:
        """Data store (write-allocate); latency matters only for LSQ drain."""
        if self.l1d.access(addr, write=True):
            return self._l1_lat
        if self.l2.access(addr, write=True):
            return self._l12_lat
        return self._l12_lat + self._dram(mem_scale)

    def _dram(self, mem_scale: float) -> int:
        return max(1, round(self._dram_lat * mem_scale))

    # --------------------------------------------------------- general path

    def _walk(self, chain: List[CacheLevel], addr: int, write: bool,
              mem_scale: float) -> Tuple[int, int]:
        """Access the chain top-down; returns ``(latency, hit_index)``.

        Every missed level allocates the line on the way down — so by
        the time a lower level hits (or DRAM supplies the line), every
        upper level holds it. That makes allocation explicit chain
        policy rather than a side effect of the last probe: in
        particular a *store* that misses L1D but hits L2 installs the
        line in L1D under both write policies (the historical
        ``store`` asymmetry this path is pinned against). Dirty victims
        spill into the next level and count ``writebacks``.
        """
        lat = 0
        hit_idx = -1
        n = len(chain)
        for i in range(n):
            lvl = chain[i]
            lat += lvl.latency
            hit, victim = lvl.cache.access_ex(addr, write)
            if (victim is not None and lvl.dirty is not None
                    and victim in lvl.dirty):
                lvl.dirty.discard(victim)
                lvl.cache.stats.writebacks += 1
                if i + 1 < n:
                    chain[i + 1].cache.stats.writes += 1
                    self._install_at(chain, i + 1, victim, dirty=True)
            if hit:
                hit_idx = i
                break
        if hit_idx < 0:
            lat += max(1, round(self._dram_lat * mem_scale))
        if write and chain[0].dirty is not None:
            chain[0].dirty.add(addr >> self._line_shift)
        return lat, hit_idx

    def _install_at(self, chain: List[CacheLevel], idx: int, line: int,
                    prefetch: bool = False, dirty: bool = False) -> bool:
        """Install ``line`` into ``chain[idx]`` (contents only), spilling
        dirty victims down the chain. ``dirty=True`` marks the line
        dirty at the receiving level — a spilled write-back victim stays
        dirty until it leaves the chain, so its own later eviction
        writes back in turn (the cascade). Returns True if newly
        installed.
        """
        lvl = chain[idx]
        addr = line << self._line_shift
        if dirty and lvl.dirty is not None:
            lvl.dirty.add(line)
        if lvl.cache.probe(addr):
            return False
        if prefetch:
            lvl.cache.stats.prefetches += 1
        victim = lvl.cache.install(addr)
        while victim is not None:
            if lvl.dirty is None or victim not in lvl.dirty:
                break
            lvl.dirty.discard(victim)
            lvl.cache.stats.writebacks += 1
            idx += 1
            if idx >= len(chain):
                break
            lvl = chain[idx]
            lvl.cache.stats.writes += 1
            if lvl.dirty is not None:
                lvl.dirty.add(victim)
            victim = lvl.cache.install(victim << self._line_shift)
        return True

    def _train_prefetch(self, miss_line: int) -> None:
        """Train on an L1D demand miss; install the predicted next line
        into L1D and the first shared level (ideal timeliness)."""
        kind = self._pf_kind
        if kind == _PF_NEXT_LINE:
            target = miss_line + 1
        else:  # stride
            stride = miss_line - self._pf_last_line
            prev = self._pf_last_stride
            self._pf_last_line = miss_line
            self._pf_last_stride = stride
            if stride == 0 or stride != prev:
                return
            target = miss_line + stride
        chain = self._dchain
        for idx in range(min(2, len(chain))):
            self._install_at(chain, idx, target, prefetch=True)

    def _mshr_below(self, now: int, line: int, below: int) -> int:
        """Effective below-L1D latency once the MSHR file is consulted.

        ``below`` is the unconstrained fill time (chain + DRAM). Misses
        to an in-flight line merge (remaining time only); a full file
        queues the request until an MSHR frees. Queued entries stay in
        the table — their fills are still in flight, so later accesses
        to those lines must keep merging — which means the table may
        transiently hold more than ``mshrs`` entries; the k-th newest
        request beyond capacity waits for the k-th completion.
        """
        table = self._mshr_table
        if table:
            for ln in [ln for ln, t in table.items() if t <= now]:
                del table[ln]
        fill = table.get(line)
        if fill is not None:
            self._mshr_merges += 1
            return fill - now
        wait = 0
        count = self._mshr_count
        if len(table) >= count:
            fills = sorted(table.values())
            wait = fills[len(fills) - count] - now
            self._mshr_stall_cycles += wait
            if self.trace is not None and wait > 0:
                self.trace.emit(now, "stall", -1, "mshr_full")
        table[line] = now + wait + below
        self._mshr_allocs += 1
        occ = min(len(table), count)       # queued entries don't hold slots
        self._mshr_occ_sum += occ
        if occ > self._mshr_peak:
            self._mshr_peak = occ
        return wait + below

    def _data_access(self, addr: int, write: bool, mem_scale: float,
                     now: int) -> int:
        lat, hit_idx = self._walk(self._dchain, addr, write, mem_scale)
        line = addr >> self._line_shift
        if hit_idx == 0:
            # Contents install on the walk, but the *data* of a line
            # whose fill is still in flight has not arrived: an access
            # to it merges into the outstanding MSHR and pays the
            # remaining fill time (hit-under-fill).
            if self._mshr_table:
                fill = self._mshr_table.get(line)
                if fill is not None and fill > now:
                    self._mshr_merges += 1
                    return self._dchain[0].latency + (fill - now)
            return lat                      # true L1 hit
        if self.trace is not None:
            # Miss serviced at data-chain level ``hit_idx`` (1 = the
            # first shared level), or DRAM when the walk ran off the end.
            self.trace.emit(now, "mem", -1,
                            hit_idx if hit_idx >= 0 else len(self._dchain))
        if self._pf_kind:
            self._train_prefetch(line)
        if self._mshr_count:
            head_lat = self._dchain[0].latency
            lat = head_lat + self._mshr_below(now, line, lat - head_lat)
        return lat

    def _ifetch_general(self, pc: int, mem_scale: float = 1.0,
                        now: int = 0) -> int:
        lat, _hit = self._walk(self._ichain, pc, False, mem_scale)
        return lat

    def _load_general(self, addr: int, mem_scale: float = 1.0,
                      now: int = 0) -> int:
        return self._data_access(addr, False, mem_scale, now)

    def _store_general(self, addr: int, mem_scale: float = 1.0,
                       now: int = 0) -> int:
        return self._data_access(addr, True, mem_scale, now)

    # Warmup variants: contents and counters, no MSHR timeline.
    def _warm_load_general(self, addr: int, mem_scale: float = 1.0,
                           now: int = 0) -> int:
        lat, hit_idx = self._walk(self._dchain, addr, False, mem_scale)
        if hit_idx != 0 and self._pf_kind:
            self._train_prefetch(addr >> self._line_shift)
        return lat

    def _warm_store_general(self, addr: int, mem_scale: float = 1.0,
                            now: int = 0) -> int:
        lat, hit_idx = self._walk(self._dchain, addr, True, mem_scale)
        if hit_idx != 0 and self._pf_kind:
            self._train_prefetch(addr >> self._line_shift)
        return lat

    # ----------------------------------------------------------- inspection

    def named_caches(self) -> List[Tuple[str, Cache]]:
        """(name, cache) pairs: ``l1i`` then the data chain."""
        out = [("l1i", self.l1i)]
        out.extend((lvl.cache.name, lvl.cache) for lvl in self._dchain)
        return out

    def stats_dict(self) -> Dict[str, Dict[str, object]]:
        """Per-level counters plus MSHR aggregates, for
        ``SimStats.cache_stats`` and the report/export layers."""
        out: Dict[str, Dict[str, object]] = {
            name: cache.stats.to_dict()
            for name, cache in self.named_caches()}
        if self._mshr_count:
            allocs = self._mshr_allocs
            out["mshr"] = {
                "size": self._mshr_count,
                "allocs": allocs,
                "merges": self._mshr_merges,
                "stall_cycles": self._mshr_stall_cycles,
                "peak": self._mshr_peak,
                "occupancy_avg": (round(self._mshr_occ_sum / allocs, 4)
                                  if allocs else 0.0),
            }
        return out
