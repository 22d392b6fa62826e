"""Footer summaries of experiment runs: the frequency trajectory of
governed (DVFS) runs and the memory system (per-level cache / MSHR)."""

from __future__ import annotations

from typing import List, Sequence


def cache_stats_rows(stats) -> List[dict]:
    """``SimStats.cache_stats`` as table rows (one per memory level).

    Rows carry the raw counters plus the derived ``hit_rate``; the
    ``mshr`` aggregate (when miss handling is modelled) is rendered as
    its own pseudo-level with occupancy/stall columns instead.
    """
    rows: List[dict] = []
    for name, counters in stats.cache_stats.items():
        if name == "mshr":
            rows.append({"level": "mshr",
                         "accesses": counters.get("allocs", 0),
                         "hit_rate": 0.0,
                         "occupancy_avg": counters.get("occupancy_avg", 0.0),
                         "stall_cycles": counters.get("stall_cycles", 0),
                         "peak": counters.get("peak", 0)})
            continue
        accesses = counters.get("accesses", 0)
        rows.append({"level": name, "accesses": accesses,
                     "hit_rate": (counters.get("hits", 0) / accesses
                                  if accesses else 0.0),
                     "prefetches": counters.get("prefetches", 0),
                     "writebacks": counters.get("writebacks", 0)})
    return rows


def format_cache_stats(stats) -> str:
    """One-line memory-system summary for experiment footers.

    Example: ``l1i 99.8% l1d 74.9% l2 12.3% | mshr avg 7.2 peak 8
    (336907 stall cyc)``. Empty string when no cache stats were
    recorded (pre-spec store records).
    """
    cache = stats.cache_stats
    if not cache:
        return ""
    bits = []
    for name, counters in cache.items():
        if name == "mshr":
            continue
        accesses = counters.get("accesses", 0)
        rate = counters.get("hits", 0) / accesses if accesses else 0.0
        bits.append(f"{name} {rate:.1%}")
    mshr = cache.get("mshr")
    if mshr:
        bits.append(f"| mshr avg {mshr.get('occupancy_avg', 0.0):.1f} "
                    f"peak {mshr.get('peak', 0)} "
                    f"({mshr.get('stall_cycles', 0)} stall cyc)")
    return " ".join(bits)


#: Eight-level bar glyphs for the sparkline rendering.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], max_points: int = 60) -> str:
    """Unicode sparkline of a numeric sequence (empty for no values).

    Values are normalized to the sequence's own min/max span (a flat
    sequence renders as all-low bars); at most ``max_points`` leading
    points are drawn so long trajectories stay one terminal line.
    """
    values = list(values)[:max_points]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * (len(_SPARK) - 1)))]
        for v in values)


def format_freq_trace(stats, max_entries: int = 8) -> str:
    """One-line summary of a governed run's frequency trajectory.

    Shows up to ``max_entries`` ``cycle:MHz`` transition points, a
    sparkline of the dwell-time-ordered frequency levels, and the retune
    count — compact enough for experiment footers and CLI output.
    """
    trace = stats.freq_trace
    if not trace:
        return "no governor (fixed clock)"
    shown = trace[:max_entries]
    bits = [f"{int(c)}:{mhz:.0f}" for c, mhz in shown]
    if len(trace) > len(shown):
        bits.append(f"... +{len(trace) - len(shown)} more")
    spark = sparkline([m for _c, m in trace])
    return (f"{' '.join(bits)}  [{spark}]  "
            f"({stats.dvfs_retunes} retunes)")
