"""Metric snapshots: one dotted namespace over every layer's counters.

The engine, cores, memory hierarchy and DVFS controllers each keep their
hot counters as plain attributes (``stats.committed``, ``rob.writes``,
``mshr`` aggregates) because attribute increments are what the tick loop
can afford. :func:`core_metrics` reads them once, at the end of a run,
into one flat, dotted-name snapshot, so the loop pays nothing for it.

Snapshots are deterministic for a deterministic simulation, which is
what lets them ride on :class:`SimStats` through the golden-stats gate
and the content-addressed store.
"""

from __future__ import annotations

from typing import Dict, List


def _flatten(prefix: str, value, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)
    else:
        out[prefix] = value


def core_metrics(core) -> Dict[str, object]:
    """One flat ``name -> value`` snapshot of a core's counters.

    Reads the attributes every kind has (``stats``, ``be``, ``iw``,
    ``hierarchy``, and ``trace`` when the recorder is armed). Keys are
    sorted so serialized snapshots are byte-stable.
    """
    stats, be, iw = core.stats, core.be, core.iw
    tree = {
        "engine": {
            "committed": stats.committed,
            "fetched": stats.fetched,
            "issued": stats.issued,
            "cycles": stats.total_be_cycles,
            "branches": stats.branches,
            "mispredicts": stats.mispredicts,
            "traces_built": stats.traces_built,
            "instrs_from_ec": stats.instrs_from_ec,
            "rename_pool_stalls": stats.rename_pool_stalls,
            "rob": {"occupancy": len(be.rob), "capacity": be.rob.capacity,
                    "writes": be.rob.writes},
            "lsq": {"occupancy": len(be.lsq), "capacity": be.lsq.capacity,
                    "inserts": be.lsq.inserts},
            "iw": {"occupancy": len(iw), "capacity": iw.capacity,
                   "writes": iw.writes, "broadcasts": iw.broadcasts},
        },
        "power": dict(stats.events),
        "mem": core.hierarchy.stats_dict(),
        "dvfs": {"retunes": stats.dvfs_retunes,
                 "freq_points": len(stats.freq_trace)},
    }
    trace = core.trace
    if trace is not None:
        tree["trace"] = {"emitted": trace.emitted, "dropped": trace.dropped,
                         "retained": len(trace.events)}
    out: Dict[str, object] = {}
    _flatten("", tree, out)
    return dict(sorted(out.items()))


def metrics_delta(a: Dict[str, object], b: Dict[str, object],
                  limit: int = 0) -> List[Dict[str, object]]:
    """Changed numeric metrics between two flat snapshots, biggest first.

    ``a`` and ``b`` are :func:`core_metrics`-shaped dicts
    (e.g. ``SimStats.metrics`` of two stored runs).  Rows carry both
    values, the absolute delta and the relative change (``None`` when
    the metric is absent on one side — a code-version difference — or
    divides by zero).  Unchanged metrics and non-numeric values
    (histogram dicts, labels) are dropped; rows sort by relative change
    magnitude, metrics without one last.  ``limit`` truncates (0 = all).
    """
    def numeric(value):
        return (value if isinstance(value, (int, float))
                and not isinstance(value, bool) else None)

    rows: List[Dict[str, object]] = []
    for name in sorted(set(a) | set(b)):
        va, vb = numeric(a.get(name)), numeric(b.get(name))
        if va is None and vb is None:
            continue
        if va == vb:
            continue
        delta = vb - va if va is not None and vb is not None else None
        rel = (delta / va if delta is not None and va else None)
        rows.append({"metric": name, "a": va, "b": vb,
                     "delta": delta, "rel": rel})
    rows.sort(key=lambda r: (r["rel"] is None,
                             -abs(r["rel"]) if r["rel"] is not None else 0.0,
                             r["metric"]))
    return rows[:limit] if limit else rows
