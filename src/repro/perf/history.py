"""Versioned profile history over ``bench_sim_speed`` reports.

``BENCH_core.json`` is a point-in-time measurement; the history file
(``BENCH_history.jsonl`` by convention) is its trajectory: one JSON line
per measurement, carrying the per-series throughput numbers, the turbo
speedup table, the code fingerprint of the sources measured, and a
timestamp *injected by the caller*.  Nothing in this module reads the
wall clock or the filesystem implicitly — snapshots are plain dicts,
appends are explicit — so the whole layer works from sandboxed callers
(CI scripts, workflow engines) that supply their own notion of "now".

Damaged or foreign lines are skipped on load, the same stance the
campaign store takes toward unreadable records: a history survives a
truncated append or a hand-edited line without poisoning the detectors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Bumped when the snapshot layout changes incompatibly.  Loaders skip
#: lines from other schema versions rather than mis-reading them.
HISTORY_SCHEMA = 1

#: Conventional history path, next to BENCH_core.json at the repo root.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Series whose trajectory the detectors track, in snapshot order.
_SERIES_FIELDS = ("cycles_per_sec", "instrs_per_sec", "seconds", "cycles")


def make_snapshot(report: Dict[str, object], *, timestamp: float,
                  code: Optional[str] = None) -> Dict[str, object]:
    """One history snapshot from a ``bench_sim_speed`` report dict.

    ``timestamp`` is required and caller-supplied (seconds since the
    epoch by convention, but the detectors only use it for ordering and
    display).  ``code`` defaults to the current code fingerprint of the
    installed sources; pass it explicitly when snapshotting a report
    produced by a different tree.
    """
    if code is None:
        from repro.campaign.spec import code_fingerprint

        code = code_fingerprint()
    series: Dict[str, Dict[str, object]] = {}
    for name, row in (report.get("series") or {}).items():
        series[name] = {k: row[k] for k in _SERIES_FIELDS if k in row}
    return {
        "schema": HISTORY_SCHEMA,
        "timestamp": float(timestamp),
        "code": str(code),
        "python": report.get("python", ""),
        "series": series,
        "turbo_speedup": dict(report.get("turbo_speedup") or {}),
    }


def append_snapshot(path: Union[str, Path],
                    snapshot: Dict[str, object]) -> None:
    """Append one snapshot as a JSON line (creates the file if needed)."""
    if snapshot.get("schema") != HISTORY_SCHEMA:
        raise ValueError(
            f"refusing to append snapshot with schema "
            f"{snapshot.get('schema')!r} (expected {HISTORY_SCHEMA})")
    line = json.dumps(snapshot, sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def load_history(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Snapshots from a history file, oldest first.

    Lines that are not valid JSON objects of the current schema are
    skipped (torn appends, foreign schema versions).  Snapshots are
    returned in timestamp order regardless of file order, so histories
    merged from several runners still read chronologically.
    """
    snapshots: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return snapshots
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            snap = json.loads(line)
        except ValueError:
            continue
        if (not isinstance(snap, dict)
                or snap.get("schema") != HISTORY_SCHEMA
                or not isinstance(snap.get("series"), dict)):
            continue
        snapshots.append(snap)
    snapshots.sort(key=lambda s: s.get("timestamp", 0.0))
    return snapshots


#: Prefix naming the synthetic series that tracks a turbo-speedup ratio
#: (``turbo_speedup:baseline/gcc``) alongside the real throughput series.
SPEEDUP_PREFIX = "turbo_speedup:"

#: Every per-engine speedup table the detectors track; each one gets a
#: matching family of synthetic ``<table>:<base>`` series.  Any other
#: table a snapshot carries (older snapshots hold one for a since-deleted
#: engine tier) is ignored.
SPEEDUP_TABLES = ("turbo_speedup",)


def series_names(history: Sequence[Dict[str, object]],
                 speedups: bool = True) -> List[str]:
    """Every series name appearing anywhere in the history, sorted.

    With ``speedups`` (the default) the engine-speedup ratios appear as
    synthetic ``turbo_speedup:<base>`` series, so the detectors cover
    the engine/legacy ratio trajectory the same way they cover raw
    throughput.
    """
    names = set()
    for snap in history:
        names.update(snap.get("series", {}))
        if speedups:
            for table in SPEEDUP_TABLES:
                names.update(f"{table}:{base}"
                             for base in snap.get(table, {}))
    return sorted(names)


def series_values(history: Sequence[Dict[str, object]], name: str,
                  field: str = "cycles_per_sec") -> List[Tuple[float, float]]:
    """``(timestamp, value)`` trajectory of one series, oldest first.

    Snapshots that do not carry the series (older code, a legacy-only
    measurement) are simply absent from the trajectory rather than
    contributing gaps.
    """
    points: List[Tuple[float, float]] = []
    table = None
    for t in SPEEDUP_TABLES:
        if name.startswith(t + ":"):
            table = t
            break
    for snap in history:
        if table is not None:
            value = snap.get(table, {}).get(name[len(table) + 1:])
        else:
            value = snap.get("series", {}).get(name, {}).get(field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            points.append((float(snap.get("timestamp", 0.0)), float(value)))
    return points
