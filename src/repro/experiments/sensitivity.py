"""Issue-window size sensitivity (extension).

The paper's whole premise is a trade-off: a *large* issue window exposes
more ILP but dictates a slow clock; a *small* one clocks fast but finds
less parallelism. This experiment quantifies both sides with the
library's models:

* baseline IPC as the window shrinks 128 -> 64 -> 32 entries, and
* the clock each window size would permit (from the Fig. 1 delay model),

then combines them into delivered performance (IPC x frequency), showing
why neither extreme wins — the gap the Flywheel is designed to escape.
"""

from __future__ import annotations

from typing import List

from repro.core.config import CoreConfig
from repro.core.sim import KIND_BASELINE
from repro.experiments.common import (
    ExperimentContext,
    Legs,
    geomean,
    print_table,
)
from repro.timing.structures import iw_latency_ps

#: (entries, issue width) points; 128/6 is the paper's baseline.
IW_POINTS = ((32, 4), (64, 4), (128, 6), (256, 8))
_NODE_UM = 0.13


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the baseline at each (entries, width) point."""
    return {(bench, entries): ctx.spec(
                KIND_BASELINE, bench,
                config=CoreConfig(iw_entries=entries, issue_width=width))
            for bench in ctx.benchmarks for entries, width in IW_POINTS}


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    freqs = {pt: 1e6 / iw_latency_ps(_NODE_UM, *pt) for pt in IW_POINTS}
    base_freq = freqs[(128, 6)]
    for bench in ctx.benchmarks:
        row = {"benchmark": bench}
        for entries, width in IW_POINTS:
            ipc = ctx.session.run(specs[bench, entries]).stats.ipc
            row[f"ipc_{entries}"] = ipc
            # Delivered performance if this window set the clock.
            row[f"perf_{entries}"] = ipc * freqs[(entries, width)] / base_freq
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for entries, _w in IW_POINTS:
        avg[f"ipc_{entries}"] = geomean(r[f"ipc_{entries}"] for r in rows)
        avg[f"perf_{entries}"] = geomean(r[f"perf_{entries}"] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    cols = (["benchmark"]
            + [f"ipc_{e}" for e, _ in IW_POINTS]
            + [f"perf_{e}" for e, _ in IW_POINTS])
    print_table(
        f"IW sensitivity at {_NODE_UM}um: IPC and clock-adjusted "
        "performance (128-entry clock = 1.0)",
        rows, cols, fmt="{:>11}")
    return rows


if __name__ == "__main__":
    main()
