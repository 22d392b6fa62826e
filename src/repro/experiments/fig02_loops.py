"""Fig. 2 — IPC cost of stretching the two critical pipeline loops.

Adds one stage to the front-end (Fetch/Mispredict loop) versus pipelining
the Wake-Up/Select loop of the issue window, on the baseline core. The
paper's shape: the extra front-end stage costs <3% on average, while
losing back-to-back scheduling costs ~30% on average and >40% on the
worst benchmarks.
"""

from __future__ import annotations

from typing import List

from repro.core.config import CoreConfig
from repro.core.sim import KIND_BASELINE, KIND_PIPELINED_WAKEUP
from repro.experiments.common import ExperimentContext, Legs, print_table


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the baseline, one extra front-end stage, and the
    pipelined Wake-Up/Select machine."""
    specs = {}
    for bench in ctx.benchmarks:
        specs[bench, "base"] = ctx.spec(KIND_BASELINE, bench)
        specs[bench, "fe"] = ctx.spec(
            KIND_BASELINE, bench, config=CoreConfig(extra_frontend_stages=1))
        specs[bench, "ws"] = ctx.spec(KIND_PIPELINED_WAKEUP, bench)
    return specs


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        base, fe, ws = (ctx.session.run(specs[bench, leg])
                        for leg in ("base", "fe", "ws"))
        base_ipc = base.stats.ipc
        rows.append({
            "benchmark": bench,
            "fetch_mispredict_%": 100.0 * (1.0 - fe.stats.ipc / base_ipc),
            "wakeup_select_%": 100.0 * (1.0 - ws.stats.ipc / base_ipc),
        })
    rows.append({
        "benchmark": "average",
        "fetch_mispredict_%": sum(r["fetch_mispredict_%"] for r in rows) / len(rows),
        "wakeup_select_%": sum(r["wakeup_select_%"] for r in rows) / len(rows),
    })
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    print_table("Fig. 2: IPC degradation (%) from pipelining each loop",
                rows, ["benchmark", "fetch_mispredict_%", "wakeup_select_%"],
                fmt="{:>20}")
    return rows


if __name__ == "__main__":
    main()
