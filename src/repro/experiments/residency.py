"""Section 5 statistic — time spent on the alternative (EC) path.

The paper reports the Flywheel fetching from the Execution Cache 88% of
the time on average, above 90% on most benchmarks, and below 60% on
vortex (the huge-code outlier).
"""

from __future__ import annotations

from typing import List

from repro.core.config import ClockPlan
from repro.core.sim import KIND_FLYWHEEL
from repro.experiments.common import ExperimentContext, Legs, print_table

_EQUAL = ClockPlan(fe_speedup=0.0, be_speedup=0.0)


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the Flywheel at the baseline clock."""
    return {bench: ctx.spec(KIND_FLYWHEEL, bench, clock=_EQUAL)
            for bench in ctx.benchmarks}


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        res = ctx.session.run(specs[bench])
        stats = res.stats
        rows.append({
            "benchmark": bench,
            "ec_residency_%": 100.0 * stats.ec_residency,
            "traces_built": stats.traces_built,
            "trace_hits": stats.trace_hits,
            "mispredict_%": 100.0 * stats.mispredict_rate,
        })
    avg = sum(r["ec_residency_%"] for r in rows) / len(rows)
    rows.append({"benchmark": "average", "ec_residency_%": avg,
                 "traces_built": "", "trace_hits": "", "mispredict_%": ""})
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    print_table("EC-path residency (Section 5; paper avg 88%, vortex <60%)",
                rows, ["benchmark", "ec_residency_%", "traces_built",
                       "trace_hits", "mispredict_%"], fmt="{:>16}")
    return rows


if __name__ == "__main__":
    main()
