"""Fig. 12 — performance of the Flywheel across clock-speedup pairs.

Sweeps the front-end speedup from 0% to 100% with the trace-execution
back-end 50% faster (the Table 1 projection), reporting execution time
normalized to the fully synchronous baseline. The paper's shape: large
speedups that grow with the front-end clock, super-linear on benchmarks
where the faster front-end exposes more parallelism to the traces, and
the biggest front-end sensitivity on vortex (lowest EC residency).
"""

from __future__ import annotations

from typing import List

from repro.core.config import ClockPlan
from repro.core.sim import KIND_BASELINE, KIND_FLYWHEEL
from repro.experiments.common import (
    ExperimentContext,
    Legs,
    geomean,
    print_table,
)

#: (front-end speedup, back-end speedup) pairs, as in the paper.
SWEEP = (
    ("FE0%,BE50%", ClockPlan(fe_speedup=0.0, be_speedup=0.5)),
    ("FE25%,BE50%", ClockPlan(fe_speedup=0.25, be_speedup=0.5)),
    ("FE50%,BE50%", ClockPlan(fe_speedup=0.5, be_speedup=0.5)),
    ("FE75%,BE50%", ClockPlan(fe_speedup=0.75, be_speedup=0.5)),
    ("FE100%,BE50%", ClockPlan(fe_speedup=1.0, be_speedup=0.5)),
)


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the baseline and the Flywheel at each SWEEP pair
    (Figs. 13 and 14 evaluate power over the same runs)."""
    specs = {}
    for bench in ctx.benchmarks:
        specs[bench, "base"] = ctx.spec(KIND_BASELINE, bench)
        for label, clock in SWEEP:
            specs[bench, label] = ctx.spec(KIND_FLYWHEEL, bench, clock=clock)
    return specs


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        base = ctx.session.run(specs[bench, "base"])
        row = {"benchmark": bench}
        for label, _clock in SWEEP:
            fly = ctx.session.run(specs[bench, label])
            row[label] = base.stats.sim_time_ps / max(1, fly.stats.sim_time_ps)
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for label, _clock in SWEEP:
        avg[label] = geomean(r[label] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    print_table("Fig. 12: normalized performance vs clock speedups",
                rows, ["benchmark"] + [l for l, _ in SWEEP], fmt="{:>14}")
