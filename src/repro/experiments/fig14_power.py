"""Fig. 14 — average power of the Flywheel, normalized to the baseline.

Same sweep as Figs. 12/13. The shape: power grows with the front-end
clock (from roughly parity at FE0% to ~+15% at FE100% in the paper), but
far more slowly than performance — the paper's headline being ~54% more
performance for ~8% more power at (FE50%, BE50%).
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentContext, geomean, print_table
# Fig. 12's runs are this figure's legs too.
from repro.experiments.fig12_performance import SWEEP, legs
from repro.power import TECH_130, energy_report


def run(ctx: ExperimentContext, tech=TECH_130) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        base = energy_report(ctx.session.run(specs[bench, "base"]), tech)
        row = {"benchmark": bench}
        for label, _clock in SWEEP:
            fly = energy_report(ctx.session.run(specs[bench, label]), tech)
            row[label] = fly.power_w / base.power_w
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for label, _clock in SWEEP:
        avg[label] = geomean(r[label] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    print_table("Fig. 14: normalized power (130nm) vs clock speedups",
                rows, ["benchmark"] + [l for l, _ in SWEEP], fmt="{:>14}")
    return rows


if __name__ == "__main__":
    main()
