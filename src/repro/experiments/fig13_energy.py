"""Fig. 13 — total energy of the Flywheel, normalized to the baseline.

Uses the same clock sweep as Fig. 12 at the 130nm node. The shape: the
Flywheel burns less total energy (~0.7x in the paper) because the whole
front-end — including the issue window — is clock-gated for the large
fraction of time spent on the Execution Cache path; benchmarks with low
EC residency (vortex) save the least.
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
            row[label] = fly.total_pj / base.total_pj
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for label, _clock in SWEEP:
        avg[label] = geomean(r[label] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    print_table("Fig. 13: normalized energy (130nm) vs clock speedups",
                rows, ["benchmark"] + [l for l, _ in SWEEP], fmt="{:>14}")
