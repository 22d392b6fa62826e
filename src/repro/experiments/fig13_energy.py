"""Fig. 13 — total energy of the Flywheel, normalized to the baseline.

Uses the same clock sweep as Fig. 12 at the 130nm node. The shape: the
Flywheel burns less total energy (~0.7x in the paper) because the whole
front-end — including the issue window — is clock-gated for the large
fraction of time spent on the Execution Cache path; benchmarks with low
EC residency (vortex) save the least.
"""

from __future__ import annotations

from typing import List

from repro.experiments import fig12_performance
from repro.experiments.common import ExperimentContext, print_table
from repro.power import TECH_130, energy_report

# Fig. 12's runs are this figure's legs too.
legs = fig12_performance.legs


def run(ctx: ExperimentContext) -> List[dict]:
    return fig12_performance.run(
        ctx, lambda base, fly: (energy_report(fly, TECH_130).total_pj
                                / energy_report(base, TECH_130).total_pj))


def main(ctx: ExperimentContext) -> None:
    print_table("Fig. 13: normalized energy (130nm) vs clock speedups",
                run(ctx), fig12_performance.COLUMNS, fmt="{:>14}")
