"""Fig. 14 — average power of the Flywheel, normalized to the baseline.

Same sweep as Figs. 12/13. The shape: power grows with the front-end
clock (from roughly parity at FE0% to ~+15% at FE100% in the paper), but
far more slowly than performance — the paper's headline being ~54% more
performance for ~8% more power at (FE50%, BE50%).
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
        ctx, lambda base, fly: (energy_report(fly, TECH_130).power_w
                                / energy_report(base, TECH_130).power_w))


def main(ctx: ExperimentContext) -> None:
    print_table("Fig. 14: normalized power (130nm) vs clock speedups",
                run(ctx), fig12_performance.COLUMNS, fmt="{:>14}")
