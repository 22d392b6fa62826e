"""Fig. 15 — energy savings across technology nodes (130/90/60nm).

Runs the (FE100%, BE50%) Flywheel and the baseline at each node's own
clock (Table 1's issue-window frequency) and evaluates the node's energy
model. The shape: as leakage grows from 130nm to 60nm, the dynamic power
the Flywheel saves becomes a smaller share of the total, so the relative
energy creeps up (paper: ~0.70 at 130nm to ~0.80 at 60nm).
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
from repro.power import TECH_130, TECH_60, TECH_90, energy_report
from repro.timing.frequency import module_frequencies_mhz

NODES = ((TECH_130, 0.13), (TECH_90, 0.09), (TECH_60, 0.06))


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark and node: the baseline and the (FE100%, BE50%)
    Flywheel at that node's issue-window clock."""
    specs = {}
    for bench in ctx.benchmarks:
        for tech, node in NODES:
            base_mhz = module_frequencies_mhz(node)["iw_single_cycle"]
            specs[bench, tech.name, "base"] = ctx.spec(
                KIND_BASELINE, bench, clock=ClockPlan(base_mhz=base_mhz))
            specs[bench, tech.name, "fly"] = ctx.spec(
                KIND_FLYWHEEL, bench,
                clock=ClockPlan(base_mhz=base_mhz, fe_speedup=1.0,
                                be_speedup=0.5))
    return specs


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        row = {"benchmark": bench}
        for tech, _node in NODES:
            base = energy_report(
                ctx.session.run(specs[bench, tech.name, "base"]), tech)
            fly = energy_report(
                ctx.session.run(specs[bench, tech.name, "fly"]), tech)
            row[tech.name] = fly.total_pj / base.total_pj
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for tech, _node in NODES:
        avg[tech.name] = geomean(r[tech.name] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    print_table(
        "Fig. 15: normalized energy, (FE100%, BE50%) per technology node",
        rows, ["benchmark", "130nm", "90nm", "60nm"], fmt="{:>12}")
