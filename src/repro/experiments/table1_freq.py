"""Table 1 — achievable module clock frequencies per technology node."""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentContext, print_table
from repro.timing.frequency import (
    PAPER_TABLE1,
    TABLE1_NODES,
    module_frequencies_mhz,
)


def run(ctx: ExperimentContext = None) -> List[dict]:
    per_node = {n: module_frequencies_mhz(n) for n in TABLE1_NODES}
    rows = []
    for module in PAPER_TABLE1:
        row = {"module": module}
        for node in TABLE1_NODES:
            row[f"{node}um"] = per_node[node][module]
            row[f"paper@{node}"] = float(PAPER_TABLE1[module][node])
        rows.append(row)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    cols = ["module"]
    for node in TABLE1_NODES:
        cols += [f"{node}um", f"paper@{node}"]
    print_table("Table 1: module clock frequencies (MHz), model vs paper",
                rows, cols, fmt="{:>12}")
