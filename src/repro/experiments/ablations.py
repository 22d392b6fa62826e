"""Ablation studies for the Flywheel's individual design choices.

The paper motivates several mechanisms qualitatively; these experiments
quantify each one by knocking it out:

* **SRT** (Section 3.5) — without the Speculative Remapping Table every
  trace change waits for full retirement before the FRT checkpoint.
* **Delay network vs duplicated tag match** (Section 3.2) — the cheap
  alternative to duplicated match lines loses back-to-back scheduling for
  instructions entering the dual-clock window.
* **Register redistribution** (Section 3.5, [12]) — without it, hot
  architected registers are stuck with default-sized pools.
* **EC capacity** (Table 2 uses 128K) — halving/quartering the Execution
  Cache shows the trace-locality pressure of big-footprint workloads.
* **EC block size** (Section 3.3 settles on 8-instruction blocks) —
  smaller blocks waste bandwidth on end-of-block fragmentation; larger
  ones waste storage.
"""

from __future__ import annotations

from typing import List

from repro.core.config import ClockPlan, FlywheelConfig
from repro.core.sim import KIND_BASELINE, KIND_FLYWHEEL
from repro.experiments.common import (
    ExperimentContext,
    Legs,
    geomean,
    print_table,
)

#: Clock plan used for all ablations (the paper's headline point).
_CLOCK = ClockPlan(fe_speedup=0.5, be_speedup=0.5)

ABLATIONS = (
    ("full", FlywheelConfig()),
    ("no_srt", FlywheelConfig(use_srt=False)),
    ("delay_network", FlywheelConfig(delay_network=True)),
    ("no_redistribution", FlywheelConfig(redistribution_enabled=False)),
    ("ec_64k", FlywheelConfig(ec_kb=64)),
    ("ec_4k", FlywheelConfig(ec_kb=4)),
    ("block_4", FlywheelConfig(ec_block_slots=4)),
    ("block_16", FlywheelConfig(ec_block_slots=16)),
)


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the baseline and each ablated Flywheel."""
    specs = {}
    for bench in ctx.benchmarks:
        specs[bench, "base"] = ctx.spec(KIND_BASELINE, bench)
        for label, fly in ABLATIONS:
            specs[bench, label] = ctx.spec(KIND_FLYWHEEL, bench,
                                           clock=_CLOCK, fly=fly)
    return specs


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        base = ctx.session.run(specs[bench, "base"])
        row = {"benchmark": bench}
        for label, _fly in ABLATIONS:
            res = ctx.session.run(specs[bench, label])
            row[label] = base.stats.sim_time_ps / max(1, res.stats.sim_time_ps)
        rows.append(row)
    avg = {"benchmark": "geomean"}
    for label, _fly in ABLATIONS:
        avg[label] = geomean(r[label] for r in rows)
    rows.append(avg)
    return rows


def main(ctx: ExperimentContext) -> None:
    rows = run(ctx)
    print_table(
        "Ablations: normalized performance at (FE50%, BE50%)",
        rows, ["benchmark"] + [l for l, _ in ABLATIONS], fmt="{:>14}")
