"""Fig. 11 — Flywheel at the baseline clock speed.

Two configurations, both normalized to the fully synchronous baseline's
execution time (higher = faster):

* **Register Allocation** — the dual-clock issue window plus the new
  pool-based register allocation, *without* the Execution Cache. The
  paper's shape: the ~3-stage-longer pipeline and the limited rename
  capacity cost >10% on gzip/vpr/parser and little elsewhere.
* **Flywheel** — the full design (EC enabled) still at equal clocks; the
  shorter replay path recovers the loss (paper: +5% average).
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

_EQUAL = ClockPlan(fe_speedup=0.0, be_speedup=0.0)


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the baseline, and the Flywheel at the baseline
    clock without and with the Execution Cache."""
    specs = {}
    for bench in ctx.benchmarks:
        specs[bench, "base"] = ctx.spec(KIND_BASELINE, bench)
        specs[bench, "register_allocation"] = ctx.spec(
            KIND_FLYWHEEL, bench, clock=_EQUAL,
            fly=FlywheelConfig(ec_enabled=False))
        specs[bench, "flywheel"] = ctx.spec(KIND_FLYWHEEL, bench,
                                            clock=_EQUAL)
    return specs


def run(ctx: ExperimentContext) -> List[dict]:
    specs = legs(ctx)
    rows = []
    for bench in ctx.benchmarks:
        base, ra, fw = (ctx.session.run(specs[bench, leg]) for leg in
                        ("base", "register_allocation", "flywheel"))
        rows.append({
            "benchmark": bench,
            "register_allocation": base.stats.sim_time_ps / max(1, ra.stats.sim_time_ps),
            "flywheel": base.stats.sim_time_ps / max(1, fw.stats.sim_time_ps),
        })
    rows.append({
        "benchmark": "geomean",
        "register_allocation": geomean(r["register_allocation"] for r in rows),
        "flywheel": geomean(r["flywheel"] for r in rows),
    })
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    print_table("Fig. 11: normalized performance at the baseline clock",
                rows, ["benchmark", "register_allocation", "flywheel"],
                fmt="{:>22}")
    from repro.analysis import bar_chart
    print()
    print(bar_chart({r["benchmark"]: r["flywheel"] for r in rows},
                    baseline=1.0, title="Flywheel vs baseline (| = 1.0)"))
    return rows


if __name__ == "__main__":
    main()
