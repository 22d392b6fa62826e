"""DVFS sweep — adaptive clock governors vs static clock plans (EDP).

Not a paper figure: this explores the axis the paper leaves open. The
machine derives both back-end clocks from one fast master clock, so
nothing stops it from *re-dividing* that master at runtime. The sweep
pits the static ``ClockPlan`` points (the paper's design space) against
the adaptive governors of :mod:`repro.dvfs` running on the same Flywheel
hardware, and scores every point on energy, delay and the energy-delay
product at the 130nm node (where the paper reports power).

The shape to expect: throttling the back end during low-IPC intervals
(mispredict drains, DRAM-bound stretches, trace-creation refills) cuts
clock-grid cycles — the dominant dynamic term — while barely stretching
wall-clock time, so a reactive governor lands below every fixed-frequency
point on EDP for phase-y workloads; uniformly compute-bound workloads
pin the ladder at nominal and tie the static plan instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.analysis.report import format_freq_trace
from repro.core.config import ClockPlan
from repro.core.sim import KIND_FLYWHEEL
from repro.dvfs import GovernorConfig
from repro.experiments.common import ExperimentContext, Legs, print_table
from repro.power import TECH_130, energy_report

#: The nominal plan every governor modulates: the paper's headline
#: configuration (front end +100%, trace-execution back end +50%).
NOMINAL = ClockPlan(fe_speedup=1.0, be_speedup=0.5)

#: Static comparison points — fixed divisor choices of the same master.
STATIC_POINTS: Tuple[Tuple[str, ClockPlan], ...] = (
    ("be+0%", ClockPlan(fe_speedup=1.0, be_speedup=0.0)),
    ("be+20%", ClockPlan(fe_speedup=1.0, be_speedup=0.2)),
    ("be+50%", NOMINAL),
)

#: Adaptive governors swept over the nominal plan.
SWEEP_GOVERNORS: Tuple[str, ...] = ("occupancy", "ipc_ladder",
                                    "energy_budget")

#: Decision interval in back-end cycles. Short enough that the scaled-down
#: runs (30k instructions) see dozens of decisions, as the paper's scaled
#: redistribution interval does for the same reason.
GOV_INTERVAL = 500

#: Fast-clock ladder spanning the static axis: on the nominal be+50%
#: plan, scale 0.667 is the be+0% execute clock and 1.0 is be+50%, with
#: finer rungs in between than the static grid samples.
GOV_STEPS = (0.667, 0.733, 0.8, 0.867, 0.933, 1.0)


def governor_points(names: Tuple[str, ...] = SWEEP_GOVERNORS,
                    ) -> List[Tuple[str, ClockPlan]]:
    """(label, plan) for each named governor on the nominal plan.

    Accepts any :data:`repro.dvfs.GOVERNOR_NAMES` entry — including
    ``static``, whose curve (hook attached, clock pinned) is the
    be+50% plan and useful as a hook-overhead control.
    """
    return [(f"gov:{name}",
             replace(NOMINAL,
                     governor=GovernorConfig(name=name,
                                             interval=GOV_INTERVAL,
                                             scale_steps=GOV_STEPS)))
            for name in names]


def sweep_points() -> List[Tuple[str, ClockPlan]]:
    """All sweep points, static first (the first is the EDP denominator)."""
    return list(STATIC_POINTS) + governor_points()


def legs(ctx: ExperimentContext) -> Legs:
    """Per benchmark: the Flywheel at every sweep point."""
    return {(bench, label): ctx.spec(KIND_FLYWHEEL, bench, clock=clock)
            for bench in ctx.benchmarks for label, clock in sweep_points()}


def evaluate(ctx: ExperimentContext, specs: Legs, bench: str,
             tech=TECH_130) -> List[Dict]:
    """Absolute time/energy/EDP for every sweep point on one benchmark
    (``specs`` are this context's :func:`legs`)."""
    points = []
    for label, clock in sweep_points():
        result = ctx.session.run(specs[bench, label])
        rep = energy_report(result, tech)
        points.append({
            "label": label,
            "adaptive": clock.governor is not None,
            "time_s": rep.time_s,
            "energy_j": rep.total_j,
            "edp": rep.total_j * rep.time_s,
            "power_w": rep.power_w,
            "ipc": result.stats.ipc,
            "retunes": result.stats.dvfs_retunes,
            "stats": result.stats,
        })
    return points


def run(ctx: ExperimentContext, tech=TECH_130) -> List[dict]:
    """Per-benchmark EDP of every point, normalized to the be+0% plan.

    Each row also carries ``best`` (the lowest-EDP point's label) and
    ``adaptive_wins`` (True when some governor beats *every* static
    point on EDP for that benchmark).
    """
    specs = legs(ctx)
    # One batch first: parallel when the session has ``jobs > 1``, and
    # a no-op on a warmed session.
    ctx.session.map(list(specs.values()))
    rows = []
    for bench in ctx.benchmarks:
        points = evaluate(ctx, specs, bench, tech)
        base_edp = points[0]["edp"]
        row = {"benchmark": bench}
        for p in points:
            row[p["label"]] = p["edp"] / base_edp if base_edp else 0.0
        best = min(points, key=lambda p: p["edp"])
        best_static = min(p["edp"] for p in points if not p["adaptive"])
        best_adaptive = min((p["edp"] for p in points if p["adaptive"]),
                            default=float("inf"))
        row["best"] = best["label"]
        row["adaptive_wins"] = best_adaptive < best_static
        rows.append(row)
    return rows


def main(ctx: ExperimentContext = None) -> List[dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    labels = [label for label, _clock in sweep_points()]
    print_table("DVFS sweep: EDP normalized to the be+0% static plan "
                "(130nm, lower is better)",
                rows, ["benchmark"] + labels + ["best"], fmt="{:>16}")
    winners = [r["benchmark"] for r in rows if r["adaptive_wins"]]
    if winners:
        print(f"\nadaptive governor beats every static plan on EDP for: "
              f"{', '.join(winners)}")
    else:
        print("\nno adaptive governor beat the static plans "
              "(workloads too uniform at this budget)")
    # Show one frequency trajectory so the mechanism is visible.
    sample_bench = winners[0] if winners else rows[0]["benchmark"]
    for p in evaluate(ctx, legs(ctx), sample_bench):
        if p["adaptive"]:
            print(f"{sample_bench} {p['label']}: "
                  f"{format_freq_trace(p['stats'])}")
    return rows


if __name__ == "__main__":
    main()
