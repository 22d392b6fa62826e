"""Governor-vs-static energy/performance curves (the DVFS benchmark).

Runs one benchmark through the Flywheel under every static clock plan of
the DVFS sweep and under each requested adaptive governor, then prints
the energy/performance frontier: wall-clock time, total energy, average
power and the energy-delay product per point, normalized against the
slowest static plan. The same sweep constants as
``repro.experiments.dvfs_sweep`` are used so the CLI and the experiment
cannot drift.

Usage::

    python benchmarks/bench_dvfs.py --benchmark gcc
    python benchmarks/bench_dvfs.py --benchmark vortex \
        --governors occupancy,ipc_ladder --instructions 2000 --warmup 500
    python benchmarks/bench_dvfs.py --json dvfs_curve.json

Exits 0 as long as the runs complete — the curves are data, not a gate;
CI uses it as the DVFS smoke (2 governors x 1 workload).
"""

import json
import sys
import time

from repro.analysis.report import format_freq_trace
from repro.session import Session
from repro.dvfs import GOVERNOR_NAMES
from repro.experiments.dvfs_sweep import (
    GOV_INTERVAL,
    STATIC_POINTS,
    SWEEP_GOVERNORS,
    governor_points,
)
from repro.power import TECH_130, energy_report
from repro.workloads import generate_program, get_profile


def sweep(benchmark: str, governors, instructions: int, warmup: int,
          seed=None, tech=TECH_130) -> list:
    """Evaluate every static point and requested governor on one bench."""
    program = generate_program(get_profile(benchmark), seed=seed)
    points = list(STATIC_POINTS) + governor_points(tuple(governors))
    session = Session()
    rows = []
    for label, clock in points:
        t0 = time.perf_counter()
        result = session.run_workload("flywheel", program, clock=clock,
                                      max_instructions=instructions,
                                      warmup=warmup)
        host_s = time.perf_counter() - t0
        rep = energy_report(result, tech)
        stats = result.stats
        rows.append({
            "label": label,
            "adaptive": clock.governor is not None,
            "cycles": stats.total_be_cycles,
            "ipc": stats.ipc,
            "time_ms": rep.time_s * 1e3,
            "energy_uj": rep.total_j * 1e6,
            "power_w": rep.power_w,
            "edp": rep.total_j * rep.time_s,
            "retunes": stats.dvfs_retunes,
            "freq_trace": stats.freq_trace,
            "host_seconds": round(host_s, 3),
        })
    base = rows[0]["edp"]
    for row in rows:
        row["edp_norm"] = row["edp"] / base if base else 0.0
    return rows


def print_curve(benchmark: str, rows: list) -> None:
    best = min(rows, key=lambda r: r["edp"])
    print(f"\n== DVFS curve: flywheel/{benchmark} (130nm) ==")
    print(f"{'point':>20s} {'cycles':>9s} {'ipc':>6s} {'time_ms':>9s} "
          f"{'energy_uJ':>10s} {'power_W':>8s} {'EDP_norm':>9s} "
          f"{'retunes':>8s}")
    for row in rows:
        mark = " *" if row is best else ""
        print(f"{row['label']:>20s} {row['cycles']:>9,} "
              f"{row['ipc']:>6.2f} {row['time_ms']:>9.4f} "
              f"{row['energy_uj']:>10.2f} {row['power_w']:>8.2f} "
              f"{row['edp_norm']:>9.3f} {row['retunes']:>8d}{mark}")
    print(f"best EDP: {best['label']}"
          + (" (adaptive)" if best["adaptive"] else " (static)"))
    for row in rows:
        if row["adaptive"] and row["retunes"]:
            stub = type("S", (), {"freq_trace": row["freq_trace"],
                                  "dvfs_retunes": row["retunes"]})
            print(f"{row['label']}: {format_freq_trace(stub)}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Governor-vs-static energy/performance curves.")
    parser.add_argument("--benchmark", default="gcc")
    parser.add_argument("--governors",
                        default=",".join(SWEEP_GOVERNORS),
                        metavar="A,B,...",
                        help=f"governors to evaluate (known: "
                             f"{', '.join(n for n in GOVERNOR_NAMES)})")
    # Budget defaults match repro.experiments.common so the curves agree
    # with what `python -m repro.campaign run --experiments dvfs` prints.
    parser.add_argument("--instructions", type=int, default=30_000)
    parser.add_argument("--warmup", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the rows as JSON")
    args = parser.parse_args(argv)

    governors = [g.strip() for g in args.governors.split(",") if g.strip()]
    unknown = [g for g in governors if g not in GOVERNOR_NAMES]
    if unknown:
        parser.error(f"unknown governor(s): {', '.join(unknown)}")

    rows = sweep(args.benchmark, governors, args.instructions, args.warmup,
                 seed=args.seed)
    print_curve(args.benchmark, rows)
    if args.json:
        payload = {"benchmark": args.benchmark,
                   "interval": GOV_INTERVAL,
                   "instructions": args.instructions,
                   "warmup": args.warmup,
                   "rows": rows}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
