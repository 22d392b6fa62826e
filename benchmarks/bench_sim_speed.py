"""Simulator-throughput microbenchmarks (not a paper figure).

Tracks instructions-per-second of the cores so regressions in the
simulator's own performance are caught. Two entry points:

* pytest-benchmark tests (``pytest benchmarks/bench_sim_speed.py``) for
  statistical tracking of the small smoke runs;
* ``python benchmarks/bench_sim_speed.py [--out BENCH_core.json]`` runs a
  larger, fixed-budget measurement per core kind and writes a
  machine-readable ``BENCH_core.json`` so successive PRs have a
  comparable cycles/sec trajectory. Program generation is excluded from
  the timed region (it is identical across kinds and code versions).

The CLI also tracks regressions perun-style: ``--against PATH`` compares
the fresh measurement to a committed report and prints a per-kind
delta table; ``--fail-on-regression PCT`` turns any slowdown beyond PCT
percent into a non-zero exit for CI (omit it for report-only mode —
cross-machine comparisons are informative, not gating). The gate covers
the paired ``@turbo`` series and the turbo speedup table too, but
report-only: turbo warnings never fail the run, and a ``--engine
legacy`` run (no turbo series at all) stays green.
``--quick`` runs one repeat on a reduced budget with no history append,
for the CI regression step and local iteration.

Every measurement also appends a schema-versioned snapshot (series,
engine speedups, code fingerprint, timestamp — injected here, at the
CLI boundary) to ``BENCH_history.jsonl``; ``python -m repro.perf
check`` runs the statistical degradation detectors over that history.

Reference points measured on the PR-1 tree (same protocol, same
container class) before the engine refactor:
``baseline/gcc ~64k cycles/s, flywheel/gcc ~69k cycles/s``.
"""

import json
import sys
import time

from repro.core.registry import get_kind, kind_names
from repro.session import Session
from repro.workloads import generate_program, get_profile

#: Fixed measurement protocol for BENCH_core.json.
BENCH_BENCHMARKS = ("gcc", "smoke")
BENCH_INSTRUCTIONS = 30_000
BENCH_WARMUP = 10_000
BENCH_REPEATS = 3

#: ``--quick`` protocol: one repeat on a reduced budget, meant for the
#: CI regression step and local iteration.  Quick numbers are noisier
#: and measured on a different budget, so they are never appended to
#: the history file and should only ever be compared against another
#: quick run.
QUICK_INSTRUCTIONS = 8_000
QUICK_WARMUP = 3_000
QUICK_MEMBOUND_INSTRUCTIONS = 4_000
QUICK_MEMBOUND_WARMUP = 2_000

#: Miss-path series: the baseline on the pointer_chase profile, once on
#: the default (fast-path) memory system and once through the general
#: MemorySpec path with a non-blocking MSHR file — so BENCH_core.json
#: tracks the cost of the memory subsystem's miss machinery over time,
#: not just the L1-hit hot loop the other series exercise.
MEMBOUND_BENCH = "pointer_chase"
MEMBOUND_INSTRUCTIONS = 8_000
MEMBOUND_WARMUP = 4_000

#: Measured through the Session facade's uncached path, so any overhead
#: the front door adds to a simulation call is part of the number. The
#: kind list comes from the registry: a new machine kind is benchmarked
#: (and perf-tracked via ``compare``'s missing-series check) the moment
#: it registers.
_SESSION = Session()


def _engine_config(kind, engine="legacy"):
    """The kind's default config with only the engine set explicitly
    (the bare series names track the legacy engine, not the default)."""
    return get_kind(kind).default_config().with_variant(engine=engine)


def _run(kind, workload, instructions, warmup, config=None):
    if config is None:
        config = _engine_config(kind)
    return _SESSION.run_workload(kind, workload,
                                 max_instructions=instructions,
                                 warmup=warmup, config=config)


def test_baseline_sim_speed(benchmark):
    result = benchmark(lambda: _run("baseline", "smoke", 4000, 1000))
    assert result.stats.committed >= 4000


def test_baseline_sim_speed_turbo(benchmark):
    config = _engine_config("baseline", "turbo")
    result = benchmark(lambda: _run("baseline", "smoke", 4000, 1000,
                                    config=config))
    assert result.stats.committed >= 4000


def test_flywheel_sim_speed(benchmark):
    result = benchmark(lambda: _run("flywheel", "smoke", 4000, 1000))
    assert result.stats.committed >= 4000


def test_pipelined_wakeup_sim_speed(benchmark):
    result = benchmark(lambda: _run("pipelined_wakeup", "smoke", 4000, 1000))
    assert result.stats.committed >= 4000


def measure(benchmarks=BENCH_BENCHMARKS,
            instructions=BENCH_INSTRUCTIONS,
            warmup=BENCH_WARMUP,
            repeats=BENCH_REPEATS,
            engines=("legacy", "turbo"),
            membound_instructions=MEMBOUND_INSTRUCTIONS,
            membound_warmup=MEMBOUND_WARMUP) -> dict:
    """Best-of-``repeats`` cycles/sec and instrs/sec per kind/benchmark.

    ``engines`` is the backend axis: the legacy engine keeps the bare
    series name (``baseline/gcc``) so the cycles/sec trajectory across
    PRs stays unbroken, the turbo engine appends ``@turbo``
    (``baseline/gcc@turbo``). When both run, the report also carries
    the ``turbo_speedup`` table (turbo / legacy cycles-per-sec per
    series). Turbo repeats share one instruction pool (by design — the
    pool is cross-run state), so best-of-repeats measures the warm
    path.

    The engine series run the *kind's* default config with only the
    engine swapped — a bare ``CoreConfig(engine=...)`` would silently
    drop kind-specific defaults (the flywheel's 512-entry register
    file, its two regread stages) and measure a different machine than
    the legacy series, with more cycles to simulate
    (tests/test_bench_speed.py pins the config path).
    """
    programs = {b: generate_program(get_profile(b)) for b in benchmarks}
    series = {}
    for kind in kind_names():
        for bench in benchmarks:
            for engine in engines:
                config = _engine_config(kind, engine)
                best = float("inf")
                result = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    result = _run(kind, programs[bench], instructions,
                                  warmup, config=config)
                    best = min(best, time.perf_counter() - t0)
                cycles = result.stats.total_be_cycles
                name = f"{kind}/{bench}"
                if engine != "legacy":
                    name += f"@{engine}"
                series[name] = {
                    "seconds": round(best, 4),
                    "cycles": cycles,
                    "cycles_per_sec": round(cycles / best),
                    "instrs_per_sec": round(result.stats.committed / best),
                }
    series.update(_measure_membound(repeats, engines,
                                    membound_instructions,
                                    membound_warmup))
    report = {
        "protocol": {
            "benchmarks": list(benchmarks),
            "engines": list(engines),
            "instructions": instructions,
            "warmup": warmup,
            "repeats": repeats,
            "timing": "best-of-repeats, program generation excluded",
        },
        "python": sys.version.split()[0],
        "series": series,
    }
    speedups = turbo_speedups(series)
    if speedups:
        report["turbo_speedup"] = speedups
    return report


def turbo_speedups(series: dict) -> dict:
    """``base series -> turbo/legacy cycles-per-sec ratio`` table."""
    suffix = "@turbo"
    speedups = {}
    for name, row in series.items():
        if name.endswith(suffix):
            base = series.get(name[: -len(suffix)])
            if base and base.get("cycles_per_sec"):
                speedups[name[: -len(suffix)]] = round(
                    row["cycles_per_sec"] / base["cycles_per_sec"], 2)
    return speedups


def _measure_membound(repeats: int, engines=("legacy",),
                      instructions=MEMBOUND_INSTRUCTIONS,
                      warmup=MEMBOUND_WARMUP) -> dict:
    """The miss-path series (see :data:`MEMBOUND_BENCH`).

    The budget is smaller than the main series — a memory-bound run
    simulates far more cycles per committed instruction — so the whole
    measurement stays in the same time envelope.
    """
    from repro.core.config import CoreConfig
    from repro.mem import MemorySpec

    program = generate_program(get_profile(MEMBOUND_BENCH))
    points = (("membound", {}),
              ("membound-mshr4", {"mem": MemorySpec(mshrs=4)}))
    series = {}
    for label, kw in points:
        for engine in engines:
            config = CoreConfig(engine=engine, **kw)
            best = float("inf")
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = _run("baseline", program, instructions,
                              warmup, config=config)
                best = min(best, time.perf_counter() - t0)
            cycles = result.stats.total_be_cycles
            name = f"{label}/{MEMBOUND_BENCH}"
            if engine != "legacy":
                name += f"@{engine}"
            series[name] = {
                "seconds": round(best, 4),
                "cycles": cycles,
                "cycles_per_sec": round(cycles / best),
                "instrs_per_sec": round(result.stats.committed / best),
            }
    return series


def compare_speedups(fresh: dict, committed: dict) -> list:
    """Delta rows of the turbo speedup table (fresh vs committed).

    Same shape as :func:`compare` rows, but over the turbo/legacy
    ratios: a quietly shrinking speedup is visible even when both raw
    series move together. Series present on one side only carry a None
    delta.
    """
    fresh_table = fresh.get("turbo_speedup", {})
    committed_table = committed.get("turbo_speedup", {})
    rows = []
    for name in sorted(set(fresh_table) | set(committed_table)):
        new = fresh_table.get(name)
        old = committed_table.get(name)
        delta = ((new - old) / old * 100.0) if new and old else None
        rows.append({"series": name, "old": old, "new": new,
                     "delta_pct": delta})
    return rows


def compare(fresh: dict, committed: dict) -> list:
    """Per-series delta rows between a fresh and a committed report.

    Positive ``delta_pct`` is an improvement (more cycles/sec); series
    present on only one side are listed with a None delta rather than
    dropped, so a renamed kind cannot silently leave perf tracking.
    """
    fresh_series = fresh.get("series", {})
    committed_series = committed.get("series", {})
    rows = []
    for name in sorted(set(fresh_series) | set(committed_series)):
        new = fresh_series.get(name, {}).get("cycles_per_sec")
        old = committed_series.get(name, {}).get("cycles_per_sec")
        delta = ((new - old) / old * 100.0) if new and old else None
        rows.append({"series": name, "old": old, "new": new,
                     "delta_pct": delta})
    return rows


def print_comparison(rows: list) -> None:
    print(f"\n{'series':28s} {'committed':>12s} {'fresh':>12s} "
          f"{'delta':>8s}")
    for row in rows:
        old = f"{row['old']:,}" if row["old"] else "-"
        new = f"{row['new']:,}" if row["new"] else "-"
        delta = (f"{row['delta_pct']:+7.1f}%" if row["delta_pct"] is not None
                 else "      -")
        print(f"{row['series']:28s} {old:>12s} {new:>12s} {delta:>8s}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure per-kind simulator throughput and write a "
                    "machine-readable report.")
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output path (default: ./BENCH_core.json)")
    parser.add_argument("--engine",
                        choices=("legacy", "turbo", "all"),
                        default="all",
                        help="execution backend(s) to measure; 'all' "
                             "(default) emits paired series "
                             "(kind/bench and kind/bench@turbo) plus "
                             "the turbo speedup table")
    parser.add_argument("--repeats", type=int, default=BENCH_REPEATS)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat on a reduced instruction "
                             "budget, history append skipped — for the "
                             "CI regression step and local iteration "
                             "(only comparable against another --quick "
                             "report)")
    parser.add_argument("--against", default=None, metavar="PATH",
                        help="committed report to diff the fresh "
                             "measurement against (e.g. BENCH_core.json)")
    parser.add_argument("--fail-on-regression", type=float, default=None,
                        metavar="PCT",
                        help="exit non-zero if any series is more than "
                             "PCT percent slower than --against "
                             "(default: report-only)")
    parser.add_argument("--profile", nargs="?", const="BENCH_profile.json",
                        default=None, metavar="PATH",
                        help="additionally self-profile each kind on the "
                             "first benchmark (wall time per engine phase) "
                             "and write the reports to PATH "
                             "(default: ./BENCH_profile.json)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        metavar="PATH",
                        help="profile history to append this measurement "
                             "to (default: ./BENCH_history.jsonl)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the history append")
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None and not args.against:
        parser.error("--fail-on-regression requires --against")

    # Read the committed report BEFORE measuring: --out and --against may
    # name the same file (refresh-and-diff in one invocation).
    committed = None
    if args.against:
        try:
            with open(args.against, encoding="utf-8") as fh:
                committed = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.against}: {exc}", file=sys.stderr)
            if args.fail_on_regression is not None:
                return 1

    if args.engine == "all":
        engines = ("legacy", "turbo")
    else:
        engines = (args.engine,)
    if args.quick:
        report = measure(repeats=1, engines=engines,
                         instructions=QUICK_INSTRUCTIONS,
                         warmup=QUICK_WARMUP,
                         membound_instructions=QUICK_MEMBOUND_INSTRUCTIONS,
                         membound_warmup=QUICK_MEMBOUND_WARMUP)
        report["protocol"]["quick"] = True
    else:
        report = measure(repeats=args.repeats, engines=engines)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, row in sorted(report["series"].items()):
        print(f"{name:28s} {row['cycles_per_sec']:>9,} cycles/s "
              f"{row['instrs_per_sec']:>9,} instrs/s")
    for name, ratio in sorted(report.get("turbo_speedup", {}).items()):
        print(f"{name:28s} turbo speedup {ratio:.2f}x")
    print(f"wrote {args.out}")

    if not args.no_history and not args.quick:
        from repro.perf import append_snapshot, make_snapshot

        # The timestamp is injected here, at the CLI boundary — the
        # perf library itself never reads the wall clock.
        snapshot = make_snapshot(report, timestamp=time.time())
        append_snapshot(args.history, snapshot)
        print(f"appended snapshot (code={snapshot['code']}) "
              f"to {args.history}")

    if args.profile is not None:
        from repro.obs.profiler import format_profile, profile_machine

        profiles = {}
        for kind in kind_names():
            prof = profile_machine(kind, BENCH_BENCHMARKS[0],
                                   config=_engine_config(kind),
                                   instructions=BENCH_INSTRUCTIONS,
                                   warmup=BENCH_WARMUP)
            profiles[kind] = prof
            print(format_profile(prof))
        with open(args.profile, "w", encoding="utf-8") as fh:
            json.dump(profiles, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.profile}")

    if committed is not None:
        rows = compare(report, committed)
        print_comparison(rows)
        speedup_rows = compare_speedups(report, committed)
        if speedup_rows:
            print(f"\n{'turbo speedup':28s} {'committed':>12s} "
                  f"{'fresh':>12s} {'delta':>8s}")
        for row in speedup_rows:
            old = f"{row['old']:.2f}x" if row["old"] else "-"
            new = f"{row['new']:.2f}x" if row["new"] else "-"
            delta = (f"{row['delta_pct']:+7.1f}%"
                     if row["delta_pct"] is not None else "      -")
            print(f"{row['series']:28s} {old:>12s} {new:>12s} "
                  f"{delta:>8s}")
        if args.fail_on_regression is not None:
            # The gate *fails* on the legacy series only: their
            # trajectory is the simulator-cost contract. The paired
            # ``@turbo`` series and the turbo_speedup table are covered
            # too, but report-only — turbo warnings never fail the run,
            # so a ``--engine legacy`` run (no ``@turbo`` series at all)
            # stays green and cross-machine turbo ratios stay
            # informative rather than gating.
            def is_turbo(name):
                return "@" in name
            bad = [r for r in rows if r["delta_pct"] is not None
                   and not is_turbo(r["series"])
                   and r["delta_pct"] < -args.fail_on_regression]
            # A committed legacy series with no fresh measurement is
            # lost perf tracking (renamed/dropped kind), not a pass.
            lost = [r for r in rows if r["old"] and not r["new"]
                    and not is_turbo(r["series"])]
            turbo_rows = ([r for r in rows if is_turbo(r["series"])]
                          + speedup_rows)
            warn = [r for r in turbo_rows
                    if (r["delta_pct"] is not None
                        and r["delta_pct"] < -args.fail_on_regression)
                    or (r["old"] and not r["new"])]
            for row in warn:
                what = ("missing from the fresh report"
                        if row["old"] and not row["new"]
                        else f"regressed {row['delta_pct']:+.1f}%")
                print(f"warning (report-only): turbo series "
                      f"{row['series']} {what}", file=sys.stderr)
            if bad or lost:
                if bad:
                    print(f"FAIL: regression beyond "
                          f"{args.fail_on_regression:g}% in: "
                          + ", ".join(r["series"] for r in bad),
                          file=sys.stderr)
                if lost:
                    print("FAIL: committed series missing from the "
                          "fresh report: "
                          + ", ".join(r["series"] for r in lost),
                          file=sys.stderr)
                return 1
            print(f"ok: no gating series regressed beyond "
                  f"{args.fail_on_regression:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
