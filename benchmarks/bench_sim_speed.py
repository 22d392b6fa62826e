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

Every measurement appends a schema-versioned snapshot (series, engine
speedups, code fingerprint, timestamp — injected here, at the CLI
boundary) to ``BENCH_history.jsonl``. ``python -m repro.perf check``
is the one perf gate: it runs the statistical degradation detectors
over that history, flags a series or speedup ratio that vanished from
the latest snapshot, and exits non-zero with ``--fail-on-degraded``.
``--quick`` runs one repeat on a reduced budget with no history append,
for smoke tests and local iteration.

Reference points measured on the PR-1 tree (same protocol, same
container class) before the engine refactor:
``baseline/gcc ~64k cycles/s, flywheel/gcc ~69k cycles/s``.
"""

import json
import sys
import time

from repro.core.sim import default_config, kind_names
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
#: kind list is the kind table's, so every machine kind is benchmarked
#: (and perf-tracked by ``repro.perf check``).
_SESSION = Session()


def _engine_config(kind, engine="legacy"):
    """The kind's default config with only the engine set explicitly
    (the bare series names track the legacy engine, not the default)."""
    return default_config(kind).with_variant(engine=engine)


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
                             "budget, history append skipped — for "
                             "smoke tests and local iteration (only "
                             "comparable against another --quick "
                             "report)")
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

    return 0


if __name__ == "__main__":
    sys.exit(main())
