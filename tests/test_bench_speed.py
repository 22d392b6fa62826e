"""Pins for the ``bench_sim_speed`` measurement protocol.

The bench harness lives outside the package (``benchmarks/``), but its
measurement rules are correctness-bearing: the engine series must run
the *same machine* as the legacy series with only the backend swapped.
A bare ``CoreConfig(engine=...)`` silently dropped kind defaults — the
flywheel's 512-entry register file and second regread stage — which is
exactly the legacy-vs-turbo cycle divergence BENCH_core.json used to
carry (``flywheel/gcc``: 58249 vs 58156). The pin here compares cycles
*through the bench path* for every kind x engine leg, so a regression
in config plumbing shows up as a cycle mismatch, not as a quiet
throughput skew.

The speedup-table arithmetic is pinned separately on synthetic series
(no simulation), keeping the module cheap enough for the default
matrix.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_sim_speed  # noqa: E402


def test_engine_series_simulate_the_same_machine():
    """Every ``@engine`` series lands on the legacy series' cycles.

    This is the flywheel-divergence regression pin: the bench must
    derive engine configs from the kind's defaults (only the engine
    swapped), so identical machines produce identical cycle counts and
    the speedup tables compare like with like.
    """
    report = bench_sim_speed.measure(
        benchmarks=("smoke",), instructions=2000, warmup=500, repeats=1,
        engines=("legacy", "turbo"),
        membound_instructions=2000, membound_warmup=500)
    series = report["series"]
    legs = sorted(n for n in series if "@" in n)
    assert legs, "no engine series measured"
    for name in legs:
        base = name.split("@")[0]
        assert series[name]["cycles"] == series[base]["cycles"], (
            f"{name} simulated a different machine than {base}")
    # The speedup table covers every base that has a turbo leg.
    assert set(report["turbo_speedup"]) == {n.split("@")[0] for n in legs}


class TestSpeedupTables:
    SERIES = {
        "baseline/gcc": {"cycles_per_sec": 1000},
        "baseline/gcc@turbo": {"cycles_per_sec": 4500},
        "membound/pointer_chase": {"cycles_per_sec": 2000},
        "membound/pointer_chase@turbo": {"cycles_per_sec": 5100},
        # A zero legacy denominator must be skipped, not divide.
        "broken/x": {"cycles_per_sec": 0},
        "broken/x@turbo": {"cycles_per_sec": 100},
    }

    def test_ratios_keyed_by_base_series(self):
        assert bench_sim_speed.turbo_speedups(self.SERIES) == {
            "baseline/gcc": 4.5, "membound/pointer_chase": 2.55}

    def test_legacy_only_series_give_an_empty_table(self):
        legacy = {n: r for n, r in self.SERIES.items() if "@" not in n}
        assert bench_sim_speed.turbo_speedups(legacy) == {}
