"""The paper's conclusions, checked as directions over several seeds.

Each claim comes from an experiment module's docstring (Figs. 11-14 and
the Section 5 EC-residency statistic). Only directions are checked —
"the Flywheel is faster than Register Allocation", "vortex has the
lowest residency" — never magnitudes, and a claim must hold on every
seed. ``test_seed_spread_is_bounded`` keeps the per-seed values close
enough for a direction to mean something at this budget.

A claim the reproduction does not meet today is
``xfail(strict=True)`` with the measured values in its reason, so a
change that makes it hold turns the suite red until the marker goes,
and a deliberate golden re-pin cannot silently flip a figure the other
way. The wrong direction is never pinned as expected.

Budget: 4000 measured / 8000 warmup instructions over gcc, ijpeg and
vortex, seeds 1-3, one shared context per seed (every figure reads the
same runs). Values quoted in the reasons are for this budget; the
experiments CLI's default budget (30k/60k, all ten benchmarks) reads
differently, as each reason says.
"""

import pytest

from repro.experiments import (
    fig11_same_clock,
    fig12_performance,
    fig13_energy,
    fig14_power,
    residency,
)
from repro.experiments.common import ExperimentContext

SEEDS = (1, 2, 3)
BENCHMARKS = ("gcc", "ijpeg", "vortex")
INSTRUCTIONS, WARMUP = 4000, 8000
SWEEP = [label for label, _clock in fig12_performance.SWEEP]

#: Largest allowed seed spread of a headline value, relative to its
#: mean across seeds (measured: at most 0.14, on Fig. 11's Flywheel).
MAX_REL_SPREAD = 0.25


def _by_bench(rows):
    return {row["benchmark"]: row for row in rows}


@pytest.fixture(scope="module")
def figures():
    """seed -> {figure: rows keyed by benchmark (plus the aggregate)}."""
    out = {}
    for seed in SEEDS:
        ctx = ExperimentContext(instructions=INSTRUCTIONS, warmup=WARMUP,
                                benchmarks=BENCHMARKS, seed=seed)
        out[seed] = {
            "fig11": _by_bench(fig11_same_clock.run(ctx)),
            "fig12": _by_bench(fig12_performance.run(ctx)),
            "fig13": _by_bench(fig13_energy.run(ctx)),
            "fig14": _by_bench(fig14_power.run(ctx)),
            "residency": _by_bench(residency.run(ctx)),
        }
    return out


def _geomean_row(figures, seed, fig):
    return figures[seed][fig]["geomean"]


def test_seed_spread_is_bounded(figures):
    headlines = {
        "fig11 register_allocation": lambda f: f["fig11"]["geomean"][
            "register_allocation"],
        "fig11 flywheel": lambda f: f["fig11"]["geomean"]["flywheel"],
        "fig12 FE100%": lambda f: f["fig12"]["geomean"][SWEEP[-1]],
        "fig13 FE0%": lambda f: f["fig13"]["geomean"][SWEEP[0]],
        "fig14 FE100%": lambda f: f["fig14"]["geomean"][SWEEP[-1]],
        "vortex residency": lambda f: f["residency"]["vortex"][
            "ec_residency_%"],
    }
    for name, get in headlines.items():
        values = [get(figures[seed]) for seed in SEEDS]
        mean = sum(values) / len(values)
        assert mean > 0, name
        assert (max(values) - min(values)) / mean <= MAX_REL_SPREAD, (
            name, values)


@pytest.mark.xfail(strict=True, reason=(
    "Fig. 11 not met: at 4000/8000 instructions (gcc, ijpeg, vortex) the "
    "full Flywheel's geomean is 0.40-0.47 against Register Allocation's "
    "0.57-0.62 over seeds 1-3; the CLI's default budget reads 0.70 "
    "against 0.78. The paper: the EC recovers the loss, +5% average."))
def test_fig11_flywheel_at_least_register_allocation(figures):
    for seed in SEEDS:
        row = _geomean_row(figures, seed, "fig11")
        assert row["flywheel"] >= row["register_allocation"], seed


@pytest.mark.xfail(strict=True, reason=(
    "Fig. 12 not met: at 4000/8000 instructions (gcc, ijpeg, vortex) the "
    "geomean is 0.44-0.52 at every FE clock and not monotone on seeds 1 "
    "and 3; the CLI's default budget reads about 0.83 throughout. The "
    "paper: large speedups that grow with the front-end clock."))
def test_fig12_grows_with_fe_clock_and_wins(figures):
    for seed in SEEDS:
        row = _geomean_row(figures, seed, "fig12")
        values = [row[label] for label in SWEEP]
        assert values == sorted(values), (seed, values)
        assert values[-1] > 1.0, (seed, values)


def test_ec_residency_lowest_on_vortex(figures):
    # Section 5: vortex, the huge-code outlier, spends the least time on
    # the EC path (measured 49.8-54.2% against gcc's 67-73%).
    for seed in SEEDS:
        rows = figures[seed]["residency"]
        vortex = rows["vortex"]["ec_residency_%"]
        for bench in BENCHMARKS:
            if bench != "vortex":
                assert vortex < rows[bench]["ec_residency_%"], (seed, bench)


@pytest.mark.xfail(strict=True, reason=(
    "Fig. 13 not met: at 4000/8000 instructions (gcc, ijpeg, vortex) the "
    "Flywheel's geomean total energy is 1.67-1.99x the baseline's at "
    "every sweep point over seeds 1-3. The paper: less energy (~0.7x), "
    "because the front end is clock-gated while the EC path runs."))
def test_fig13_flywheel_saves_energy(figures):
    for seed in SEEDS:
        row = _geomean_row(figures, seed, "fig13")
        for label in SWEEP:
            assert row[label] < 1.0, (seed, label, row[label])


def test_fig14_power_grows_with_fe_clock(figures):
    # Fig. 14: average power rises with the front-end clock (measured
    # geomean 0.835 -> 0.883 on seed 1).
    for seed in SEEDS:
        row = _geomean_row(figures, seed, "fig14")
        values = [row[label] for label in SWEEP]
        assert values == sorted(values), (seed, values)


@pytest.mark.xfail(strict=True, reason=(
    "Fig. 14 not met: at 4000/8000 instructions (gcc, ijpeg, vortex) "
    "geomean power grows 5-6% from FE0% to FE100% while performance "
    "changes by -3% to +3% over seeds 1-3. The paper: power grows far "
    "more slowly than performance."))
def test_fig14_power_grows_slower_than_performance(figures):
    for seed in SEEDS:
        perf = _geomean_row(figures, seed, "fig12")
        power = _geomean_row(figures, seed, "fig14")
        perf_gain = perf[SWEEP[-1]] / perf[SWEEP[0]]
        power_gain = power[SWEEP[-1]] / power[SWEEP[0]]
        assert perf_gain > power_gain, (seed, perf_gain, power_gain)
