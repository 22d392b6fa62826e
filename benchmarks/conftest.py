"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper at a
reduced instruction budget (pytest-benchmark measures the harness; the
figures' full-budget numbers are produced by
``python -m repro.campaign run --experiments all``).
"""

import pytest

from repro.experiments.common import ExperimentContext

#: Reduced budgets so the whole benchmark suite completes in minutes.
BENCH_INSTRUCTIONS = 15_000
BENCH_WARMUP = 50_000
BENCH_SET = ("ijpeg", "gcc", "mesa", "vortex")


@pytest.fixture(scope="session")
def ctx():
    """One shared run-cache across all benchmark modules."""
    return ExperimentContext(instructions=BENCH_INSTRUCTIONS,
                             warmup=BENCH_WARMUP,
                             benchmarks=BENCH_SET)


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
