"""CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments fig12 [--instructions N] [--warmup N]
    python -m repro.experiments all --jobs 4 --benchmarks gcc,gzip
    python -m repro.experiments all --store ~/.cache/repro-campaign

``--jobs`` fans the experiments' simulations out over worker processes
through the campaign engine before the tables are printed; ``--store``
additionally memoizes every run on disk so repeated invocations are
near-instant. See ``python -m repro.campaign --help`` for managing the
store.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.executor import print_progress
from repro.campaign.store import ResultStore
from repro.session import Session
from repro.experiments import fig01_latency, fig02_loops, fig11_same_clock
from repro.experiments import fig12_performance, fig13_energy, fig14_power
from repro.experiments import fig15_technology, residency, table1_freq
from repro.experiments import ablations, dvfs_sweep, mem_sweep, sensitivity
from repro.experiments.common import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    ExperimentContext,
)
from repro.workloads.profiles import SPEC_NAMES, get_profile

EXPERIMENTS = {
    "fig1": fig01_latency,
    "fig2": fig02_loops,
    "table1": table1_freq,
    "fig11": fig11_same_clock,
    "fig12": fig12_performance,
    "fig13": fig13_energy,
    "fig14": fig14_power,
    "fig15": fig15_technology,
    "residency": residency,
    "ablations": ablations,
    "sensitivity": sensitivity,
    "dvfs": dvfs_sweep,
    "mem": mem_sweep,
}

#: Presentation order for ``all``.
ALL_ORDER = ("fig1", "table1", "fig2", "fig11", "residency", "fig12",
             "fig13", "fig14", "fig15", "ablations", "sensitivity",
             "dvfs", "mem")


def parse_benchmarks(arg: str) -> tuple:
    """Validate a comma-separated benchmark list early (clear CLI error)."""
    from repro.errors import WorkloadError

    names = tuple(dict.fromkeys(n.strip() for n in arg.split(",")
                                if n.strip()))
    try:
        for name in names:
            get_profile(name)
    except WorkloadError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not names:
        raise argparse.ArgumentTypeError("empty benchmark list")
    return names


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared with ``python -m repro.campaign run``."""
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS,
                        help="measured instructions per run")
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                        help="functional warmup instructions per run")
    parser.add_argument("--benchmarks", type=parse_benchmarks,
                        default=SPEC_NAMES, metavar="A,B,...",
                        help="comma-separated benchmark subset "
                             f"(default: {','.join(SPEC_NAMES)})")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload generation seed shared by all runs "
                             "(default: each benchmark's stable seed)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the simulations")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persist results in a campaign store at DIR")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job timeout in seconds (parallel runs)")


def build_context(args) -> ExperimentContext:
    """One Session per invocation; the experiments share its caches."""
    session = Session(store=ResultStore(args.store) if args.store else None,
                      jobs=args.jobs, timeout_s=args.timeout)
    return ExperimentContext(instructions=args.instructions,
                             warmup=args.warmup,
                             benchmarks=args.benchmarks,
                             seed=args.seed,
                             session=session)


def warm_experiments(ctx: ExperimentContext, names, jobs=1, timeout=None,
                     progress=print_progress):
    """Fan the named experiments' legs out through the campaign engine
    into ``ctx``'s cache; shared by both CLI entry points."""
    from repro.campaign.presets import experiment_legs

    return ctx.warm(experiment_legs(ctx, names), jobs=jobs,
                    timeout_s=timeout, progress=progress)


def print_experiments(ctx: ExperimentContext, names) -> None:
    for name in names:
        EXPERIMENTS[name].main(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    add_run_flags(parser)
    args = parser.parse_args(argv)

    ctx = build_context(args)
    names = list(ALL_ORDER) if args.experiment == "all" else [args.experiment]

    # Any of the campaign-engine features (parallelism, persistence,
    # timeout enforcement) routes the simulations through the engine.
    if args.jobs > 1 or ctx.store is not None or args.timeout is not None:
        from repro.errors import ReproError

        try:
            report = warm_experiments(ctx, names, jobs=args.jobs,
                                      timeout=args.timeout)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"campaign: {report.summary()}", file=sys.stderr)

    print_experiments(ctx, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
