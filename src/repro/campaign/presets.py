"""Campaign presets: the job lists behind the paper's experiments.

An experiment that simulates names its runs once, in its module's
``legs(ctx)`` (see :mod:`repro.experiments.common`); its ``run(ctx)``
reads every result through those legs. The presets only expand them, so
a job list and the table it feeds cannot drift apart: a campaign warmed
with :func:`experiment_legs` leaves the tables nothing to simulate, and
``campaign run`` reports any run they do make.

:data:`EXPERIMENTS` is the one experiment registry, in presentation
order, and :func:`print_experiments` prints their tables.

This module imports the experiment modules, which import
``repro.campaign.spec`` — keep it out of ``repro.campaign.__init__`` to
avoid a partially-initialized package cycle.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.campaign.spec import RunSpec, dedup
from repro.errors import CampaignError
from repro.experiments.common import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    ExperimentContext,
)
from repro.experiments import fig01_latency, fig02_loops, fig11_same_clock
from repro.experiments import fig12_performance, fig13_energy, fig14_power
from repro.experiments import fig15_technology, residency, table1_freq
from repro.experiments import ablations, dvfs_sweep, mem_sweep, sensitivity
from repro.workloads.profiles import SPEC_NAMES

#: Every experiment by CLI name, in the order ``all`` prints them.
EXPERIMENTS = {
    "fig1": fig01_latency,
    "table1": table1_freq,
    "fig2": fig02_loops,
    "fig11": fig11_same_clock,
    "residency": residency,
    "fig12": fig12_performance,
    "fig13": fig13_energy,
    "fig14": fig14_power,
    "fig15": fig15_technology,
    "ablations": ablations,
    "sensitivity": sensitivity,
    "dvfs": dvfs_sweep,
    "mem": mem_sweep,
}

#: Experiments that run simulations (the rest are analytical).
SIM_EXPERIMENTS = tuple(name for name in EXPERIMENTS
                        if hasattr(EXPERIMENTS[name], "legs"))


def experiment_legs(ctx: ExperimentContext,
                    names: Iterable[str]) -> List[RunSpec]:
    """Deduplicated union of the named experiments' legs on ``ctx``.

    Built through ``ctx.spec``, so the tables later read the very same
    spec objects (and their memoized cache keys).
    """
    specs: List[RunSpec] = []
    for name in names:
        if name not in EXPERIMENTS:
            raise CampaignError(
                f"unknown experiment {name!r}; known: "
                f"{', '.join(EXPERIMENTS)}")
        if name in SIM_EXPERIMENTS:
            specs.extend(EXPERIMENTS[name].legs(ctx).values())
    return dedup(specs)


def experiment_specs(names: Iterable[str],
                     benchmarks: Sequence[str] = SPEC_NAMES,
                     instructions: int = DEFAULT_INSTRUCTIONS,
                     warmup: int = DEFAULT_WARMUP,
                     seed: Optional[int] = None) -> List[RunSpec]:
    """Deduplicated union of the specs the named experiments will run."""
    ctx = ExperimentContext(instructions=instructions, warmup=warmup,
                            benchmarks=tuple(benchmarks), seed=seed)
    return experiment_legs(ctx, names)


def print_experiments(ctx: ExperimentContext, names: Iterable[str]) -> None:
    """Print the named experiments' tables, reading runs through ``ctx``."""
    for name in names:
        EXPERIMENTS[name].main(ctx)
