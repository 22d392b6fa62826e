"""Campaign presets: the job lists behind the paper's experiments.

An experiment that simulates names its runs once, in its module's
``legs(ctx)`` (see :mod:`repro.experiments.common`); its ``run(ctx)``
reads every result through those legs. The presets only expand them, so
a job list and the table it feeds cannot drift apart: a campaign warmed
with :func:`experiment_legs` leaves the tables nothing to simulate, and
the CLIs report any run they do make.

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
from repro.experiments.__main__ import EXPERIMENTS
from repro.workloads.profiles import SPEC_NAMES

#: Derived from the experiments CLI's registry — the single source of
#: truth — so a newly registered experiment is automatically accepted
#: here.
ALL_EXPERIMENTS = tuple(EXPERIMENTS)

#: Experiments that run simulations (the rest are analytical).
SIM_EXPERIMENTS = tuple(name for name in ALL_EXPERIMENTS
                        if hasattr(EXPERIMENTS[name], "legs"))


def experiment_legs(ctx: ExperimentContext,
                    names: Iterable[str]) -> List[RunSpec]:
    """Deduplicated union of the named experiments' legs on ``ctx``.

    Built through ``ctx.spec``, so the tables later read the very same
    spec objects (and their memoized cache keys).
    """
    specs: List[RunSpec] = []
    for name in names:
        if name not in ALL_EXPERIMENTS:
            raise CampaignError(
                f"unknown experiment {name!r}; known: "
                f"{', '.join(ALL_EXPERIMENTS)}")
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
