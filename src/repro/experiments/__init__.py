"""Experiment harness: one module per table/figure of the paper.

Every experiment exposes ``run(ctx) -> rows`` returning a list of dicts
(one per table row / plotted point) and ``main(ctx)`` that prints the
table; ``python -m repro.campaign run`` prints them through
:func:`repro.campaign.presets.print_experiments`.
One that simulates also exposes ``legs(ctx)``, the specs of every run
its table reads; the campaign presets expand the same function.
``ExperimentContext`` caches simulation runs so figures that share a sweep
(12/13/14) pay for it once.
"""

from repro.experiments.common import ExperimentContext, geomean, print_table

__all__ = ["ExperimentContext", "geomean", "print_table"]
