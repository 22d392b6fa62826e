"""Simulated cores: the synchronous machines and the Flywheel.

All cores are thin compositions over the shared pipeline engine
(:mod:`repro.core.engine`). The baseline is the paper's reference design:
a nine-stage, four-way superscalar out-of-order pipeline with a monolithic
128-entry issue window (R10000-style renaming). ``PipelinedWakeupCore`` is
its Fig. 2 variant with the Wake-Up/Select loop pipelined. The Flywheel
core adds the Dual Clock Issue Window and the Execution Cache with
two-phase register renaming.

:mod:`repro.core.sim` holds the fixed table of these three kinds
(:func:`get_kind`, :func:`kind_names`) and the one path that builds and
runs any of them, ``build_core`` then ``run_core``; :func:`execute_kind`
is the two in one call.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.config": ("CoreConfig", "FlywheelConfig", "ClockPlan"),
    "repro.core.stats": ("SimStats",),
    "repro.core.baseline": ("BaselineCore",),
    "repro.core.pipelined": ("PipelinedWakeupCore",),
    "repro.core.flywheel": ("FlywheelCore",),
    "repro.core.sim": ("execute_kind", "get_kind", "kind_names",
                       "SimResult"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CoreConfig",
    "FlywheelConfig",
    "ClockPlan",
    "SimStats",
    "BaselineCore",
    "PipelinedWakeupCore",
    "FlywheelCore",
    "execute_kind",
    "get_kind",
    "kind_names",
    "SimResult",
]
