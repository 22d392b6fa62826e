"""Simulated cores: the synchronous machines and the Flywheel.

All cores are thin compositions over the shared pipeline engine
(:mod:`repro.core.engine`). The baseline is the paper's reference design:
a nine-stage, four-way superscalar out-of-order pipeline with a monolithic
128-entry issue window (R10000-style renaming). ``PipelinedWakeupCore`` is
its Fig. 2 variant with the Wake-Up/Select loop pipelined. The Flywheel
core adds the Dual Clock Issue Window and the Execution Cache with
two-phase register renaming.
"""

from repro._lazy import lazy_exports

# The built-in kinds register on import of ``repro.core.sim``; importing
# it here means no kind can be looked up before they are registered.
# It loads no core class: the registry resolves those on first use.
from repro.core import sim as _sim  # noqa: F401

_EXPORTS = {
    "repro.core.config": ("CoreConfig", "FlywheelConfig", "ClockPlan"),
    "repro.core.stats": ("SimStats",),
    "repro.core.baseline": ("BaselineCore",),
    "repro.core.pipelined": ("PipelinedWakeupCore",),
    "repro.core.flywheel": ("FlywheelCore",),
    "repro.core.registry": ("get_kind", "kind_names", "register_kind"),
    "repro.core.sim": (
        "execute_kind", "run_baseline", "run_flywheel", "run_pipelined_wakeup",
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
    "register_kind",
    "run_baseline",
    "run_flywheel",
    "run_pipelined_wakeup",
    "SimResult",
]
