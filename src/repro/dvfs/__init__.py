"""Adaptive clock governors: runtime DVFS for the dual-clock back end.

The paper's machine derives both back-end clocks from one fast master
clock and switches the execution-cache domain between trace-mode and
conventional-mode frequencies; this package generalizes that single
hard-coded switch into a governor framework. A governor observes
per-interval telemetry (IPC, issue-window occupancy, EC replay fraction,
LSQ pressure, gated-cycle fraction, interval energy) and retunes domain
frequencies at interval boundaries over a discrete ladder of
master-clock divisors, via ``ClockDomain.set_frequency``.

Configuration rides in ``ClockPlan.governor`` (a
:class:`GovernorConfig`), so governed runs flow through the sim API,
campaign specs and the content-addressed result store like any other
clock-plan point. ``governor=None`` — the default — means no controller
is attached at all, and ``GovernorConfig(name="static")`` is pinned
bit-identical to that by the golden-stats tests.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.dvfs.config": (
        "DEFAULT_SCALE_STEPS", "GOVERNOR_NAMES", "GovernorConfig"),
    "repro.dvfs.controller": ("FlywheelDvfsController", "SyncDvfsController"),
    "repro.dvfs.governors": (
        "GOVERNORS", "EnergyBudgetGovernor", "Governor", "IpcLadderGovernor",
        "OccupancyGovernor", "StaticGovernor", "make_governor"),
    "repro.dvfs.telemetry": ("IntervalTelemetry",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "GovernorConfig",
    "GOVERNOR_NAMES",
    "DEFAULT_SCALE_STEPS",
    "IntervalTelemetry",
    "Governor",
    "StaticGovernor",
    "OccupancyGovernor",
    "IpcLadderGovernor",
    "EnergyBudgetGovernor",
    "GOVERNORS",
    "make_governor",
    "SyncDvfsController",
    "FlywheelDvfsController",
]
