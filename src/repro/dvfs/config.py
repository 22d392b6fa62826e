"""Governor configuration: the declarative half of the DVFS subsystem.

A :class:`GovernorConfig` rides inside :class:`~repro.core.config.ClockPlan`
(``ClockPlan.governor``), so it flows through every layer that already
carries a clock plan — the sim API, campaign :class:`RunSpec` payloads and
cache keys, the on-disk result store — without any of them growing a new
axis. ``governor=None`` (the default everywhere) means "no controller at
all" and is byte-for-byte the pre-DVFS machine.

The frequency ladder is discrete: the paper derives both back-end clocks
from one fast master clock by integer division, so a governor never picks
an arbitrary frequency — it moves between the ``scale_steps`` rungs
(multipliers on the plan's nominal frequency), one step per decision
interval.

This module must stay import-light (dataclasses + repro.errors only):
``repro.core.config`` materializes :class:`GovernorConfig` from stored
payloads, and ``repro.power.__init__`` transitively imports
``repro.core.sim`` — so importing either package here at module load
would cycle. The tech-node lookup is deferred into validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: Governor policies shipped with the framework (see repro.dvfs.governors).
GOVERNOR_NAMES = ("static", "occupancy", "ipc_ladder", "energy_budget")

#: Default frequency ladder: throttle rungs below the plan's nominal
#: clock. 1.0 must be reachable so ``start_scale=1.0`` lands on a rung.
DEFAULT_SCALE_STEPS = (0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class GovernorConfig:
    """Everything that defines one adaptive-clock policy.

    Part of a spec's content address (``RunSpec.cache_key()``, via the
    enclosing ``ClockPlan``), so two runs that differ only in governor
    tuning are distinct campaign jobs and never alias in the result
    store.
    """

    #: Policy name; one of :data:`GOVERNOR_NAMES`.
    name: str = "static"
    #: Back-end cycles between governor decisions (interval boundaries).
    interval: int = 1000
    #: Discrete frequency ladder: ascending multipliers on the nominal
    #: domain frequency. Governors move one rung per interval.
    scale_steps: Tuple[float, ...] = DEFAULT_SCALE_STEPS
    #: Rung the run starts on (snapped to the nearest step).
    start_scale: float = 1.0

    # --- occupancy governor ------------------------------------------------
    #: Issue-window occupancy above which the clock steps up a rung.
    occ_high: float = 0.60
    #: Occupancy below which it steps down (window draining = idle engine).
    occ_low: float = 0.20

    # --- ipc_ladder governor -----------------------------------------------
    #: Half-width of the hill climber's hold band: scores within the band
    #: hold the rung, worsening beyond it reverses direction. Interval
    #: EDP is noisy (mispredict bursts, EC hit streaks), so a narrow band
    #: thrashes; 0.15 measurably beats 0.05 on both EDP and retune count.
    ladder_margin: float = 0.15

    # --- energy_budget governor --------------------------------------------
    #: Average-power envelope in watts; 0 auto-calibrates the budget to
    #: ``budget_headroom`` x the first interval's observed power.
    budget_watts: float = 0.0
    #: Fraction of the budget below which the clock may step back up (and
    #: the auto-calibration factor for ``budget_watts == 0``).
    budget_headroom: float = 0.85

    #: Technology node used for the interval power estimate
    #: (:data:`repro.power.technology.TECH_BY_NAME` key).
    tech: str = "130nm"

    def __post_init__(self) -> None:
        if self.name not in GOVERNOR_NAMES:
            raise ConfigError(
                f"unknown governor {self.name!r}; known: "
                f"{', '.join(GOVERNOR_NAMES)}")
        if self.interval < 1:
            raise ConfigError("governor interval must be >= 1 cycle")
        steps = tuple(float(s) for s in self.scale_steps)
        if not steps:
            raise ConfigError("scale_steps must not be empty")
        if any(s <= 0 for s in steps):
            raise ConfigError("scale_steps must be positive")
        if list(steps) != sorted(steps) or len(set(steps)) != len(steps):
            raise ConfigError("scale_steps must be strictly ascending")
        from repro.power.technology import TECH_BY_NAME  # deferred: cycle

        if self.tech not in TECH_BY_NAME:
            raise ConfigError(
                f"unknown tech node {self.tech!r}; known: "
                f"{', '.join(TECH_BY_NAME)}")
        if not 0.0 < self.budget_headroom <= 1.0:
            raise ConfigError("budget_headroom must be in (0, 1]")
        if not 0.0 <= self.occ_low < self.occ_high <= 1.0:
            raise ConfigError("need 0 <= occ_low < occ_high <= 1")
        # Coerce numeric fields exactly like ClockPlan does: equal configs
        # must serialize identically (JSON renders 1 and 1.0 differently),
        # and from_dict-style reconstruction hands us lists for tuples.
        object.__setattr__(self, "scale_steps", steps)
        for field_name in ("start_scale", "occ_high", "occ_low",
                          "ladder_margin", "budget_watts",
                          "budget_headroom"):
            object.__setattr__(self, field_name,
                               float(getattr(self, field_name)))

    @property
    def start_index(self) -> int:
        """Ladder rung closest to ``start_scale``."""
        steps = self.scale_steps
        return min(range(len(steps)),
                   key=lambda i: abs(steps[i] - self.start_scale))


def governor_plan(base_plan, name: str, **overrides) -> "object":
    """Copy ``base_plan`` (a ClockPlan) with a governor attached."""
    from dataclasses import replace

    return replace(base_plan, governor=GovernorConfig(name=name,
                                                      **overrides))


__all__ = ["GovernorConfig", "GOVERNOR_NAMES", "DEFAULT_SCALE_STEPS",
           "governor_plan"]
