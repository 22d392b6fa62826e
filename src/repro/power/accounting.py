"""Energy accounting: turn one simulation's counters into joules/watts.

``energy_report`` is core-agnostic: it reads the event counters, the clock
domains' cycle counts, and the L2 access counts from a finished
:class:`~repro.core.sim.SimResult`, and evaluates the dynamic, static and
clock models at a technology node. All figure-13/14/15 results are ratios
of these reports between the Flywheel and the baseline at the same node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.sim import KIND_FLYWHEEL, SimResult
from repro.power.clocktree import clock_energy_pj
from repro.power.energy import dynamic_energy_pj
from repro.power.leakage import (
    baseline_structures,
    flywheel_structures,
    leakage_power_w,
)
from repro.power.technology import TechNode


@dataclass
class EnergyReport:
    """Energy breakdown for one run."""

    name: str
    tech: TechNode
    dynamic_pj: float = 0.0
    clock_pj: float = 0.0
    static_pj: float = 0.0
    time_s: float = 0.0
    by_event: Dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.clock_pj + self.static_pj

    @property
    def total_j(self) -> float:
        return self.total_pj * 1e-12

    @property
    def power_w(self) -> float:
        return self.total_j / self.time_s if self.time_s else 0.0

    @property
    def static_fraction(self) -> float:
        return self.static_pj / self.total_pj if self.total_pj else 0.0


def energy_report(result: SimResult, tech: TechNode) -> EnergyReport:
    """Evaluate the power models over one finished simulation.

    Works on both live results (``result.core`` set) and detached ones
    rebuilt from the campaign store, which carry the core kind and L2
    access count as plain fields instead.
    """
    core = result.core
    stats = result.stats
    if core is not None:
        # Only a live result has a core to inspect; a detached one never
        # loads the simulator.
        from repro.core.flywheel import FlywheelCore

        is_flywheel = isinstance(core, FlywheelCore)
        l2_accesses = core.hierarchy.l2.stats.accesses
    else:
        is_flywheel = result.kind == KIND_FLYWHEEL
        l2_accesses = result.l2_accesses

    events = dict(stats.events)
    events["l2_access"] = l2_accesses

    by_event = dynamic_energy_pj(events, tech, flywheel_rf=is_flywheel)
    dynamic = sum(by_event.values())

    fe_active = stats.fe_cycles_active
    be_cycles = stats.total_be_cycles
    structures = (flywheel_structures() if is_flywheel
                  else baseline_structures())
    clock = clock_energy_pj(tech, be_cycles, fe_active, be_cycles)

    time_s = stats.sim_time_ps * 1e-12
    static = leakage_power_w(tech, structures) * time_s * 1e12  # -> pJ

    return EnergyReport(
        name=result.name,
        tech=tech,
        dynamic_pj=dynamic,
        clock_pj=clock,
        static_pj=static,
        time_s=time_s,
        by_event=by_event,
    )
