"""Wattch-style power/energy modelling (Figs. 13-15).

Dynamic energy is counted per structure access (switched capacitance x
Vdd^2), static energy from per-device leakage currents (Butts-Sohi style,
Table 2's technology parameters), and clock-distribution energy from an
Alpha-21264-like global grid plus per-domain local grids that stop burning
dynamic power when their domain is clock-gated — the Flywheel's front-end
grid during trace execution.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.power.technology": (
        "TechNode", "TECH_BY_NAME", "TECH_130", "TECH_90", "TECH_60",
        "TECH_180"),
    "repro.power.energy": ("ACCESS_ENERGY_PJ", "dynamic_energy_pj"),
    "repro.power.leakage": ("LEAKAGE_WEIGHTS", "leakage_power_w"),
    "repro.power.clocktree": ("clock_energy_pj",),
    "repro.power.accounting": ("EnergyReport", "energy_report"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "TechNode",
    "TECH_BY_NAME",
    "TECH_180",
    "TECH_130",
    "TECH_90",
    "TECH_60",
    "ACCESS_ENERGY_PJ",
    "dynamic_energy_pj",
    "LEAKAGE_WEIGHTS",
    "leakage_power_w",
    "clock_energy_pj",
    "EnergyReport",
    "energy_report",
]
