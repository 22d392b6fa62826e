"""CACTI-style access-time scaling model (Fig. 1 and Table 1).

The paper derives module latencies from CACTI [4] extended with the
logic-vs-wire decomposition of Palacharla et al. [2]: transistor-dominated
paths speed up roughly linearly with feature size while wire-dominated
paths barely improve. This package reproduces that analysis with a
two-component delay model calibrated to the paper's published 0.18um and
0.06um anchors.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.timing.delay": (
        "TECH_NODES", "logic_scale", "wire_scale", "DelayModel"),
    "repro.timing.structures": (
        "iw_latency_ps", "cache_latency_ps", "rf_latency_ps", "ec_latency_ps"),
    "repro.timing.frequency": ("module_frequencies_mhz", "TABLE1_NODES"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "TECH_NODES",
    "logic_scale",
    "wire_scale",
    "DelayModel",
    "iw_latency_ps",
    "cache_latency_ps",
    "rf_latency_ps",
    "ec_latency_ps",
    "module_frequencies_mhz",
    "TABLE1_NODES",
]
