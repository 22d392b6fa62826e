"""Two-component (logic + wire) delay scaling.

Every structure's access time is decomposed as::

    D(node) = logic_ps * logic_scale(node) + wire_ps * wire_scale(node)

with both components expressed at the 0.18um reference. Transistor delay
scales linearly with feature size; wire delay per structure is roughly
constant (shorter wires, but higher RC per unit length), with a mild
degradation at the smallest nodes — the behaviour Palacharla et al. derive
and the paper's Fig. 1 plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Feature sizes (um) used across the paper, in plot order.
TECH_NODES = (0.25, 0.18, 0.13, 0.09, 0.06)

_REF = 0.18


def logic_scale(node_um: float) -> float:
    """Transistor-delay multiplier relative to 0.18um (linear in feature)."""
    _check(node_um)
    return node_um / _REF


def wire_scale(node_um: float) -> float:
    """Wire-delay multiplier relative to 0.18um.

    Wires shrink with the structure but RC per unit length rises; the net
    effect is near-flat with a slight worsening below 90nm (the reason the
    wakeup loop stops scaling).
    """
    _check(node_um)
    if node_um >= _REF:
        return 1.0 + 0.15 * (node_um / _REF - 1.0)
    # Mildly super-unity as nodes shrink: +8% at 0.13, +14% at 0.09, +20% at 0.06.
    return 1.0 + 0.24 * (_REF - node_um) / (_REF - 0.06)


def _check(node_um: float) -> None:
    if not 0.01 <= node_um <= 1.0:
        raise ConfigError(f"implausible feature size {node_um} um")


@dataclass(frozen=True)
class DelayModel:
    """One structure's calibrated delay decomposition (ps at 0.18um)."""

    name: str
    logic_ps: float
    wire_ps: float

    def delay_ps(self, node_um: float) -> float:
        return (self.logic_ps * logic_scale(node_um)
                + self.wire_ps * wire_scale(node_um))

