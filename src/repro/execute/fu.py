"""Functional-unit pools (Table 2: 4 int ALU, 2 int mul/div, 2 memory
ports, 2 FP adders, 1 FP mul/div).

Pipelined units accept one operation per cycle; unpipelined units (the
dividers) are reserved for their whole latency.

Availability is tracked in flat arrays indexed by ``int(FuKind)`` — this
runs once per issue candidate per cycle, so the dict-of-enums bookkeeping
it replaced was measurable in whole-campaign profiles.
"""

from __future__ import annotations

from typing import List

from repro.isa.opclasses import FuKind, N_FU_KINDS


class FuPool:
    """Per-kind availability tracking for one clock domain."""

    __slots__ = ("_counts", "_used", "_reserved", "_n_reserved", "ops",
                 "_zeros", "_dirty")

    def __init__(self, int_alus: int, int_muldivs: int, mem_ports: int,
                 fp_adders: int, fp_muldivs: int):
        counts = [0] * N_FU_KINDS
        counts[FuKind.INT_ALU] = int_alus
        counts[FuKind.INT_MULDIV] = int_muldivs
        counts[FuKind.MEM_PORT] = mem_ports
        counts[FuKind.FP_ADD] = fp_adders
        counts[FuKind.FP_MULDIV] = fp_muldivs
        self._counts: List[int] = counts
        self._used: List[int] = [0] * N_FU_KINDS
        #: per-kind lists of cycle numbers until which a unit stays busy
        self._reserved: List[List[int]] = [[] for _ in range(N_FU_KINDS)]
        self._n_reserved = 0
        self.ops = 0  # total operations started (power events)
        self._zeros = (0,) * N_FU_KINDS
        self._dirty = False

    def available(self, kind: int) -> int:
        return (self._counts[kind] - self._used[kind]
                - len(self._reserved[kind]))

    def try_issue_group(self, demands, cycle: int = None) -> bool:
        """Atomically claim units for a whole issue group (VLIW replay).

        ``demands`` is an iterable of (kind, cycle, latency, unpipelined)
        tuples; either every member gets a unit or nothing is claimed.
        ``cycle`` overrides the per-demand cycle stamp — callers reusing a
        cached demand tuple across cycles pass the live cycle here.
        """
        if not isinstance(demands, (list, tuple)):
            demands = list(demands)
        need = [0] * N_FU_KINDS
        for kind, _cycle, _lat, _unp in demands:
            need[kind] += 1
        for kind in range(N_FU_KINDS):
            if need[kind] and self.available(kind) < need[kind]:
                return False
        used = self._used
        for kind, stamp, latency, unpipelined in demands:
            used[kind] += 1
            if unpipelined:
                start = stamp if cycle is None else cycle
                self._reserved[kind].append(start + latency)
                self._n_reserved += 1
        self._dirty = True
        self.ops += len(demands)
        return True
