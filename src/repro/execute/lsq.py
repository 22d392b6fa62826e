"""Load/store queue occupancy model (64 entries, Table 2).

The simulator does not track data values, so the LSQ models the structural
resource: dispatch stalls when it is full and entries are released at
commit. Memory-ordering violations are out of scope (loads never replay);
this is a documented simplification shared with many performance models.
"""

from __future__ import annotations

from repro.errors import SimulationError


class LoadStoreQueue:
    """Simple occupancy counter with capacity semantics."""

    def __init__(self, entries: int):
        self.capacity = entries
        self._count = 0
        self.inserts = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    def insert(self) -> None:
        if self.full:
            raise SimulationError("LSQ overflow")
        self._count += 1
        self.inserts += 1

    def release(self) -> None:
        if self._count <= 0:
            raise SimulationError("LSQ underflow")
        self._count -= 1
