"""Per-architected-register physical pools (Sections 3.4-3.5).

The Flywheel register file dedicates a circular pool of physical entries to
every architected register. A write always allocates the next entry of its
own pool, which removes false dependencies without a global free list and —
crucially — makes the mapping reproducible when traces replay from the
Execution Cache.

Capacity rule: a pool of size ``S`` can hold the last committed value plus
at most ``S - 1`` in-flight (not yet retired) writes; allocating beyond
that stalls Rename (trace creation) or the EC dispatch (trace execution).
These stalls are the "limited rename capacity" cost the paper measures in
Fig. 11, and what redistribution (Section 3.5, [12]) relieves.

The per-instruction accounting (the capacity check, the in-flight count
and high-water mark, the release at retirement and its underflow guard)
is written inline in :meth:`repro.core.flywheel.FlywheelCore.run`; this
class holds the geometry, the in-flight counts and the stall history.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError, SimulationError
from repro.isa.registers import NUM_ARCH_REGS


def check_min_pool_size(min_pool_size: int) -> None:
    """Reject pools that redistribution could shrink below two entries.

    By the capacity rule a one-entry pool holds only the last committed
    value, so its register could never be written again: the run would
    stall until the deadlock watchdog fires.
    """
    if min_pool_size < 2:
        raise ConfigError(
            f"min_pool_size must be >= 2, got {min_pool_size}: a one-entry "
            "pool admits no in-flight write to its register")


class PoolFile:
    """Pool geometry + in-flight accounting for the Flywheel register file."""

    def __init__(self, total_regs: int, default_pool_size: int,
                 min_pool_size: int = 2, max_pool_size: int = 32):
        if default_pool_size * NUM_ARCH_REGS != total_regs:
            raise ConfigError(
                f"{total_regs} physical registers do not divide evenly into "
                f"{NUM_ARCH_REGS} pools of {default_pool_size}"
            )
        check_min_pool_size(min_pool_size)
        if not min_pool_size <= default_pool_size <= max_pool_size:
            raise ConfigError("pool size bounds are inconsistent")
        self.total_regs = total_regs
        self.min_pool_size = min_pool_size
        self.max_pool_size = max_pool_size
        self.sizes: List[int] = [default_pool_size] * NUM_ARCH_REGS
        self.bases: List[int] = [0] * NUM_ARCH_REGS
        self._recompute_bases()
        self.inflight: List[int] = [0] * NUM_ARCH_REGS
        #: rename stalls attributed to each architected register, consumed
        #: by the redistribution controller and reset at each check.
        self.stall_counts: List[int] = [0] * NUM_ARCH_REGS
        #: per-interval high-water mark of in-flight writes (the "history
        #: of the renaming constraints" of [12]); a stall means demand
        #: exceeded the pool, so the mark is pushed past the current size.
        self.highwater: List[int] = [0] * NUM_ARCH_REGS

    def _recompute_bases(self) -> None:
        base = 0
        for arch in range(NUM_ARCH_REGS):
            self.bases[arch] = base
            base += self.sizes[arch]
        if base != self.total_regs:
            raise SimulationError("pool sizes no longer sum to the file size")

    # ----------------------------------------------------- stall history

    def note_stall(self, arch: int, n: int = 1) -> None:
        """Count ``n`` rename stalls (one per stalled cycle) on ``arch``."""
        self.stall_counts[arch] += n
        # Demand provably exceeds the pool; push the mark past it so the
        # redistribution sizes from actual need, not the current ceiling.
        want = self.sizes[arch] + 4
        if self.highwater[arch] < want:
            self.highwater[arch] = want

    # --------------------------------------------------- redistribution

    def apply_sizes(self, new_sizes: List[int]) -> None:
        """Install a new pool geometry (only valid with no in-flight work)."""
        if any(self.inflight):
            raise SimulationError("cannot resize pools with in-flight writes")
        if len(new_sizes) != NUM_ARCH_REGS:
            raise ConfigError("need one pool size per architected register")
        if sum(new_sizes) != self.total_regs:
            raise ConfigError("new pool sizes must sum to the file size")
        for size in new_sizes:
            if not self.min_pool_size <= size <= self.max_pool_size:
                raise ConfigError(f"pool size {size} out of bounds")
        self.sizes = list(new_sizes)
        self._recompute_bases()
