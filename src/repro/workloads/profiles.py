"""Per-benchmark workload profiles.

Each profile is calibrated to the characteristic behaviour of the SPEC
benchmark it stands in for, as far as those characteristics matter to the
paper's experiments:

* **ILP / dependence depth** (``serial_frac``) — drives how much a larger,
  faster-filled issue window helps (Fig. 12's super-linear scaling).
* **Branch predictability** (``random_branch_frac``, ``biased_taken_prob``)
  — drives mispredict rate, hence trace length and front-end restarts.
* **Code footprint** (``num_funcs``, ``blocks_per_func``) — drives I-cache
  and Execution Cache locality; ``vortex`` is the paper's low-residency
  outlier (<60% time on the EC path).
* **Rename-pool pressure** (``hot_dest_bias``) — repeated writes to few
  architected registers stall the pool-based renamer (Fig. 11's >10% loss
  on gzip/vpr/parser).
* **Memory behaviour** (region sizes and access mix) — L1/L2/DRAM rates.
* **FP mix** (``fp_frac``) — mesa/equake/turb3d are FP codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of a synthetic benchmark."""

    name: str

    # --- static code shape -------------------------------------------------
    num_funcs: int = 8                       # functions called by dispatcher
    blocks_per_func: Tuple[int, int] = (3, 6)
    instrs_per_block: Tuple[int, int] = (6, 12)
    inner_loop_prob: float = 0.5             # chance a function has an inner loop
    diamond_prob: float = 0.5                # chance of an if/else diamond
    loop_trip: Tuple[int, int] = (8, 64)     # trip counts of loops

    # --- instruction mix (fractions of non-branch slots) --------------------
    fp_frac: float = 0.0
    load_frac: float = 0.25
    store_frac: float = 0.10
    mul_frac: float = 0.04
    div_frac: float = 0.01

    # --- dependence structure ----------------------------------------------
    serial_frac: float = 0.35       # src = most recent dest (chain-forming)
    acc_frac: float = 0.0           # loop-carried accumulator updates (study knob)
    hot_dest_bias: float = 0.15     # dest drawn from small hot set
    hot_dest_count: int = 3         # size of the hot destination set
    #: Fraction of loads whose address register is the previous
    #: instruction's destination — pointer chasing: each such load
    #: cannot issue until its predecessor completes, so its miss
    #: latency serializes regardless of MSHR budget. 0.0 keeps the
    #: historical generator RNG stream untouched.
    dep_load_frac: float = 0.0

    # --- branch behaviour ---------------------------------------------------
    random_branch_frac: float = 0.25  # fraction of diamonds that are 50/50
    biased_taken_prob: float = 0.92   # takenness of biased diamonds

    # --- memory behaviour ----------------------------------------------------
    hot_region_kb: int = 16           # fits in L1
    warm_region_kb: int = 192         # fits in L2, misses L1
    cold_region_kb: int = 16384       # misses everything
    hot_frac: float = 0.80            # fraction of accesses to hot region
    warm_frac: float = 0.15           # ... to warm region (rest go cold)
    random_access_frac: float = 0.20  # random (vs strided) within region
    mem_stride: int = 8               # bytes per sequential access
    #: Strided accesses share one cursor per region (a copy/scan kernel
    #: marching its buffers) instead of one per static instruction —
    #: sustained sequential miss traffic for the memory experiments.
    stream_mem: bool = False

    def __post_init__(self) -> None:
        # Normalize list-spelled ranges so every profile is hashable and
        # equal profiles key the same shared program (repro.core.sim).
        for name in ("blocks_per_func", "instrs_per_block", "loop_trip"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        fracs = (
            self.fp_frac, self.load_frac, self.store_frac, self.mul_frac,
            self.div_frac, self.serial_frac, self.hot_dest_bias,
            self.acc_frac, self.dep_load_frac,
            self.random_branch_frac, self.hot_frac, self.warm_frac,
            self.random_access_frac,
        )
        for f in fracs:
            if not 0.0 <= f <= 1.0:
                raise WorkloadError(f"profile {self.name}: fraction {f} out of range")
        if self.hot_frac + self.warm_frac > 1.0:
            raise WorkloadError(f"profile {self.name}: hot+warm fractions exceed 1")
        if self.num_funcs < 1:
            raise WorkloadError(f"profile {self.name}: needs at least one function")
        for lo, hi in (self.blocks_per_func, self.instrs_per_block, self.loop_trip):
            if lo < 1 or hi < lo:
                raise WorkloadError(f"profile {self.name}: bad range ({lo},{hi})")


def _p(**kw) -> WorkloadProfile:
    return WorkloadProfile(**kw)


#: The ten benchmarks reported in the paper (SPEC95 + SPEC2000), in the
#: order they appear on the x-axes of Figs. 2 and 11-15.
SPEC_NAMES = (
    "ijpeg", "gcc", "gzip", "vpr", "mesa",
    "equake", "parser", "vortex", "bzip2", "turb3d",
)

PROFILES: Dict[str, WorkloadProfile] = {
    # Image compression: small loopy kernels, very predictable, high ILP.
    "ijpeg": _p(
        name="ijpeg", num_funcs=6, blocks_per_func=(3, 5),
        instrs_per_block=(8, 14), inner_loop_prob=0.8, diamond_prob=0.3,
        loop_trip=(16, 96), serial_frac=0.22, hot_dest_bias=0.05,
        random_branch_frac=0.10, hot_frac=0.86, warm_frac=0.12,
        random_access_frac=0.05, load_frac=0.28, store_frac=0.12,
        mul_frac=0.08,
    ),
    # Compiler: big code footprint, branchy, hard-to-predict, pointer-chasing.
    "gcc": _p(
        name="gcc", num_funcs=40, blocks_per_func=(4, 9),
        instrs_per_block=(4, 9), inner_loop_prob=0.35, diamond_prob=0.8,
        loop_trip=(4, 24), serial_frac=0.40, hot_dest_bias=0.10,
        random_branch_frac=0.40, hot_frac=0.72, warm_frac=0.24,
        random_access_frac=0.25, load_frac=0.30, store_frac=0.12,
    ),
    # Compression: data-dependent branches, tight int loops, hot registers.
    "gzip": _p(
        name="gzip", num_funcs=7, blocks_per_func=(3, 6),
        instrs_per_block=(5, 10), inner_loop_prob=0.7, diamond_prob=0.7,
        loop_trip=(12, 64), serial_frac=0.45, hot_dest_bias=0.30,
        hot_dest_count=2, random_branch_frac=0.35, hot_frac=0.76,
        warm_frac=0.21, random_access_frac=0.25, load_frac=0.30,
        store_frac=0.12,
    ),
    # FPGA place & route: long serial chains, unpredictable, pool pressure.
    "vpr": _p(
        name="vpr", num_funcs=12, blocks_per_func=(3, 7),
        instrs_per_block=(4, 8), inner_loop_prob=0.5, diamond_prob=0.8,
        loop_trip=(6, 32), serial_frac=0.60, hot_dest_bias=0.32,
        hot_dest_count=2, random_branch_frac=0.45, hot_frac=0.66,
        warm_frac=0.29, random_access_frac=0.30, load_frac=0.32,
        store_frac=0.10, fp_frac=0.10,
    ),
    # 3D graphics: FP heavy, loopy, predictable, high ILP.
    "mesa": _p(
        name="mesa", num_funcs=8, blocks_per_func=(3, 5),
        instrs_per_block=(8, 14), inner_loop_prob=0.85, diamond_prob=0.25,
        loop_trip=(24, 128), serial_frac=0.20, hot_dest_bias=0.04,
        random_branch_frac=0.08, fp_frac=0.45, hot_frac=0.84,
        warm_frac=0.14, random_access_frac=0.08, load_frac=0.28,
        store_frac=0.14, mul_frac=0.06,
    ),
    # Seismic FP simulation: long vector-ish loops, big data, predictable.
    "equake": _p(
        name="equake", num_funcs=5, blocks_per_func=(2, 4),
        instrs_per_block=(10, 16), inner_loop_prob=0.9, diamond_prob=0.15,
        loop_trip=(32, 160), serial_frac=0.18, hot_dest_bias=0.04,
        random_branch_frac=0.05, fp_frac=0.50, hot_frac=0.66,
        warm_frac=0.29, random_access_frac=0.10, load_frac=0.34,
        store_frac=0.12, mul_frac=0.08,
    ),
    # NL parser: pointer chasing, serial, branchy, hot destination regs.
    "parser": _p(
        name="parser", num_funcs=18, blocks_per_func=(3, 7),
        instrs_per_block=(4, 8), inner_loop_prob=0.4, diamond_prob=0.85,
        loop_trip=(4, 20), serial_frac=0.62, hot_dest_bias=0.30,
        hot_dest_count=2, random_branch_frac=0.42, hot_frac=0.66,
        warm_frac=0.29, random_access_frac=0.35, load_frac=0.34,
        store_frac=0.10,
    ),
    # OO database: enormous code footprint, call-heavy, moderate branches.
    "vortex": _p(
        name="vortex", num_funcs=60, blocks_per_func=(4, 9),
        instrs_per_block=(5, 10), inner_loop_prob=0.25, diamond_prob=0.7,
        loop_trip=(3, 12), serial_frac=0.35, hot_dest_bias=0.08,
        random_branch_frac=0.12, hot_frac=0.62, warm_frac=0.33,
        random_access_frac=0.25, load_frac=0.32, store_frac=0.16,
    ),
    # Compression: like gzip but larger blocks and working set.
    "bzip2": _p(
        name="bzip2", num_funcs=8, blocks_per_func=(3, 6),
        instrs_per_block=(6, 11), inner_loop_prob=0.7, diamond_prob=0.65,
        loop_trip=(16, 96), serial_frac=0.42, hot_dest_bias=0.25,
        random_branch_frac=0.30, hot_frac=0.70, warm_frac=0.26,
        random_access_frac=0.25, load_frac=0.30, store_frac=0.13,
    ),
    # Turbulence FP code: deep loop nests, predictable, high ILP.
    "turb3d": _p(
        name="turb3d", num_funcs=6, blocks_per_func=(2, 4),
        instrs_per_block=(9, 15), inner_loop_prob=0.9, diamond_prob=0.15,
        loop_trip=(24, 128), serial_frac=0.20, hot_dest_bias=0.04,
        random_branch_frac=0.06, fp_frac=0.48, hot_frac=0.78,
        warm_frac=0.19, random_access_frac=0.06, load_frac=0.30,
        store_frac=0.13, mul_frac=0.08,
    ),
}

#: Memory-bound profiles for the memory-system experiments (not part of
#: the paper's SPEC set, so they stay out of SPEC_NAMES and the figure
#: sweeps). ``pointer_chase`` is latency-bound: mostly-random loads over
#: a DRAM-sized region with a heavy dependent-load chain, so each miss
#: serializes behind its predecessor and MSHR overlap buys little —
#: what helps is the raw miss path. ``stream_copy`` is bandwidth-bound:
#: strided, independent loads/stores marching through a cold region, so
#: misses are plentiful *and* parallel — non-blocking MSHRs and the
#: next-line/stride prefetchers pay off directly.
PROFILES["pointer_chase"] = _p(
    name="pointer_chase", num_funcs=4, blocks_per_func=(2, 4),
    instrs_per_block=(6, 10), inner_loop_prob=0.7, diamond_prob=0.3,
    loop_trip=(16, 64), load_frac=0.45, store_frac=0.05,
    serial_frac=0.55, dep_load_frac=0.8, hot_dest_bias=0.05,
    random_branch_frac=0.10, hot_frac=0.06, warm_frac=0.14,
    cold_region_kb=65536, random_access_frac=0.9,
)
PROFILES["stream_copy"] = _p(
    name="stream_copy", num_funcs=3, blocks_per_func=(2, 3),
    instrs_per_block=(8, 14), inner_loop_prob=0.9, diamond_prob=0.1,
    loop_trip=(32, 160), load_frac=0.38, store_frac=0.27,
    serial_frac=0.15, hot_dest_bias=0.04, random_branch_frac=0.05,
    hot_frac=0.02, warm_frac=0.03, cold_region_kb=131072,
    random_access_frac=0.0, stream_mem=True,
)

#: A tiny, fast profile for unit tests and smoke runs.
PROFILES["smoke"] = _p(
    name="smoke", num_funcs=2, blocks_per_func=(2, 3),
    instrs_per_block=(4, 6), inner_loop_prob=0.5, diamond_prob=0.5,
    loop_trip=(4, 8),
)


def get_profile(name: str) -> WorkloadProfile:
    """Look up a profile by benchmark name.

    Raises :class:`WorkloadError` for unknown names, listing valid ones.
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None
