"""Synthetic workload substrate.

The paper evaluates on SPEC95/SPEC2000 binaries, which are not available
here. This package builds the closest synthetic equivalent: seeded static
programs (control-flow graphs with loop nests, calls, biased and random
branches, and typed memory regions) plus an architectural walker that
executes them, producing the dynamic instruction stream consumed by the
cycle-level cores.

Each benchmark the paper reports (ijpeg, gcc, gzip, vpr, mesa, equake,
parser, vortex, bzip2, turb3d) has a :class:`WorkloadProfile` calibrated to
the characteristics the paper's results depend on: instruction-level
parallelism, branch predictability, code footprint (trace locality), memory
working set, FP mix, and rename-pool pressure.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.cfg": ("Region", "BasicBlock", "Program"),
    "repro.workloads.profiles": (
        "WorkloadProfile", "PROFILES", "SPEC_NAMES", "get_profile"),
    "repro.workloads.generator": ("ProgramGenerator", "generate_program"),
    "repro.workloads.stream": ("InstructionStream",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Region",
    "BasicBlock",
    "Program",
    "WorkloadProfile",
    "PROFILES",
    "SPEC_NAMES",
    "get_profile",
    "ProgramGenerator",
    "generate_program",
    "InstructionStream",
]
