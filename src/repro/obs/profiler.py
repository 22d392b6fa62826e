"""Self-profiler: wall-time per engine phase of the *simulator*.

Where the trace recorder watches the simulated machine, the profiler
watches the Python that simulates it: how many wall-clock seconds each
pipeline phase of the tick loop costs.  Its output is the target list
for the ROADMAP's compiled-hot-loop work, written next to
``BENCH_core.json`` by ``bench_sim_speed --profile`` and by
``python -m repro.obs profile``.

Every core kind runs one fused loop (``BaselineCore.run``,
``FlywheelCore.run``) on either engine. A fused loop has no per-stage
boundaries to clock, so it reports the two phases it actually has
(:data:`PHASES`):

``pool``   the instruction pool and rename plan the loop reads, plus
           the functional warmup
``loop``   the loop itself

and counts its executed ticks, which the report sets against the
simulated cycles: the gap is what the skip-aheads elided. Anything else
in the run (``other``) is setup before the loop's first timestamp and
the runner's snapshots after its last. :func:`profile_machine` builds
and runs the machine through :func:`repro.core.sim.build_core` and
:func:`repro.core.sim.run_core`, the path every run takes, so the
profiled run is the run a campaign executes.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, Optional

#: The buckets a fused loop stamps: building/warming the instruction
#: pool, and the loop.
PHASES = ("pool", "loop")


class PhaseProfile:
    """Accumulated wall seconds per :data:`PHASES` bucket of one run."""

    def __init__(self):
        self.seconds: Dict[str, float] = {ph: 0.0 for ph in PHASES}
        self.ticks = 0
        self.run_s = 0.0

    @property
    def other_s(self) -> float:
        """Run time outside every phase bucket."""
        return max(0.0, self.run_s - sum(self.seconds.values()))

    def to_dict(self) -> Dict[str, object]:
        total = self.run_s or 1.0
        return {
            "phases_s": {ph: round(s, 6) for ph, s in self.seconds.items()},
            "phase_frac": {ph: round(s / total, 4)
                           for ph, s in self.seconds.items()},
            "other_s": round(self.other_s, 6),
            "run_s": round(self.run_s, 6),
            "ticks": self.ticks,
        }


def install(core) -> PhaseProfile:
    """Attach phase timing to a core; must run before ``core.run()``.

    The profile is handed to the core's fused loop via ``core._prof``
    (a class attribute of every core kind), which stamps the
    ``pool``/``loop`` buckets itself. Raises ``TypeError`` for a core
    without that hook.
    """
    if not hasattr(core, "_prof"):
        raise TypeError(f"cannot profile {type(core).__name__}: "
                        "it has no fused loop's _prof hook")
    prof = PhaseProfile()
    core._prof = prof
    return prof


def profile_machine(kind: str, workload, config=None, fly=None, clock=None,
                    instructions: Optional[int] = None,
                    warmup: Optional[int] = None,
                    seed: Optional[int] = None,
                    mem_scale: float = 1.0) -> Dict[str, object]:
    """Run one machine with phase profiling; returns the profile report.

    The machine is the one :func:`repro.core.sim.execute_kind` would run
    with the same arguments, built and run by the same two functions;
    only the wall clock is watched more closely. The report's
    ``result`` is that run's :meth:`SimResult.to_dict`.
    """
    # Deferred import: like the render/trace modules, the profiler
    # stays importable without the core package.
    from repro.core.sim import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                build_core, get_kind, run_core)

    instructions = DEFAULT_INSTRUCTIONS if instructions is None else instructions
    warmup = DEFAULT_WARMUP if warmup is None else warmup
    core = build_core(kind, workload, config=config, fly=fly, clock=clock,
                      seed=seed, mem_scale=mem_scale)
    prof = install(core)
    t0 = perf_counter()
    result = run_core(core, kind, instructions, warmup)
    prof.run_s = perf_counter() - t0

    stats = result.stats
    cycles = stats.total_be_cycles
    return {
        "kind": kind,
        "workload": result.name,
        "instructions": instructions,
        "warmup": warmup,
        "cycles": cycles,
        # The front-end domain's simulated cycles on a dual-clock core (0
        # on one clock): the loop's ``ticks`` count both domains' ticks.
        "fe_cycles": (stats.fe_cycles_active + stats.fe_cycles_gated
                      if get_kind(kind).dual_clock else 0),
        "cycles_per_sec": round(cycles / prof.run_s, 1) if prof.run_s else 0.0,
        "profile": prof.to_dict(),
        "result": result.to_dict(),
    }


def write_profile(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_profile(report: Dict[str, object]) -> str:
    """Human-readable table for the CLI."""
    prof = report["profile"]
    lines = [
        f"{report['kind']}/{report['workload']}  "
        f"{report['cycles']} cycles in {prof['run_s']:.3f}s  "
        f"({report['cycles_per_sec']:.0f} cyc/s)",
    ]
    # Iterate the report's own buckets, not the module-level tuple.
    for ph in prof["phases_s"]:
        s = prof["phases_s"][ph]
        frac = prof["phase_frac"][ph]
        bar = "#" * int(round(frac * 40))
        lines.append(f"  {ph:<9} {s:8.3f}s  {frac:6.1%}  {bar}")
    lines.append(f"  {'other':<9} {prof['other_s']:8.3f}s")
    # Executed loop ticks against simulated cycles: the gap is what the
    # skip-aheads elided.
    simulated = report["cycles"] + report["fe_cycles"]
    lines.append(f"  ticks     {prof['ticks']} executed for {simulated} "
                 f"simulated cycles "
                 f"({prof['ticks'] / max(1, simulated):.1%})")
    return "\n".join(lines)
