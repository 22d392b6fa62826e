"""Self-profiler: wall-time per engine phase of the *simulator*.

Where the trace recorder watches the simulated machine, the profiler
watches the Python that simulates it: how many wall-clock seconds each
pipeline phase of the tick loop costs.  Its output is the target list
for the ROADMAP's compiled-hot-loop work, written next to
``BENCH_core.json`` by ``bench_sim_speed --profile`` and by
``python -m repro.obs profile``.

Phase buckets (mapping the frontend/schedule/exec/mem/retire phases of
the engine onto the code that implements them):

``frontend``   fetch + decode (I-cache model, branch prediction)
``rename``     register renaming
``dispatch``   ROB/LSQ/window admission
``schedule``   wake-up/select plus execution scheduling — includes the
               D-cache/MSHR model, which is invoked at load scheduling
``backend``    the engine tick: FU bookkeeping, writeback broadcast,
               in-order retire (and store D-cache traffic at commit)

The Flywheel has one fused loop on both engines, so it always reports
the turbo buckets (:data:`TURBO_PHASES`); on the legacy engine its
``pool`` bucket covers only the functional warmup.

The synchronous cores are profiled through a *mirrored* step function
installed as an instance attribute: ``BaselineCore.run`` calls
``self.step()``, so the shadow takes over without touching the hot
loop for unprofiled runs.  The mirror must stay in lockstep with
``BaselineCore.step`` — ``tests/test_obs.py`` pins equal stats from a
profiled and an unprofiled run.  Anything left of the run loop that no
bucket claims (skip-ahead analysis, watchdog polling, the loop itself)
shows up as ``other``, which is itself a useful number.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, Optional

PHASES = ("frontend", "rename", "dispatch", "schedule", "backend")

#: A fused loop's buckets (the turbo backend, and the Flywheel on either
#: engine): it has no per-stage boundaries to clock, so it reports the
#: two phases it actually has — building/warming the instruction pool,
#: and the loop.
TURBO_PHASES = ("pool", "loop")


class PhaseProfile:
    """Accumulated wall seconds per engine phase of one run.

    ``phases`` is per-instance: the legacy single-clock loop buckets by
    pipeline stage (:data:`PHASES`), every fused loop by
    :data:`TURBO_PHASES`.
    """

    def __init__(self, phases=PHASES):
        self.phases = tuple(phases)
        self.seconds: Dict[str, float] = {ph: 0.0 for ph in self.phases}
        self.ticks = 0
        self.warmup_s = 0.0
        self.run_s = 0.0

    @property
    def other_s(self) -> float:
        """Run-loop time outside every phase bucket (skip-ahead
        analysis, watchdog polling, loop overhead)."""
        return max(0.0, self.run_s - sum(self.seconds.values()))

    def to_dict(self) -> Dict[str, object]:
        total = self.run_s or 1.0
        return {
            "phases_s": {ph: round(s, 6) for ph, s in self.seconds.items()},
            "phase_frac": {ph: round(s / total, 4)
                           for ph, s in self.seconds.items()},
            "other_s": round(self.other_s, 6),
            "warmup_s": round(self.warmup_s, 6),
            "run_s": round(self.run_s, 6),
            "ticks": self.ticks,
        }


def _profiled_sync_step(core, prof, pc=perf_counter):
    """Mirror of :meth:`BaselineCore.step` with per-phase timestamps.

    Must perform exactly the same stage calls under exactly the same
    guards; the stats-equivalence test in tests/test_obs.py enforces it.
    """
    seconds = prof.seconds

    def step():
        c = core.cycle
        t0 = pc()
        core.be.tick(c, core.mem_scale)
        t1 = pc()
        seconds["backend"] += t1 - t0
        if core.iw._count and not (core._wakeup_gate and (c & 1)):
            core._do_issue(c)
        t2 = pc()
        seconds["schedule"] += t2 - t1
        if core._rename_out:
            core._do_dispatch(c)
        t3 = pc()
        seconds["dispatch"] += t3 - t2
        if core._decode_out:
            core._do_rename(c)
        t4 = pc()
        seconds["rename"] += t4 - t3
        if core._fetch_out:
            core.fe.decode(c)
        if not core._fetch_blocked and c >= core._fetch_resume_cycle:
            core._do_fetch(c)
        seconds["frontend"] += pc() - t4
        core.cycle = c + 1
        prof.ticks += 1

    return step


def install(core) -> PhaseProfile:
    """Attach phase timing to a core; must run before ``core.run()``.

    A single-clock core on the legacy engine exposes ``step`` (called
    by its run loop from ``self``, so an instance-attribute shadow takes
    effect) and is profiled per stage. Every fused loop — the turbo
    engine of any kind, and the Flywheel on either engine (a core class
    declaring ``_turbo_prof``) — has no stage boundaries to clock: the
    profile is handed to the loop via ``core._turbo_prof``, which stamps
    the ``pool``/``loop`` buckets itself. Raises ``TypeError`` for a
    legacy-engine core offering neither.
    """
    engine = getattr(getattr(core, "config", None), "engine", "legacy")
    if engine == "legacy" and hasattr(core, "step"):
        prof = PhaseProfile()
        core.step = _profiled_sync_step(core, prof)
        return prof
    if engine != "legacy" or hasattr(core, "_turbo_prof"):
        prof = PhaseProfile(TURBO_PHASES)
        core._turbo_prof = prof
        return prof
    raise TypeError(
        f"cannot profile {type(core).__name__}: exposes neither "
        "step() nor a fused loop's _turbo_prof hook")


def profile_machine(kind: str, workload, config=None, fly=None, clock=None,
                    instructions: Optional[int] = None,
                    warmup: Optional[int] = None,
                    seed: Optional[int] = None,
                    mem_scale: float = 1.0) -> Dict[str, object]:
    """Run one machine with phase profiling; returns the profile report.

    Follows the built-in runners' construction contract (kind registry,
    default config/clock, functional warmup), so the simulated machine
    is the same one ``Session.run`` would produce — only the wall clock
    is watched more closely.
    """
    # Deferred imports: repro.core.sim imports nothing from repro.obs,
    # but keeping the profiler importable without the core package costs
    # nothing and mirrors the render/trace modules' independence.
    from repro.core.config import ClockPlan, FlywheelConfig
    from repro.core.registry import get_kind
    from repro.core.sim import (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP,
                                _resolve_workload)
    from repro.workloads import InstructionStream

    info = get_kind(kind)
    config = config or info.default_config()
    clock = clock or ClockPlan()
    instructions = DEFAULT_INSTRUCTIONS if instructions is None else instructions
    warmup = DEFAULT_WARMUP if warmup is None else warmup
    program = _resolve_workload(workload, seed)
    stream = InstructionStream(program)
    if info.dual_clock:
        fly = fly or FlywheelConfig()
        core = info.core_cls(config, fly, clock, stream,
                             mem_scale=mem_scale)
    else:
        core = info.core_cls(config, stream, mem_scale=mem_scale,
                             clock=clock)
    prof = install(core)

    t0 = perf_counter()
    if warmup:
        core._functional_warmup(warmup)
        if core.dvfs is not None:
            core.dvfs.reset_baseline(core)
    t1 = perf_counter()
    stats = core.run(instructions, warmup=0)
    prof.run_s = perf_counter() - t1
    prof.warmup_s = t1 - t0

    cycles = stats.total_be_cycles
    report = {
        "kind": kind,
        "workload": program.name,
        "instructions": instructions,
        "warmup": warmup,
        "cycles": cycles,
        "cycles_per_sec": round(cycles / prof.run_s, 1) if prof.run_s else 0.0,
        "profile": prof.to_dict(),
    }
    return report


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
        f"  warmup: {prof['warmup_s']:.3f}s",
    ]
    # Iterate the report's own buckets (legacy stage phases or the turbo
    # backend's pool/loop), not the module-level tuple.
    for ph in prof["phases_s"]:
        s = prof["phases_s"][ph]
        frac = prof["phase_frac"][ph]
        bar = "#" * int(round(frac * 40))
        lines.append(f"  {ph:<9} {s:8.3f}s  {frac:6.1%}  {bar}")
    lines.append(f"  {'other':<9} {prof['other_s']:8.3f}s")
    return "\n".join(lines)
