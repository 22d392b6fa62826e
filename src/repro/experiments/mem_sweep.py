"""Memory-system sweep — MSHR budget and prefetching vs IPC.

Not a paper figure: this exercises the axis the paper's memory argument
rests on. DRAM time is fixed in nanoseconds, so every cycle of miss
latency the memory system fails to hide is paid in core cycles — and
paid *proportionally more* by the faster trace-execution clock. The
sweep runs two deliberately memory-bound workloads through a ladder of
:class:`~repro.mem.MemorySpec` points on both the baseline and the
Flywheel:

* ``ideal`` — the golden default: unbounded miss overlap (the
  pre-MemorySpec behaviour, every miss pays only its own latency).
* ``blocking`` — ``mshrs=1``: one outstanding miss; independent misses
  serialize behind each other.
* ``mshr4`` / ``mshr8`` — bounded non-blocking miss handling.
* ``mshr8+nl`` — non-blocking plus a next-line prefetcher.

The shape to expect: ``stream_copy`` (independent strided misses) gains
IPC nearly linearly with MSHR budget and jumps again with the
prefetcher; ``pointer_chase`` (dependent random misses) gains little
from either — its loads serialize on the dependence chain, not the miss
file — which is exactly the MLP-vs-latency distinction a flat blocking
hierarchy cannot express. The ``nonblocking_wins`` column (mshr4 beats
blocking on IPC) is this PR's acceptance gate.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.report import cache_stats_rows, format_cache_stats
from repro.core.config import ClockPlan
from repro.core.registry import get_kind
from repro.core.sim import KIND_BASELINE, KIND_FLYWHEEL
from repro.experiments.common import ExperimentContext, Legs, print_table
from repro.mem import MemorySpec

#: The memory-bound workloads this sweep measures (its own set — the
#: SPEC-like profiles are cache-resident by design and barely move).
MEM_BENCHMARKS: Tuple[str, ...] = ("pointer_chase", "stream_copy")

#: Machine kinds swept; the Flywheel leg runs the paper's headline
#: clock so the faster back end's inflated DRAM cycles are in play.
KINDS: Tuple[str, ...] = (KIND_BASELINE, KIND_FLYWHEEL)

_FLY_CLOCK = ClockPlan(fe_speedup=1.0, be_speedup=0.5)

#: (label, MemorySpec-or-None) ladder; None is the golden default.
POINTS: Tuple[Tuple[str, object], ...] = (
    ("ideal", None),
    ("blocking", MemorySpec(mshrs=1)),
    ("mshr4", MemorySpec(mshrs=4)),
    ("mshr8", MemorySpec(mshrs=8)),
    ("mshr8+nl", MemorySpec(mshrs=8, prefetch="next_line")),
)


def legs(ctx: ExperimentContext) -> Legs:
    """Every (bench, kind, point) run of the sweep.

    The sweep measures its own :data:`MEM_BENCHMARKS`, whatever
    ``ctx.benchmarks`` says.
    """
    specs = {}
    for kind in KINDS:
        clock = _FLY_CLOCK if kind == KIND_FLYWHEEL else None
        for bench in MEM_BENCHMARKS:
            for label, mem in POINTS:
                config = None
                if mem is not None:
                    config = get_kind(kind).default_config().with_variant(
                        mem=mem)
                specs[bench, kind, label] = ctx.spec(
                    kind, bench, clock=clock, config=config)
    return specs


def run(ctx: ExperimentContext) -> List[Dict]:
    """IPC of every sweep point per (benchmark, kind) row.

    Each row carries ``nonblocking_wins``: True when the ``mshr4``
    point beats ``blocking`` on IPC — the memory-level parallelism the
    blocking hierarchy hides.
    """
    specs = legs(ctx)
    ctx.session.map(list(specs.values()))
    rows: List[Dict] = []
    for bench in MEM_BENCHMARKS:
        for kind in KINDS:
            row: Dict = {"benchmark": bench, "kind": kind}
            ipcs = {}
            for label, _mem in POINTS:
                result = ctx.session.run(specs[bench, kind, label])
                ipcs[label] = result.stats.ipc
                row[label] = result.stats.ipc
            row["nonblocking_wins"] = ipcs["mshr4"] > ipcs["blocking"]
            rows.append(row)
    return rows


def main(ctx: ExperimentContext = None) -> List[Dict]:
    ctx = ctx or ExperimentContext()
    rows = run(ctx)
    labels = [label for label, _mem in POINTS]
    print_table("Memory-system sweep: IPC per MemorySpec point "
                "(higher is better)",
                rows, ["benchmark", "kind"] + labels, fmt="{:>12}")
    winners = [f"{r['benchmark']}/{r['kind']}" for r in rows
               if r["nonblocking_wins"]]
    if winners:
        print(f"\nnon-blocking (mshr4) beats blocking on IPC for: "
              f"{', '.join(winners)}")
    else:
        print("\nno configuration saw non-blocking beat blocking "
              "(workloads not memory-bound at this budget)")
    # Show one per-level breakdown so the mechanism is visible.
    sample = ctx.session.run(
        legs(ctx)["stream_copy", KIND_BASELINE, "mshr8+nl"])
    level_rows = [{"level": r["level"], "accesses": r["accesses"],
                   "hit_rate": r["hit_rate"],
                   "prefetch": r.get("prefetches", ""),
                   "writeback": r.get("writebacks", ""),
                   "mshr_occ": r.get("occupancy_avg", ""),
                   "stalls": r.get("stall_cycles", "")}
                  for r in cache_stats_rows(sample.stats)]
    print_table("stream_copy mshr8+nl: per-level memory counters",
                level_rows, ["level", "accesses", "hit_rate", "prefetch",
                             "writeback", "mshr_occ", "stalls"])
    print(f"summary: {format_cache_stats(sample.stats)}")
    return rows


if __name__ == "__main__":
    main()
