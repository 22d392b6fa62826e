"""Observability CLI: ``python -m repro.obs <command>``.

``pipeview``
    Run one machine with the flight recorder armed and render a
    cycle x instruction Gantt for a cycle window.
``chrome``
    Same run, exported as Chrome trace-event JSON (open the file in
    ``about://tracing`` or ui.perfetto.dev).
``metrics``
    Run one machine and print its metric snapshot (``SimStats.metrics``).
``profile``
    Self-profile the simulator: wall seconds per engine phase, and the
    loop ticks it executed against the cycles it simulated.

Every command takes the same machine axes (``--kind``, ``--bench``,
``--instructions``, ``--warmup``, ``--seed``); budgets default to the
golden-stats sizes so a smoke invocation stays cheap. Bad input (an
unknown kind or benchmark, a negative warmup) ends in one ``error:``
line and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.sim import default_config, execute_kind, kind_names
from repro.errors import ReproError
from repro.obs.profiler import format_profile, profile_machine, write_profile
from repro.obs.render import chrome_trace, render_pipeview
from repro.obs.spec import EVENT_KINDS, TraceSpec


def _add_machine_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", default="baseline",
                     help=f"core kind, one of {', '.join(kind_names())} "
                          "(default: baseline)")
    sub.add_argument("--bench", default="gcc",
                     help="benchmark profile name (default: gcc)")
    sub.add_argument("--instructions", type=int, default=8000,
                     help="instruction budget (default: 8000)")
    sub.add_argument("--warmup", type=int, default=3000,
                     help="functional warmup instructions (default: 3000)")
    sub.add_argument("--seed", type=int, default=None,
                     help="workload generation seed")


def _add_trace_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--start", type=int, default=0,
                     help="first back-end cycle to record (default: 0)")
    sub.add_argument("--cycles", type=int, default=0,
                     help="record/render this many cycles from --start "
                          "(default: whole run)")
    sub.add_argument("--buffer", type=int, default=65536,
                     help="ring-buffer capacity in events (default: 65536)")
    sub.add_argument("--events", default="",
                     help="comma-separated event mask, subset of: "
                          + ",".join(EVENT_KINDS))


def _traced_result(args):
    """Run the requested machine with the recorder armed."""
    mask = tuple(k for k in args.events.split(",") if k)
    spec = TraceSpec(buffer=args.buffer, events=mask, start=args.start,
                     stop=(args.start + args.cycles) if args.cycles else 0)
    config = default_config(args.kind).with_variant(trace=spec)
    return execute_kind(args.kind, args.bench, config=config,
                        max_instructions=args.instructions,
                        warmup=args.warmup, seed=args.seed)


def _cmd_pipeview(args) -> int:
    result = _traced_result(args)
    events = result.trace["events"]
    stop = (args.start + args.cycles) if args.cycles else None
    print(f"{args.kind}/{args.bench}  "
          f"{result.trace['emitted']} events recorded, "
          f"{result.trace['dropped']} dropped")
    print(render_pipeview(events, start=args.start or None, stop=stop,
                          width=args.width, max_instrs=args.limit))
    return 0


def _cmd_chrome(args) -> int:
    result = _traced_result(args)
    payload = chrome_trace(result.trace["events"],
                           label=f"{args.kind}/{args.bench}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"wrote {len(payload['traceEvents'])} trace events -> {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    result = execute_kind(args.kind, args.bench,
                          max_instructions=args.instructions,
                          warmup=args.warmup, seed=args.seed)
    metrics = result.stats.metrics
    width = max((len(name) for name in metrics), default=0)
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        print(f"{name:<{width}}  {value}")
    return 0


def _cmd_profile(args) -> int:
    config = default_config(args.kind).with_variant(engine=args.engine)
    report = profile_machine(args.kind, args.bench, config=config,
                             instructions=args.instructions,
                             warmup=args.warmup, seed=args.seed)
    print(format_profile(report))
    if args.out:
        write_profile(report, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Flight-recorder tooling: pipeview, Chrome traces, "
                    "metric snapshots, simulator self-profiles.")
    subs = parser.add_subparsers(dest="command", required=True)

    pipeview = subs.add_parser("pipeview",
                               help="render a cycle x instruction Gantt")
    _add_machine_args(pipeview)
    _add_trace_args(pipeview)
    pipeview.add_argument("--width", type=int, default=100,
                          help="Gantt width in columns (default: 100)")
    pipeview.add_argument("--limit", type=int, default=48,
                          help="max instruction rows (default: 48)")
    pipeview.set_defaults(fn=_cmd_pipeview)

    chrome = subs.add_parser("chrome",
                             help="export a Chrome trace-event JSON file")
    _add_machine_args(chrome)
    _add_trace_args(chrome)
    chrome.add_argument("--out", default="trace.json",
                        help="output path (default: trace.json)")
    chrome.set_defaults(fn=_cmd_chrome)

    metrics = subs.add_parser("metrics", help="print the metric snapshot")
    _add_machine_args(metrics)
    metrics.set_defaults(fn=_cmd_metrics)

    profile = subs.add_parser("profile",
                              help="wall-time per engine phase")
    _add_machine_args(profile)
    profile.add_argument("--engine", choices=("legacy", "turbo"),
                         default=None,
                         help="instruction pool of the profiled run: "
                              "turbo's cached one or legacy's private one "
                              "(default: the default engine, as campaigns "
                              "run; either reports pool/loop buckets)")
    profile.add_argument("--out", default="",
                         help="also write the JSON report here")
    profile.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly the way
        # well-behaved Unix filters do.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
