"""CLI for the campaign engine: run, inspect and manage the result store.

Usage::

    python -m repro.campaign run --experiments all --jobs 4
    python -m repro.campaign run --experiments fig12,fig13 --seed 7
    python -m repro.campaign ls [--limit 20] [--kind K] [--bench B] [--json]
    python -m repro.campaign resume [<campaign-id>]
    python -m repro.campaign migrate
    python -m repro.campaign diff latest prev [--html report.html]
    python -m repro.campaign diff base_mhz=400 base_mhz=600 --serve 8000
    python -m repro.campaign export --csv results.csv
    python -m repro.campaign export --json results.json
    python -m repro.campaign clean [--stale]

``run`` expands the named experiments into a deduplicated job list,
executes the misses in parallel, memoizes everything in the store, and
then prints the experiments' tables from the warmed cache. A repeated
``run`` resolves entirely from the store (the summary line reports the
hit/miss counters). The store lives at ``~/.cache/repro-campaign`` by
default (``REPRO_CAMPAIGN_DIR`` or ``--store`` override it).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from repro.campaign.executor import print_progress
from repro.campaign.spec import RunSpec
from repro.campaign.store import (ResultStore, default_store_root,
                                  mem_label, record_engine)
from repro.core.stats import SimStats
from repro.errors import ReproError


def _spec_variant(spec_payload) -> str:
    """`k=v` summary of a stored spec's non-default config axes, or ''.

    Best-effort: records from other code versions may not reconstruct.
    """
    try:
        variant = RunSpec.from_dict(spec_payload).variant()
    except Exception:
        return ""
    return ";".join(f"{k}={v}" for k, v in variant.items())


def _cache_rate(stats_payload, level: str):
    """Demand hit rate of one level from a serialized stats dict, or ''."""
    counters = (stats_payload.get("cache_stats") or {}).get(level)
    if not counters:
        return ""
    accesses = counters.get("accesses", 0)
    return round(counters.get("hits", 0) / accesses, 6) if accesses else ""


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="DIR",
                        help=f"store directory (default: "
                             f"{default_store_root()})")


def _store(args) -> ResultStore:
    return ResultStore(args.store) if args.store else ResultStore()


def _cmd_diff(args) -> int:
    from repro.campaign.diff import cmd_diff

    return cmd_diff(args)


def _cmd_run(args) -> int:
    from repro.campaign.presets import experiment_legs
    from repro.experiments.__main__ import (
        ALL_ORDER,
        build_context,
        print_experiments,
        warm_experiments,
    )

    # Unknown names raise CampaignError from experiment_legs (inside
    # warm_experiments too) and are reported by main()'s handler.
    names = (list(ALL_ORDER) if args.experiments == "all"
             else [n.strip() for n in args.experiments.split(",") if n.strip()])
    args.store = args.store or str(default_store_root())
    ctx = build_context(args)
    if args.dry_run:
        specs = experiment_legs(ctx, names)
        hits = 0
        for spec in specs:
            key = spec.cache_key()
            hit = key in ctx.store
            hits += hit
            print(f"{key[:12]}  {'hit ' if hit else 'miss'}  {spec.label}")
        print(f"{len(specs)} jobs: {hits} cached, {len(specs) - hits} to "
              f"simulate (store: {ctx.store.root})", file=sys.stderr)
        return 0

    report = warm_experiments(ctx, names, jobs=args.jobs,
                              timeout=args.timeout,
                              progress=None if args.quiet else print_progress)
    print(f"campaign: {report.summary()} "
          f"(store: {ctx.store.hits} hits / {ctx.store.misses} misses)",
          file=sys.stderr)

    if not args.no_tables:
        print_experiments(ctx, names)
        if ctx.executed:
            print(f"note: experiments ran {ctx.executed} simulation(s) the "
                  "campaign presets missed", file=sys.stderr)
    return 0


def _ls_summary(record) -> dict:
    """Flat, JSON-safe summary of one store record (for ``ls --json``)."""
    spec = record.get("spec", {})
    stats = SimStats.from_dict(record["result"].get("stats", {}))
    clock = spec.get("clock") or {}
    governor = clock.get("governor") or {}
    return {
        "key": record.get("key", ""),
        "created": record.get("created", 0),
        "code": record.get("code", ""),
        "engine": record_engine(record),
        "kind": spec.get("kind", ""),
        "bench": spec.get("bench", ""),
        "seed": spec.get("seed"),
        "instructions": spec.get("instructions"),
        "warmup": spec.get("warmup"),
        "mem_scale": spec.get("mem_scale"),
        "base_mhz": clock.get("base_mhz"),
        "fe_speedup": clock.get("fe_speedup"),
        "be_speedup": clock.get("be_speedup"),
        "governor": governor.get("name"),
        "mem": mem_label(spec),
        "variant": _spec_variant(spec),
        "committed": stats.committed,
        "cycles": stats.total_be_cycles,
        "ipc": stats.ipc,
        "sim_time_ps": stats.sim_time_ps,
        "dvfs_retunes": stats.dvfs_retunes,
        "elapsed_s": record.get("elapsed_s"),
    }


def _ls_line(summary: dict) -> str:
    """Human-readable listing line, rendered from an ``_ls_summary``."""
    if summary.get("damaged"):
        return f"{summary['key'][:12]}  <damaged record>"
    created = time.strftime("%Y-%m-%d %H:%M",
                            time.localtime(summary["created"]))
    gov = summary["governor"]
    mem = summary.get("mem")
    variant = summary["variant"]
    elapsed = summary.get("elapsed_s")
    # One format path for both cases: render value+unit first, then pad
    # to a fixed column — the old per-branch f-strings drifted apart
    # (None vs >=1000s rows padded to different widths).
    elapsed_txt = f"{elapsed:.2f}s" if elapsed is not None else "-"
    return (f"{summary['key'][:12]}  {created}  "
            f"code={summary['code']}  n={summary['instructions']}  "
            f"ipc={summary['ipc']:5.2f}  "
            f"elapsed={elapsed_txt:>8}  "
            + f"{summary['kind']}/{summary['bench']}"
            + (f"  gov={gov}" if gov else "")
            + (f"  mem={mem}" if mem else "")
            + (f"  [{variant}]" if variant else ""))


def _cmd_ls(args) -> int:
    import json

    store = _store(args)
    shown = 0
    summaries = []
    # One parse path for both output modes: damaged records stay visible
    # (and the counts honest) in JSON too.
    for record in store.records(kind=args.kind, bench=args.bench,
                                limit=args.limit):
        try:
            summary = _ls_summary(record)
        except (KeyError, TypeError, ValueError, AttributeError):
            summary = {"key": record.get("key", ""), "damaged": True}
        if args.json:
            summaries.append(summary)
        else:
            print(_ls_line(summary))
        shown += 1
    if args.json:
        json.dump(summaries, sys.stdout, indent=2, sort_keys=True)
        print()
    filters = "".join(f" {ax}={val}" for ax, val in
                      (("kind", args.kind), ("bench", args.bench)) if val)
    print(f"{shown} of {len(store)} record(s){filters} in {store.root}",
          file=sys.stderr)
    return 0


def _print_campaign_event(event) -> None:
    """Progress line for one scheduler :class:`SessionEvent`."""
    prefix = f"[{event.done}/{event.total}]"
    if event.event == "plan":
        print(f"{prefix} campaign planned: {event.total} job(s)",
              file=sys.stderr, flush=True)
    elif event.event == "result":
        label = event.spec.label if event.spec is not None else "?"
        print(f"{prefix} {label}  ({event.source})",
              file=sys.stderr, flush=True)
    elif event.event == "quarantine":
        label = event.spec.label if event.spec is not None else "?"
        tail = event.error.strip().splitlines()
        print(f"{prefix} QUARANTINED {label}: "
              f"{tail[-1] if tail else 'unknown error'}",
              file=sys.stderr, flush=True)


def _cmd_resume(args) -> int:
    from repro.campaign.journal import list_campaigns
    from repro.campaign.scheduler import resume_campaign

    store = _store(args)
    if not args.campaign:
        campaigns = list_campaigns(store.root)
        if not campaigns:
            print(f"no campaigns journaled under {store.root}")
            return 0
        for status in campaigns:
            states = status["states"]
            open_jobs = states["pending"] + states["running"] \
                + states["failed"]
            print(f"{status['campaign']}  total={status['total']} "
                  f"done={states['done']} open={open_jobs} "
                  f"quarantined={states['quarantined']}  "
                  f"{'complete' if status['complete'] else 'resumable'}")
        return 0
    scheduler = resume_campaign(
        args.campaign, store, jobs=args.jobs, timeout_s=args.timeout,
        on_event=None if args.quiet else _print_campaign_event)
    report = scheduler.execute()
    print(f"campaign {args.campaign}: {report.summary()}")
    return 1 if report.quarantined else 0


def _cmd_migrate(args) -> int:
    store = _store(args)
    moved = store.migrate()
    print(f"migrated {moved} record(s) to the sharded layout "
          f"({len(store)} record(s) in {store.root})")
    return 0


def _cmd_clean(args) -> int:
    store = _store(args)
    removed = store.clean(stale_only=args.stale)
    what = "stale record(s)" if args.stale else "record(s)"
    print(f"removed {removed} {what} from {store.root}")
    return 0


#: Flat columns exported per record: spec axes then headline stats.
_EXPORT_SPEC = ("kind", "bench", "seed", "instructions", "warmup",
                "mem_scale")
_EXPORT_CLOCK = ("base_mhz", "fe_speedup", "be_speedup")
_EXPORT_STATS = ("committed", "fetched", "issued", "be_cycles_create",
                 "be_cycles_execute", "branches", "mispredicts",
                 "traces_built", "trace_hits", "trace_misses",
                 "instrs_from_ec", "sim_time_ps")
#: Memory-system columns: per-level demand hit rates plus the MSHR
#: aggregates (blank on records from pre-MemorySpec code versions).
_EXPORT_CACHE_LEVELS = ("l1i", "l1d", "l2")


def _cmd_export(args) -> int:
    store = _store(args)
    if args.json is not None:
        return _export_json(store, args.json)
    # "code" (the fingerprint) and "engine" make exported rows joinable
    # with the perf history (BENCH_history.jsonl snapshots carry the
    # same fingerprint, and series split on the engine axis).
    header = (["key", "created", "code", "engine"] + list(_EXPORT_SPEC)
              + ["variant", "mem"] + list(_EXPORT_CLOCK)
              + list(_EXPORT_STATS) + ["ipc", "l2_accesses"]
              + [f"{lvl}_hit_rate" for lvl in _EXPORT_CACHE_LEVELS]
              + ["mshr_occ_avg", "mshr_stall_cycles", "elapsed_s"])
    out = (open(args.csv, "w", newline="", encoding="utf-8")
           if args.csv != "-" else sys.stdout)
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        rows = 0
        for record in store.records():
            try:
                spec, result = record.get("spec", {}), record["result"]
                stats = result.get("stats", {})
                # .get with blank cells: records written by other code
                # versions may lack columns added since (or vice versa).
                row = [record.get("key", ""), record.get("created", ""),
                       record.get("code", ""), record_engine(record)]
                row += [spec.get(c, "") for c in _EXPORT_SPEC]
                row += [_spec_variant(spec), mem_label(spec)]
                row += [spec.get("clock", {}).get(c, "")
                        for c in _EXPORT_CLOCK]
                row += [stats.get(c, "") for c in _EXPORT_STATS]
                row += [SimStats.from_dict(stats).ipc,
                        result.get("l2_accesses", "")]
                row += [_cache_rate(stats, lvl)
                        for lvl in _EXPORT_CACHE_LEVELS]
                mshr = (stats.get("cache_stats") or {}).get("mshr") or {}
                row += [mshr.get("occupancy_avg", ""),
                        mshr.get("stall_cycles", ""),
                        record.get("elapsed_s", "")]
            except (KeyError, TypeError, ValueError, AttributeError):
                continue        # damaged record: skip, don't abort the CSV
            writer.writerow(row)
            rows += 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"exported {rows} record(s)"
          + ("" if args.csv == "-" else f" to {args.csv}"), file=sys.stderr)
    return 0


def _export_json(store, path: str) -> int:
    """Dump full store records (spec + result) as one JSON array.

    Unlike the flattened CSV, this is lossless: each element is the
    record as stored (key, code fingerprint, timestamps, complete spec
    payload and serialized result including event counters and the DVFS
    frequency trace), ready for pandas/jq pipelines. Records from
    before the store recorded ``engine`` metadata gain the key at
    export time (derived from the spec payload), so every exported row
    is joinable with the perf history on (code, engine).
    """
    import json

    out = (open(path, "w", encoding="utf-8") if path != "-"
           else sys.stdout)
    rows = 0
    try:
        out.write("[")
        for record in store.records():
            out.write(",\n" if rows else "\n")
            if not record.get("engine"):
                record = {**record, "engine": record_engine(record)}
            json.dump(record, out, sort_keys=True)
            rows += 1
        out.write("\n]\n" if rows else "]\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"exported {rows} record(s)"
          + ("" if path == "-" else f" to {path}"), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    from repro.experiments.__main__ import add_run_flags

    parser = argparse.ArgumentParser(
        prog="repro.campaign",
        description="Batch simulation campaigns with a persistent, "
                    "content-addressed result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment campaign")
    p_run.add_argument("--experiments", default="all", metavar="A,B,...",
                       help="experiments to cover (default: all)")
    add_run_flags(p_run)  # --instructions/--warmup/--benchmarks/--seed/
    #                       --jobs/--store/--timeout
    p_run.add_argument("--dry-run", action="store_true",
                       help="list the expanded job specs and exit")
    p_run.add_argument("--no-tables", action="store_true",
                       help="only warm the store; skip printing the tables")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    p_ls = sub.add_parser("ls", help="list stored results")
    _add_store_flag(p_ls)
    p_ls.add_argument("--limit", type=int, default=40,
                      help="max records to print (0 = all)")
    p_ls.add_argument("--kind", default=None,
                      help="only records of this simulator kind")
    p_ls.add_argument("--bench", default=None,
                      help="only records of this benchmark")
    p_ls.add_argument("--json", action="store_true",
                      help="emit a JSON array of record summaries "
                           "instead of the human-readable listing")

    p_diff = sub.add_parser(
        "diff", help="differential analysis of two store slices")
    p_diff.add_argument("a", metavar="A",
                        help="selector: 'latest', 'prev', or key=value "
                             "filters (e.g. code=ab12, base_mhz=400, "
                             "kind=baseline,gov=occupancy)")
    p_diff.add_argument("b", metavar="B", help="selector for the B side")
    _add_store_flag(p_diff)
    p_diff.add_argument("--metrics", default=None, metavar="M,N,...",
                        help="metrics to compare (default: ipc,time_ms,"
                             "edp,l1d_hit,l2_hit,mshr_stalls)")
    p_diff.add_argument("--min-rel", type=float, default=2.0, metavar="PCT",
                        help="relative-change significance floor in "
                             "percent (default: 2)")
    p_diff.add_argument("--limit", type=int, default=0,
                        help="max pair rows to print (0 = all)")
    p_diff.add_argument("--json", action="store_true",
                        help="emit the full report as JSON instead of "
                             "the terminal tables")
    p_diff.add_argument("--html", default=None, metavar="PATH",
                        help="additionally write a self-contained HTML "
                             "report")
    p_diff.add_argument("--serve", type=int, nargs="?", const=8000,
                        default=None, metavar="PORT",
                        help="serve the HTML report on localhost:PORT "
                             "(default 8000; requires --html)")

    p_resume = sub.add_parser(
        "resume", help="resume an interrupted campaign from its journal "
                       "(no id: list journaled campaigns)")
    p_resume.add_argument("campaign", nargs="?",
                          help="campaign id (see `resume` with no args)")
    _add_store_flag(p_resume)
    p_resume.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: journaled value)")
    p_resume.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in seconds "
                               "(default: journaled value)")
    p_resume.add_argument("--quiet", action="store_true",
                          help="suppress per-job progress lines")

    p_migrate = sub.add_parser(
        "migrate", help="relocate flat-layout records into the sharded "
                        "layout")
    _add_store_flag(p_migrate)

    p_clean = sub.add_parser("clean", help="delete stored results")
    _add_store_flag(p_clean)
    p_clean.add_argument("--stale", action="store_true",
                         help="only delete records from older code versions")

    p_export = sub.add_parser("export", help="dump the store as CSV/JSON")
    _add_store_flag(p_export)
    p_export.add_argument("--csv", default="-", metavar="PATH",
                          help="CSV output file (default: stdout)")
    p_export.add_argument("--json", nargs="?", const="-", default=None,
                          metavar="PATH",
                          help="dump full records as a JSON array to PATH "
                               "(or stdout) instead of flattened CSV")

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "ls": _cmd_ls, "diff": _cmd_diff,
               "resume": _cmd_resume, "migrate": _cmd_migrate,
               "clean": _cmd_clean, "export": _cmd_export}[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
