"""Child-process entry points of the benchmark.

::

    python3 perfbench/shim.py probe --store DIR
    python3 perfbench/shim.py outputs --store DIR CAMPAIGN-FLAGS...
    python3 perfbench/shim.py turbo CAMPAIGN-FLAGS...
    python3 perfbench/shim.py --trace-dir DIR campaign run ARGS...
    python3 perfbench/shim.py --trace-dir DIR turbo ARGS...

``probe`` opens a fresh result store, checks it is empty and prints the
environment as JSON (code fingerprint, Python and NumPy versions,
usable CPUs). ``outputs`` checks that a campaign's store holds every
job the presets expand to and prints a digest of their ``SimStats``
payloads. ``turbo`` runs the Flywheel legs of the paper presets on
the turbo engine through ``Session(jobs=1).map`` and prints a digest of
their ``SimStats`` payloads. ``campaign`` runs ``python -m
repro.campaign`` in this process. With ``--trace-dir`` the layers are
wrapped first (see :mod:`spans`), and the aggregates land in DIR.
``repro`` is imported from ``PYTHONPATH``. CAMPAIGN-FLAGS are the
campaign CLI's ``--benchmarks``, ``--seed``, ``--instructions`` and
``--warmup``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import time


def payload_digest(items) -> str:
    """sha256 over ``(label, stats dict)`` pairs, sorted by label."""
    blob = json.dumps(sorted(items, key=lambda item: item[0]),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def turbo_specs(benchmarks, seed, instructions: int, warmup: int):
    """The Flywheel legs the paper presets expand to on ``benchmarks``,
    each on the turbo engine, grouped by benchmark so that consecutive
    legs share the in-process stream pool."""
    from repro import MachineSpec
    from repro.campaign.presets import SIM_EXPERIMENTS, experiment_specs

    specs = [MachineSpec.from_run_spec(spec).replace(engine="turbo")
             for spec in experiment_specs(SIM_EXPERIMENTS,
                                          benchmarks=benchmarks,
                                          instructions=instructions,
                                          warmup=warmup, seed=seed)
             if spec.kind == "flywheel"]
    return sorted(specs, key=lambda spec: spec.bench)


def _budget_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign CLI's workload flags that the benchmark passes on."""
    from repro.experiments.__main__ import parse_benchmarks
    from repro.workloads.profiles import SPEC_NAMES

    parser.add_argument("--benchmarks", type=parse_benchmarks,
                        default=SPEC_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--instructions", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)


def run_turbo(argv) -> int:
    from repro import Session

    parser = argparse.ArgumentParser(prog="shim.py turbo")
    _budget_flags(parser)
    args = parser.parse_args(argv)
    specs = turbo_specs(args.benchmarks, args.seed, args.instructions,
                        args.warmup)
    results = Session(jobs=1).map(specs)
    print(json.dumps({
        "jobs": len(specs),
        "committed": sum(r.stats.committed for r in results),
        "payloads": payload_digest([(s.label, r.stats.to_dict())
                                    for s, r in zip(specs, results)])}))
    return 0


def run_probe(argv) -> int:
    from importlib import metadata

    from repro.campaign.spec import code_fingerprint
    from repro.campaign.store import ResultStore

    parser = argparse.ArgumentParser(prog="shim.py probe")
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)
    store = ResultStore(args.store)
    if len(store):
        print(f"probe: store {args.store} is not empty", file=sys.stderr)
        return 1
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    print(json.dumps({"code": code_fingerprint(),
                      "python": sys.version.split()[0], "numpy": numpy,
                      "nproc": len(os.sched_getaffinity(0))}))
    return 0


def run_outputs(argv) -> int:
    from repro.campaign.presets import experiment_specs
    from repro.campaign.store import ResultStore
    from repro.experiments.__main__ import ALL_ORDER

    parser = argparse.ArgumentParser(prog="shim.py outputs")
    parser.add_argument("--store", required=True)
    _budget_flags(parser)
    args = parser.parse_args(argv)
    store = ResultStore(args.store)
    specs = experiment_specs(ALL_ORDER, benchmarks=args.benchmarks,
                             instructions=args.instructions,
                             warmup=args.warmup, seed=args.seed)
    items = []
    for spec in specs:
        result = store.get(spec.cache_key())
        if result is not None:
            items.append((spec.label, result.stats.to_dict()))
    print(json.dumps({
        "jobs": len(specs), "missing": len(specs) - len(items),
        "committed": sum(stats["committed"] for _label, stats in items),
        "payloads": payload_digest(items)}))
    return 0


def run_campaign_cli(argv) -> int:
    from repro.campaign.__main__ import main

    return main(argv)


COMMANDS = {"probe": run_probe, "outputs": run_outputs,
            "turbo": run_turbo, "campaign": run_campaign_cli}


def main() -> int:
    parser = argparse.ArgumentParser(prog="shim.py")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--delay", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="sleep inside every call of SPAN (self-test)")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.trace_dir is None:
        return COMMANDS[args.command](args.rest)

    import spans

    modules = spans.LAYER_MODULES
    if args.command == "turbo":
        modules += ("repro.core.engine.turbo.pool",)
    for module in modules:
        importlib.import_module(module)
    delays = {name: float(sec) for name, sec in
              (item.split("=", 1) for item in args.delay)}
    tracer = spans.Tracer(args.trace_dir, delays=delays)
    spans.install(tracer)
    tracer.import_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    try:
        return COMMANDS[args.command](args.rest)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
