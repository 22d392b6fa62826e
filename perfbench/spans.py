"""Layer spans for the benchmark's traced runs.

The benchmark attributes a workload's host time to the repository's
layers without editing them: :func:`install` wraps the public functions
listed in :data:`LAYERS` (module functions are rebound wherever another
``repro`` module imported them by name; methods are replaced on their
class). Each wrapped call is one span. Spans are aggregated per name in
the process that ran them: calls, inclusive busy time, self time (busy
time minus the time of nested spans), errors and a few layer-specific
counters.

Install before the campaign executor forks its pool: forked workers then
run the wrapped functions too. A worker resets the aggregates it
inherited and rewrites ``<dir>/<pid>.json`` whenever its outermost span
closes, because pool workers are terminated rather than exited; the main
process writes ``<dir>/main.json`` through :meth:`Tracer.write`.
:func:`layer_metrics` merges the files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Core class name -> registered kind (a subclass inherits ``run``).
_KINDS = {"BaselineCore": "baseline", "FlywheelCore": "flywheel",
          "PipelinedWakeupCore": "pipelined_wakeup"}
KINDS = tuple(_KINDS.values())


def _core_name(suffix: str) -> Callable:
    def name(args) -> str:
        cls = type(args[0]).__name__
        return f"core.{_KINDS.get(cls, cls.lower())}.{suffix}"
    return name


# Counter hooks: (result, args, kwargs, elapsed_s) -> counters to add.

def _store_get(result, args, kwargs, elapsed_s):
    return {"hits": result is not None}


def _store_put(result, args, kwargs, elapsed_s):
    store, key = args[0], args[1]
    return {"bytes": os.path.getsize(store._path(key))}


def _run_campaign(result, args, kwargs, elapsed_s):
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    workers = max(1, min(jobs, result.executed))
    return {"jobs_executed": result.executed,
            "worker_capacity_s": workers * elapsed_s if result.executed else 0}


def _core_run(result, args, kwargs, elapsed_s):
    return {"cycles": result.total_be_cycles}


#: (module, attribute path, span name or args -> name, counter hook,
#: keep per-call durations). Modules that are not imported when
#: :func:`install` runs are skipped: their layer was not used.
LAYERS = (
    ("repro.campaign.presets", "experiment_specs",
     "campaign.presets.experiment_specs", None, False),
    ("repro.campaign.spec", "RunSpec.cache_key", "campaign.spec.cache_key",
     None, False),
    ("repro.campaign.spec", "RunSpec.execute", "campaign.spec.execute",
     None, True),
    ("repro.campaign.store", "ResultStore.get", "campaign.store.get",
     _store_get, False),
    ("repro.campaign.store", "ResultStore.put", "campaign.store.put",
     _store_put, False),
    ("repro.campaign.executor", "run_campaign",
     "campaign.executor.run_campaign", _run_campaign, False),
    ("repro.session", "Session.map", "session.map", None, False),
    ("repro.workloads.generator", "generate_program",
     "workloads.generate_program", None, False),
    ("repro.core.baseline", "BaselineCore.run", _core_name("run"),
     _core_run, False),
    ("repro.core.baseline", "BaselineCore._functional_warmup",
     _core_name("warmup"), None, False),
    ("repro.core.flywheel", "FlywheelCore.run", _core_name("run"),
     _core_run, False),
    ("repro.core.flywheel", "FlywheelCore._functional_warmup",
     _core_name("warmup"), None, False),
    ("repro.core.engine.turbo.pool", "StreamPool.__init__",
     "core.engine.turbo.pool.build", None, False),
    ("repro.core.engine.turbo.pool", "StreamPool.ensure",
     "core.engine.turbo.pool.ensure", None, False),
    ("repro.core.sim", "SimResult.to_dict", "core.sim.to_dict", None, False),
    ("repro.core.sim", "SimResult.from_dict", "core.sim.from_dict", None,
     False),
    ("repro.experiments.__main__", "print_experiments", "experiments.print",
     None, False),
)

#: Modules a traced process imports before :func:`install` (the turbo
#: pool, which imports NumPy, only where the workload uses it).
LAYER_MODULES = tuple(dict.fromkeys(
    module for module, *_ in LAYERS
    if module != "repro.core.engine.turbo.pool"))


class Tracer:
    """Per-process span aggregates, flushed to ``out_dir``."""

    def __init__(self, out_dir: str,
                 delays: Optional[Dict[str, float]] = None):
        self.out_dir = Path(out_dir)
        #: Injected sleep per call of a span name (the attribution
        #: self-test's known cost); empty in benchmark runs.
        self.delays = dict(delays or {})
        self.main_pid = os.getpid()
        self.import_s = 0.0
        self._reset()

    def _reset(self) -> None:
        self.spans: Dict[str, Dict[str, float]] = {}
        self.samples: Dict[str, List[float]] = {}
        #: Child-span seconds accumulated by each open span.
        self._stack: List[float] = []

    def span(self, name, fn: Callable, hook, keep_samples: bool) -> Callable:
        """``fn`` wrapped to record one span per call."""
        delay_for = self.delays.get

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            frames = self._stack
            frames.append(0.0)
            failed = True
            t0 = time.perf_counter()
            try:
                delay = delay_for(label)
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = time.perf_counter() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += elapsed
                agg = self.spans.setdefault(
                    label, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                            "errors": 0})
                agg["calls"] += 1
                agg["busy_s"] += elapsed
                agg["self_s"] += elapsed - child
                agg["errors"] += failed
                if hook is not None and not failed:
                    for key, value in hook(result, args, kwargs,
                                           elapsed).items():
                        agg[key] = agg.get(key, 0) + value
                if keep_samples and not failed:
                    self.samples.setdefault(label, []).append(elapsed)
                if not frames and os.getpid() != self.main_pid:
                    self.write()

        return wrapper

    def write(self) -> None:
        """Write this process's aggregates (main.json or <pid>.json)."""
        is_main = os.getpid() == self.main_pid
        path = self.out_dir / ("main.json" if is_main
                               else f"{os.getpid()}.json")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "role": "main" if is_main else "worker",
            "import_s": self.import_s if is_main else 0.0,
            "spans": self.spans, "samples": self.samples}))
        os.replace(tmp, path)


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` entry whose module is imported.

    Module-level functions are rebound in every loaded ``repro`` module
    that holds a reference; class attributes (including class methods)
    are replaced on the class.
    """
    os.register_at_fork(after_in_child=tracer._reset)
    for module_name, path, name, hook, keep in LAYERS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner, attr = _resolve(module, path)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    tracer.span(name, raw.__func__, hook, keep)))
            else:
                setattr(owner, attr, tracer.span(name, raw, hook, keep))
        else:
            original = getattr(owner, attr)
            replacement = tracer.span(name, original, hook, keep)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, replacement)


# ------------------------------------------------------------- metrics

def metric_units() -> Dict[str, str]:
    """Per-layer metrics (name -> unit), in report order. Every traced
    run reports all of them; a layer the workload does not use reads 0."""
    units = {"process.import_s": "s",
             "campaign.presets.experiment_specs.busy_s": "s",
             "campaign.spec.cache_key.calls": "count",
             "campaign.spec.cache_key.busy_s": "s",
             "campaign.store.get.calls": "count",
             "campaign.store.get.hits": "count",
             "campaign.store.get.busy_s": "s",
             "campaign.store.put.calls": "count",
             "campaign.store.put.busy_s": "s",
             "campaign.store.put.bytes": "bytes",
             "campaign.executor.run_campaign.busy_s": "s",
             "campaign.executor.jobs_executed": "count",
             "campaign.executor.jobs_failed": "count",
             "campaign.executor.worker_util": "ratio",
             "campaign.executor.job_p50_s": "s",
             "campaign.executor.job_tail_s": "s",
             "campaign.executor.job_tail_pct": "%",
             "campaign.executor.jobs_timed": "count",
             "session.map.busy_s": "s",
             "workloads.generate_program.calls": "count",
             "workloads.generate_program.busy_s": "s"}
    for kind in KINDS:
        units[f"core.{kind}.run.calls"] = "count"
        units[f"core.{kind}.run.busy_s"] = "s"
        units[f"core.{kind}.warmup.busy_s"] = "s"
        units[f"core.{kind}.us_per_cycle"] = "us"
    units.update({"core.engine.turbo.pool.builds": "count",
                  "core.engine.turbo.pool.ensure.busy_s": "s",
                  "core.sim.to_dict.busy_s": "s",
                  "core.sim.from_dict.busy_s": "s",
                  "experiments.print.busy_s": "s",
                  "trace.unattributed_s": "s",
                  "trace.overhead_s": "s"})
    return units


def tail_percentile(samples: List[float]):
    """(value, percentile) of the highest whole percentile with at least
    ten samples beyond it, or (0, 0) with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return 0.0, 0
    ordered = sorted(samples)
    pct = int(100 * (n - 10) / n)
    return ordered[min(n - 1, int(n * pct / 100))], pct


def read_dir(trace_dir: str) -> List[dict]:
    """Every process's aggregates written under ``trace_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(trace_dir).glob("*.json"))]


def self_times(processes: List[dict]) -> Dict[str, float]:
    """Self seconds per span name in the main process (plus
    ``process.import``), which together with ``trace.unattributed_s``
    partition the traced wall time."""
    out: Dict[str, float] = {}
    for proc in processes:
        if proc["role"] == "main":
            out["process.import"] = proc["import_s"]
            for name, agg in proc["spans"].items():
                out[name] = out.get(name, 0.0) + agg["self_s"]
    return out


def layer_metrics(processes: List[dict], wall_s: float) -> Dict[str, float]:
    """Merge process aggregates into the per-layer metrics of one run
    (all but ``trace.overhead_s``, which needs the untraced runs)."""
    merged: Dict[str, Dict[str, float]] = {}
    samples: Dict[str, List[float]] = {}
    for proc in processes:
        for name, agg in proc["spans"].items():
            into = merged.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value
        for name, values in proc["samples"].items():
            samples.setdefault(name, []).extend(values)

    def get(name: str, key: str) -> float:
        return merged.get(name, {}).get(key, 0)

    out = {"process.import_s": sum(p["import_s"] for p in processes)}
    for name, key in (("campaign.presets.experiment_specs", "busy_s"),
                      ("campaign.spec.cache_key", "calls"),
                      ("campaign.spec.cache_key", "busy_s"),
                      ("campaign.store.get", "calls"),
                      ("campaign.store.get", "hits"),
                      ("campaign.store.get", "busy_s"),
                      ("campaign.store.put", "calls"),
                      ("campaign.store.put", "busy_s"),
                      ("campaign.store.put", "bytes"),
                      ("campaign.executor.run_campaign", "busy_s"),
                      ("session.map", "busy_s"),
                      ("workloads.generate_program", "calls"),
                      ("workloads.generate_program", "busy_s"),
                      ("core.sim.to_dict", "busy_s"),
                      ("core.sim.from_dict", "busy_s"),
                      ("experiments.print", "busy_s")):
        out[f"{name}.{key}"] = get(name, key)
    campaign = "campaign.executor.run_campaign"
    jobs = samples.get("campaign.spec.execute", [])
    capacity = get(campaign, "worker_capacity_s")
    out["campaign.executor.jobs_executed"] = get(campaign, "jobs_executed")
    out["campaign.executor.jobs_failed"] = get("campaign.spec.execute",
                                               "errors")
    out["campaign.executor.worker_util"] = (sum(jobs) / capacity
                                            if capacity else 0.0)
    out["campaign.executor.job_p50_s"] = (statistics.median(jobs)
                                          if jobs else 0.0)
    tail, pct = tail_percentile(jobs)
    out["campaign.executor.job_tail_s"] = tail
    out["campaign.executor.job_tail_pct"] = pct
    out["campaign.executor.jobs_timed"] = len(jobs)
    for kind in KINDS:
        run, warm = f"core.{kind}.run", f"core.{kind}.warmup"
        cycles = get(run, "cycles")
        out[f"{run}.calls"] = get(run, "calls")
        out[f"{run}.busy_s"] = get(run, "busy_s")
        out[f"{warm}.busy_s"] = get(warm, "busy_s")
        # Functional warmup simulates no cycles, so it is left out.
        out[f"core.{kind}.us_per_cycle"] = (
            1e6 * (get(run, "busy_s") - get(warm, "busy_s")) / cycles
            if cycles else 0.0)
    out["core.engine.turbo.pool.builds"] = get(
        "core.engine.turbo.pool.build", "calls")
    out["core.engine.turbo.pool.ensure.busy_s"] = get(
        "core.engine.turbo.pool.ensure", "busy_s")
    out["trace.unattributed_s"] = wall_s - sum(self_times(processes).values())
    return out
