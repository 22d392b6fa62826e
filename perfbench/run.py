"""End-to-end benchmark of the paper campaign.

::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``paper-cold`` -- ``python -m repro.campaign run --experiments all
  --benchmarks gcc,ijpeg`` into an empty store, tables printed.
* ``paper-warm`` -- the same CLI over all ten SPEC profiles on a store
  that set-up filled with the same campaign, so every job is a hit.
* ``flywheel-turbo`` -- the Flywheel legs of the presets on gcc, on the
  turbo engine, through ``Session(jobs=1).map`` in a fresh process.

Every invocation runs in a fresh process on a fresh store inside
``.perfbench-work/`` (``--store`` and ``REPRO_CAMPAIGN_DIR`` both point
at it). A run repeats rounds of set-up and invocation until
``--seconds`` of invocations are measured, and at least three set-ups,
then reports medians. Each round of ``paper-cold`` and
``flywheel-turbo`` uses its own workload seed drawn from ``--seed``.
Outputs are checked on every invocation: the printed tables and every
job's ``SimStats`` (keyed by spec label) must digest the same on every
invocation of a workload seed, and match the digests pinned in
``digests.json`` for it when there are any; on ``paper-warm`` no job
may be simulated.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of :mod:`spans` instead. ``--pin ROUNDS`` runs that
many untimed rounds and records their seeds' digests in
``digests.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` jobs, and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
SHIM = str(HERE / "shim.py")

#: Set-ups per run; their median is ``setup_s``.
MIN_SETUPS = 3
#: Round ``i`` of a run with seed ``N`` uses workload seed
#: ``N * SEED_STRIDE + i`` (unless it reads a filled store).
SEED_STRIDE = 1000
#: Wall-clock limit of one benchmark run.
RUN_LIMIT_S = 170.0
#: Iterations of the host-speed calibration loop, and the loop's time in
#: seconds on the host the benchmark was written on (2-core x86, CPython
#: 3.11). Time metrics are scaled by CAL_REF_S over the run's median
#: loop time, i.e. reported in seconds of that host.
CAL_LOOPS = 1_500_000
CAL_REF_S = 0.105

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_kips": "kinstr/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    #: "campaign" drives ``python -m repro.campaign run``; "turbo" the
    #: Session.map leg list of :func:`shim.turbo_specs`.
    driver: str
    benchmarks: Optional[str]     # --benchmarks (None: all ten profiles)
    instructions: int
    warmup: int
    #: Set-up fills the store with the measured campaign (warm reads).
    fill: bool = False

    def flags(self, seed: Optional[int]) -> List[str]:
        flags = ["--instructions", str(self.instructions),
                 "--warmup", str(self.warmup)]
        if self.benchmarks is not None:
            flags += ["--benchmarks", self.benchmarks]
        if seed is not None:
            flags += ["--seed", str(seed)]
        return flags


# Budgets are a thirtieth of the CLI defaults (30k measured, 60k warmup)
# so that one invocation takes seconds and a run can take a median over
# several workload seeds; the warm fill uses tiny budgets because reads
# do not depend on them.
WORKLOADS = {w.name: w for w in (
    Workload("paper-cold", "campaign", "gcc,ijpeg", 1000, 2000),
    Workload("paper-warm", "campaign", None, 300, 0, fill=True),
    Workload("flywheel-turbo", "turbo", "gcc", 1000, 2000),
)}


@dataclass
class Sample:
    """One measured invocation."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: Path
    stderr: Path


@dataclass
class Outputs:
    """Jobs of one invocation, how many failed, instructions committed."""

    jobs: int
    failed: int
    committed: int


@dataclass
class Run:
    """Everything one benchmark run collected."""

    setups: List[float] = field(default_factory=list)
    #: Calibration loop times, one before every set-up and invocation.
    calibration: List[float] = field(default_factory=list)
    samples: Dict[bool, List[Sample]] = field(
        default_factory=lambda: {False: [], True: []})
    kips: List[float] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Output digests by workload seed.
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)
    env: Dict[str, object] = field(default_factory=dict)


class Bench:
    """One benchmark run of one workload: set-ups, invocations, checks."""

    def __init__(self, workload: Workload, seed: Optional[int], work: Path,
                 deadline: float):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.run = Run()
        self._count = 0
        #: Output-check result per store (set-up fills a warm store once).
        self._stored: Dict[Path, dict] = {}
        #: Pinned output digests of this workload, by workload seed.
        self.pins = read_pins().get(workload.name, {})

    # ----------------------------------------------------------- process

    def _fresh(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{stem}-{self._count}"

    def spawn(self, argv: List[str], store: Path) -> Sample:
        """Run ``argv`` to completion; wall, CPU and peak RSS of its tree."""
        out = self._fresh("out")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        env["REPRO_CAMPAIGN_DIR"] = str(store)
        with open(f"{out}.stdout", "wb") as stdout, \
                open(f"{out}.stderr", "wb") as stderr:
            t0 = time.monotonic()
            env["PERFBENCH_T0"] = repr(t0)
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                    env=env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - t0),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)          # strays of a failed run, if any
        return Sample(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode,
                      Path(f"{out}.stdout"), Path(f"{out}.stderr"))

    def _json_out(self, sample: Sample, what: str) -> Optional[dict]:
        """The JSON last line of a helper's output, or None (noted)."""
        lines = sample.stdout.read_text().strip().splitlines()
        if sample.returncode != 0 or not lines:
            self.run.problems.append(
                f"{what} exited {sample.returncode}: "
                + _tail(sample.stderr))
            return None
        return json.loads(lines[-1])

    # ------------------------------------------------------------ set-up

    def workload_seed(self, round_no: int) -> Optional[int]:
        """Seed of one round. Rounds on a filled store keep the run's
        seed; otherwise each round draws a seed of its own from it, so a
        run's median spans several inputs."""
        if self.seed is None or self.wl.fill:
            return self.seed
        return self.seed * SEED_STRIDE + round_no

    def setup(self, seed: Optional[int]) -> Path:
        """Fresh store (probed), filled for warm workloads."""
        store = self._fresh("store")
        self.run.calibration.append(calibrate())
        t0 = time.monotonic()
        probe = self.spawn([sys.executable, SHIM, "probe", "--store",
                            str(store)], store)
        fill = None
        if self.wl.fill and probe.returncode == 0:
            fill = self.spawn(self.campaign_argv(store, seed), store)
        self.run.setups.append(time.monotonic() - t0)
        env = self._json_out(probe, "probe")
        if env is None:
            raise SetupError("probe failed: " + _tail(probe.stderr))
        self.run.env = env
        if fill is not None and fill.returncode != 0:
            raise SetupError("filling the store failed: "
                             + _tail(fill.stderr))
        return store

    # -------------------------------------------------------- invocation

    def campaign_args(self, store: Path, seed: Optional[int]) -> List[str]:
        """``python -m repro.campaign`` arguments of the workload."""
        return (["run", "--experiments", "all", "--jobs", str(self.workers),
                 "--store", str(store), "--quiet"] + self.wl.flags(seed))

    def campaign_argv(self, store: Path, seed: Optional[int]) -> List[str]:
        return [sys.executable, "-m", "repro.campaign"] \
            + self.campaign_args(store, seed)

    def invoke(self, store: Path, traced: bool, seed: Optional[int]) -> float:
        """One measured invocation; returns its wall time."""
        if self.wl.driver == "campaign":
            command = ["campaign"] + self.campaign_args(store, seed)
        else:
            command = ["turbo"] + self.wl.flags(seed)
        trace_dir = None
        if traced:
            trace_dir = self._fresh("trace")
            trace_dir.mkdir()
            argv = [sys.executable, SHIM, "--trace-dir", str(trace_dir)] \
                + command
        elif self.wl.driver == "campaign":
            argv = self.campaign_argv(store, seed)
        else:
            argv = [sys.executable, SHIM] + command
        self.run.calibration.append(calibrate())
        sample = self.spawn(argv, store)
        outputs = self.outputs(sample, store, seed)
        self.run.attempted += outputs.jobs
        self.run.failed += outputs.failed
        if outputs.failed:
            return sample.wall_s
        self.run.samples[traced].append(sample)
        if traced:
            import spans

            self.run.layers.append(spans.layer_metrics(
                spans.read_dir(str(trace_dir)), sample.wall_s))
        else:
            self.run.kips.append(outputs.committed / 1000 / sample.wall_s)
        return sample.wall_s

    # ------------------------------------------------------------ checks

    def outputs(self, sample: Sample, store: Path,
                seed: Optional[int]) -> Outputs:
        """Check one invocation's outputs; failed = failed jobs + 1 if
        the output check failed."""
        if self.wl.driver == "turbo":
            result = self._json_out(sample, "turbo")
            if result is None:
                return Outputs(1, 1, 0)
            digests = {"payloads": result["payloads"]}
            out = Outputs(result["jobs"], 0, result["committed"])
        else:
            result = self._stored.get(store)
            if result is None:      # warm invocations leave the store as is
                check = self.spawn([sys.executable, SHIM, "outputs",
                                    "--store", str(store)]
                                   + self.wl.flags(seed), store)
                result = self._json_out(check, "output check")
                if result is None:
                    return Outputs(1, 1, 0)
                self._stored[store] = result
            digests = {"tables": _sha(sample.stdout),
                       "payloads": result["payloads"]}
            out = Outputs(result["jobs"], result["missing"],
                          result["committed"])
            if sample.returncode != 0:
                self.run.problems.append(
                    f"campaign exited {sample.returncode}: "
                    + _tail(sample.stderr))
                out.failed = out.jobs
                return out
            if self.wl.fill and (f"{out.jobs} from cache, 0 simulated"
                                 not in sample.stderr.read_text()):
                self._mismatch(out, "warm run simulated jobs")
        key = seed_key(seed)
        seen = self.run.digests.setdefault(key, digests)
        if digests != seen:
            self._mismatch(out, f"outputs of seed {key} differ between "
                                "invocations")
        if self.pins.get(key, digests) != digests:
            self._mismatch(out, f"outputs of seed {key} differ from "
                                "digests.json")
        return out

    def _mismatch(self, out: Outputs, problem: str) -> None:
        self.run.problems.append(problem)
        out.failed += 1

    # -------------------------------------------------------------- loop

    def measure(self, seconds: float, trace: bool, min_setups: int) -> Run:
        modes = (False, True) if trace else (False,)
        measured = 0.0
        rounds = 0
        while rounds < min_setups or measured < seconds:
            if time.monotonic() > self.deadline:
                self.run.problems.append("run time limit reached")
                break
            seed = self.workload_seed(rounds)
            if self.wl.fill:
                store = self.setup(seed)
                target = seconds * (rounds + 1) / min_setups
                done = 0
                while done < len(modes) or measured < target:
                    measured += self.invoke(store, modes[done % len(modes)],
                                            seed)
                    done += 1
            else:
                for traced in modes:
                    measured += self.invoke(self.setup(seed), traced, seed)
            rounds += 1
            if self.run.failed:
                break
        return self.run


class SetupError(RuntimeError):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop now.

    The host's speed drifts by tens of percent over minutes (other
    tenants), and a run's median cannot average that out. The loop runs
    no repository code, so scaling by it removes host drift but keeps
    every change to the program in the metrics.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def seed_key(seed: Optional[int]) -> str:
    return "default" if seed is None else str(seed)


def read_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# ------------------------------------------------------------- reporting

def host_scale(run: Run) -> float:
    """Factor from this run's host speed to the reference host's."""
    return CAL_REF_S / statistics.median(run.calibration)


def end_to_end(run: Run) -> Dict[str, float]:
    untraced = run.samples[False]
    scale = host_scale(run)
    return {"wall_s": scale * statistics.median(s.wall_s for s in untraced),
            "setup_s": scale * statistics.median(run.setups),
            "sim_kips": statistics.median(run.kips) / scale,
            "cpu_s": scale * statistics.median(s.cpu_s for s in untraced),
            "peak_rss_mb": statistics.median(s.rss_mb for s in untraced)}


def per_layer(run: Run) -> Dict[str, float]:
    out = {name: statistics.median(layer[name] for layer in run.layers)
           for name in run.layers[0]}
    out["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in run.samples[True])
        - statistics.median(s.wall_s for s in run.samples[False]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed passed to --seed / "
                             "MachineSpec(seed=); default: each profile's "
                             "stable seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="invocation time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, default=0, metavar="ROUNDS",
                        help="run ROUNDS untimed rounds and record their "
                             "seeds' output digests in digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed, work, time.monotonic() + RUN_LIMIT_S)
    if args.pin:
        bench.pins = {}
    try:
        run = bench.measure(0 if args.pin else args.seconds,
                            bool(args.trace), args.pin or MIN_SETUPS)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()        # only if no other run is using it
        except OSError:
            pass
    for problem in run.problems:
        print(f"check: {problem}", file=sys.stderr)
    if args.pin:
        if run.failed or not run.digests:
            return 1
        pins = read_pins()
        pins.setdefault(wl.name, {}).update(run.digests)
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {wl.name} seeds {sorted(run.digests)}")
        return 0

    correct = run.failed == 0 and bool(run.samples[False])
    metrics = {}
    if correct:
        if args.trace:
            import spans

            values, units = per_layer(run), spans.metric_units()
        else:
            values, units = end_to_end(run), END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    print("env: " + json.dumps({
        "workload": wl.name, "seed": args.seed, "workers": bench.workers,
        "host_scale": host_scale(run) if run.calibration else None,
        "pinned_seeds": sorted(set(run.digests) & set(bench.pins)),
        "setups_s": run.setups,
        "walls_s": [s.wall_s for s in run.samples[False]],
        "traced_walls_s": [s.wall_s for s in run.samples[True]],
        **run.env}, sort_keys=True))
    print(f"{wl.name}: {run.attempted} jobs attempted, {run.failed} failed "
          f"(failed_frac={run.failed / max(1, run.attempted):g})",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
