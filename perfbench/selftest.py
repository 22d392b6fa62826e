"""Attribution self-test of the benchmark's tracing.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the repo
root (the file name keeps it out of the repository's own test suite).

A known delay is injected into ``ResultStore.get`` through the same
wrapper that times it, on a short ``paper-warm`` campaign. The delay
must show up in ``campaign.store.get.busy_s`` and in the traced wall
time, about ``delay x calls`` each, and in no other layer's self time.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

DELAY_S = 0.01
REPEATS = 3
#: A short paper-warm: 113 store hits per invocation.
WORKLOAD = run.Workload("selftest-warm", "campaign", "gcc,ijpeg,gzip", 300, 0,
                        fill=True)


def _traced(bench: run.Bench, store: Path, extra) -> dict:
    trace_dir = bench._fresh("trace")
    trace_dir.mkdir()
    sample = bench.spawn([sys.executable, run.SHIM, "--trace-dir",
                          str(trace_dir)] + extra + ["campaign"]
                         + bench.campaign_args(store, None), store)
    assert sample.returncode == 0, sample.stderr.read_text()
    processes = spans.read_dir(str(trace_dir))
    metrics = spans.layer_metrics(processes, sample.wall_s)
    return {"wall_s": sample.wall_s, "metrics": metrics,
            "self": spans.self_times(processes)}


def _median(runs, pick) -> float:
    return statistics.median(pick(r) for r in runs)


def test_store_get_delay_lands_in_store_get_only():
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        bench = run.Bench(WORKLOAD, None, work, time.monotonic() + 150)
        store = bench.setup(None)
        delay = ["--delay", f"campaign.store.get={DELAY_S}"]
        base, slow = [], []
        for _ in range(REPEATS):
            base.append(_traced(bench, store, []))
            slow.append(_traced(bench, store, delay))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = base[0]["metrics"]["campaign.store.get.calls"]
    assert calls > 100      # every job of the campaign, each a hit
    assert base[0]["metrics"]["campaign.store.get.hits"] == calls
    assert slow[0]["metrics"]["campaign.store.get.calls"] == calls
    injected = DELAY_S * calls

    def rise(pick) -> float:
        return _median(slow, pick) - _median(base, pick)

    get_rise = rise(lambda r: r["metrics"]["campaign.store.get.busy_s"])
    wall_rise = rise(lambda r: r["wall_s"])
    assert 0.95 * injected < get_rise < 1.15 * injected, get_rise
    assert 0.75 * injected < wall_rise < 1.35 * injected, wall_rise
    assert abs(rise(lambda r: r["self"]["campaign.store.get"])
               - get_rise) < 0.05 * injected
    for name in base[0]["self"]:
        if name == "campaign.store.get":
            continue
        moved = rise(lambda r, name=name: r["self"].get(name, 0.0))
        assert abs(moved) < 0.1 * injected, (name, moved)
    unattributed = rise(lambda r: r["metrics"]["trace.unattributed_s"])
    assert abs(unattributed) < 0.2 * injected, unattributed
