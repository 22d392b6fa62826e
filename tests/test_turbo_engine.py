"""Turbo-backend edge cases: skip-ahead vs. every observer.

Two loops bulk-advance the back-end clock across provably-idle spans:
the Flywheel's replay skip-ahead and the single-clock turbo loop's idle
skip-ahead. Three observers make a naive jump wrong, and each gets a pin
here against the legacy engine, once per loop. The Flywheel runs its one
loop (``FlywheelCore.run``) on both engines, so its pins compare the
live instruction walker against the ``PooledOracle`` feeding that loop:

* the DVFS governor's interval hook must fire at exactly the cycles it
  would have fired tick-by-tick (a jumped interval shifts every later
  freq-trace point);
* a flight-recorder window whose ``start`` falls inside a jumped span
  must open at the same event as under the legacy engine;
* the deadlock watchdog must trip at the same cycle with the same
  snapshot even when the no-commit window elapses inside a batch.

Engine selection comes next: ``None`` (the default engine) runs turbo,
unknown names are a ConfigError, and the default engine imports nothing
outside the standard library.

The last section covers the cross-run :class:`StreamPool` cache —
content keying on (program, seed, bpred), FIFO bounds, reuse across a
``Session.map`` fan-out, growth when a cached pool is shorter than a
later run needs — and the pool's memory: small chunks and shared pc
ints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import ClockPlan, CoreConfig
from repro.core.engine.turbo.pool import _POOL_CACHE, StreamPool, get_pool
from repro.core.sim import execute_kind
from repro.dvfs import GovernorConfig
from repro.errors import ConfigError, DeadlockError
from repro.frontend.bpred import BPredConfig
from repro.obs.spec import TraceSpec
from repro.session import MachineSpec, Session
from repro.workloads import generate_program, get_profile


def _pair(kind, bench, n=8000, w=3000, clock=None, **cfg_kw):
    out = []
    for engine in ("legacy", "turbo"):
        config = CoreConfig(engine=engine, **cfg_kw)
        out.append(execute_kind(kind, bench, config=config, clock=clock,
                                max_instructions=n, warmup=w))
    return out


class TestSkipAheadEdges:
    """Observers against the Flywheel's skip-ahead, on the live walker
    (legacy) and the pooled oracle (turbo).

    A skip-ahead may jump past a DVFS interval boundary or into a trace
    window; the hook then fires late and skipped spans emit no stall
    events (DESIGN.md §4, §8). These tests pin the engines to the same
    skips, not to a tick-by-tick run, which retunes and traces at other
    cycles.
    """

    @pytest.mark.parametrize("gov", ("occupancy", "ipc_ladder"))
    def test_jump_never_crosses_a_dvfs_interval(self, gov):
        # interval=200 is far shorter than typical replay idle spans, so
        # many jumps pass a boundary. Turbo must fire the hook on the
        # same late cycle as legacy, or the frequency trace shifts.
        clock = ClockPlan(governor=GovernorConfig(name=gov, interval=200))
        legacy, turbo = _pair("flywheel", "gcc", clock=clock)
        assert legacy.stats.freq_trace == turbo.stats.freq_trace
        assert legacy.stats.dvfs_retunes == turbo.stats.dvfs_retunes
        assert legacy.stats.to_dict() == turbo.stats.to_dict()

    @pytest.mark.parametrize("start", (2500, 5001, 9000))
    def test_trace_window_opening_mid_jump(self, start):
        # Recorder windows are [start, stop) in back-end cycles. Placing
        # start at arbitrary odd points guarantees some windows open
        # inside a replay idle span; the serialized ring must still be
        # byte-identical across engines (same first event, same drop
        # counts).
        spec = TraceSpec(buffer=1 << 16, start=start, stop=start + 1500)
        legacy, turbo = _pair("flywheel", "gcc", trace=spec)
        assert legacy.trace == turbo.trace
        assert legacy.stats.to_dict() == turbo.stats.to_dict()

    @pytest.mark.parametrize("window,mode", ((96, "CREATE"),
                                             (128, "EXECUTE")))
    def test_watchdog_arms_inside_a_batch(self, window, mode):
        # window=128 elapses mid-replay (EXECUTE mode) — inside the span
        # the loop skips as a batch — so the bulk advance must stop at
        # the trip cycle, not sail past it. Both oracles must fail at the
        # same cycle with the same structured snapshot.
        trips = []
        for engine in ("legacy", "turbo"):
            config = CoreConfig(engine=engine, deadlock_window=window)
            with pytest.raises(DeadlockError) as err:
                execute_kind("flywheel", "gcc", config=config,
                             max_instructions=8000, warmup=3000)
            assert mode in str(err.value)
            trips.append((str(err.value), err.value.snapshot))
        assert trips[0] == trips[1]


class TestSyncSkipAheadEdges:
    """The same three observers against the single-clock turbo loop."""

    @pytest.mark.parametrize("gov", ("occupancy", "ipc_ladder"))
    def test_jump_never_crosses_a_dvfs_interval(self, gov):
        # interval=200 is far shorter than the idle spans the loop
        # elides, so many jumps pass a boundary. Turbo must fire the
        # hook on the same late cycle as legacy: on baseline/gcc the
        # first retune lands at BE cycle 871, where a tick-by-tick run
        # retunes at 800.
        clock = ClockPlan(governor=GovernorConfig(name=gov, interval=200))
        legacy, turbo = _pair("baseline", "gcc", clock=clock)
        assert legacy.stats.freq_trace == turbo.stats.freq_trace
        assert legacy.stats.dvfs_retunes == turbo.stats.dvfs_retunes
        assert legacy.stats.to_dict() == turbo.stats.to_dict()

    @pytest.mark.parametrize("start", (2500, 5001, 9000))
    def test_trace_window_opening_mid_jump(self, start):
        # With the recorder armed every stall and completion emission
        # must land on the same cycle as on legacy: the serialized ring
        # must be byte-identical, including drop counts. Both engines
        # emit no stall events inside a skipped span, so the ring is not
        # what a tick-by-tick run records.
        spec = TraceSpec(buffer=1 << 16, start=start, stop=start + 1500)
        legacy, turbo = _pair("baseline", "gcc", trace=spec)
        assert legacy.trace == turbo.trace
        assert legacy.stats.to_dict() == turbo.stats.to_dict()

    @pytest.mark.parametrize("window", (10, 24))
    def test_watchdog_trips_on_the_same_cycle(self, window):
        # pointer_chase stalls the back end long enough to elapse tiny
        # windows mid-run. The trip snapshot reads per-entry done flags,
        # so they must match the exact per-cycle truth at the trip point.
        trips = []
        for engine in ("legacy", "turbo"):
            config = CoreConfig(engine=engine, deadlock_window=window)
            with pytest.raises(DeadlockError) as err:
                execute_kind("baseline", "pointer_chase", config=config,
                             max_instructions=8000, warmup=3000)
            trips.append((str(err.value), err.value.snapshot))
        assert trips[0] == trips[1]


class TestEngineSelection:
    # "vector" named a third engine tier that has since been deleted;
    # it now fails the same way as any other unknown name.
    @pytest.mark.parametrize("engine", ("warp", "vector"))
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ConfigError, match="unknown engine"):
            CoreConfig(engine=engine)

    def test_default_engine_is_turbo(self):
        config = CoreConfig()
        assert config.engine is None
        assert config.resolved_engine == "turbo"
        assert CoreConfig(engine="legacy").resolved_engine == "legacy"
        # The turbo loop leaves the legacy walker untouched.
        result = execute_kind("baseline", "smoke", max_instructions=500,
                              warmup=0)
        assert result.core.stream.emitted == 0

    def test_default_run_imports_no_numpy(self):
        # The fast engine is the default, so it must stay within the
        # standard library like the rest of the package.
        code = ("import sys\n"
                "from repro import MachineSpec, Session\n"
                "Session().run(MachineSpec('flywheel', 'smoke',"
                " instructions=500, warmup=200))\n"
                "Session().run(MachineSpec('baseline', 'smoke',"
                " instructions=500, warmup=200))\n"
                "assert 'repro.core.engine.turbo.pool' in sys.modules\n"
                "print('numpy' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"


# --------------------------------------------------------------------------
# Cross-run stream pool cache (the pool is the shared state behind
# best-of-N bench repeats and Session.map fan-outs, so its keying and
# growth rules are load-bearing for correctness, not just speed).


class TestStreamPoolCache:
    def setup_method(self):
        _POOL_CACHE.clear()

    def test_keyed_on_program_content_seed_and_bpred(self):
        prog = generate_program(get_profile("smoke"))
        pool = get_pool(prog, 0, BPredConfig())
        assert get_pool(prog, 0, BPredConfig()) is pool
        # An *equal* program regenerated from the same profile hits the
        # same entry: keying is content identity, not object identity.
        again = generate_program(get_profile("smoke"))
        assert again is not prog
        assert get_pool(again, 0, BPredConfig()) is pool
        # Any key axis changing means a different pool: the predictor
        # config drives the precomputed taken/target columns, the seed
        # drives value generation.
        assert get_pool(prog, 1, BPredConfig()) is not pool
        other_bp = BPredConfig(history_bits=4)
        assert get_pool(prog, 0, other_bp) is not pool
        assert len(_POOL_CACHE) == 3

    def test_cache_is_a_bounded_fifo(self):
        prog = generate_program(get_profile("smoke"))
        pools = [get_pool(prog, seed, BPredConfig()) for seed in range(6)]
        assert len(_POOL_CACHE) == 4
        # Oldest entries evicted: seed 0 misses (new object), seed 5
        # still hits.
        assert get_pool(prog, 5, BPredConfig()) is pools[5]
        assert get_pool(prog, 0, BPredConfig()) is not pools[0]

    def test_session_map_fanout_shares_one_pool(self):
        # Three turbo specs over the same bench/seed differ only in
        # budget — distinct cache keys, one underlying pool. jobs=1
        # keeps the campaign in-process so the cache is observable.
        specs = [MachineSpec("baseline", "smoke", engine="turbo",
                             instructions=n, warmup=1000)
                 for n in (2000, 3000, 4000)]
        Session().map(specs, jobs=1)
        assert len(_POOL_CACHE) == 1

    def test_cached_pool_shorter_than_requested_grows(self):
        # A short run primes the cache with a short pool; a later,
        # longer run over the same key must grow it in place (ensure()
        # appends columns) and still land on legacy-identical stats.
        session = Session()

        def stats(engine, n):
            config = CoreConfig(engine=engine)
            return session.run_workload(
                "baseline", "smoke", config=config,
                max_instructions=n, warmup=1000).stats.to_dict()

        short = stats("turbo", 2000)
        pool = next(iter(_POOL_CACHE.values()))
        rows_after_short = pool.n
        long = stats("turbo", 6000)
        assert next(iter(_POOL_CACHE.values())) is pool
        assert pool.n > rows_after_short
        # Both budgets, served from the same (grown) pool, match the
        # pool-less legacy engine exactly.
        assert short == stats("legacy", 2000)
        assert long == stats("legacy", 6000)

    def test_explicit_ensure_is_idempotent_growth(self):
        prog = generate_program(get_profile("smoke"))
        pool = StreamPool(prog, 0, BPredConfig())
        pool.ensure(100)
        n100 = pool.n
        assert n100 >= 100
        head = (list(pool.pc[:50]), list(pool.dest[:50]))
        pool.ensure(50)                     # shorter request: no-op
        assert pool.n == n100
        pool.ensure(n100 + 500)             # growth keeps the prefix
        assert pool.n >= n100 + 500
        assert list(pool.pc[:50]) == head[0]
        assert list(pool.dest[:50]) == head[1]


class TestStreamPoolMemory:
    """A paper campaign job simulates a few thousand instructions, so
    the pool must not build many more rows than that, nor hold one int
    object per row for values a program repeats."""

    def setup_method(self):
        _POOL_CACHE.clear()

    @pytest.mark.parametrize("kind", ("baseline", "flywheel"))
    def test_short_run_builds_a_short_pool(self, kind):
        execute_kind(kind, "gcc", max_instructions=1000, warmup=2000)
        (pool,) = _POOL_CACHE.values()
        assert 3000 <= pool.n <= 5 * 1024

    def test_pc_ints_are_shared_per_static_instruction(self):
        prog = generate_program(get_profile("gcc"))
        pool = StreamPool(prog, 0, BPredConfig())
        pool.ensure(20_000)
        assert len({id(pc) for pc in pool.pc}) <= prog.num_static_instrs
        plan = pool.plan(0, 192)
        plan.ensure(10_000)
        assert len({id(tags) for tags in plan.src_tags}) \
            == len(set(plan.src_tags))
