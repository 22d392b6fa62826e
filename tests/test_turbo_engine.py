"""Turbo-backend edge cases: skip-ahead vs. every observer.

Three skips bulk-advance the clocks across provably-idle spans: the
synchronous loop's idle skip-ahead, and the Flywheel's replay and
creation-mode skip-aheads. Three observers make a naive jump wrong. For
the first two skips each observer gets a pin here, once per loop. Every
kind runs one loop on both engines. The synchronous pins are values
recorded when a second synchronous loop still existed and both agreed;
the Flywheel's compare its two engines, a private pool against the
cached one:

* the DVFS governor's interval hook must fire on the same cycles
  (these two skips fire it late, after the jump; a shifted hook shifts
  every later freq-trace point);
* a flight-recorder window whose ``start`` falls inside a jumped span
  must open at the same event;
* the deadlock watchdog must trip at the same cycle with the same
  snapshot even when the no-commit window elapses inside a batch.

The creation-mode skip must be invisible to all three, so its pins
(``TestCreateSkipAhead``) compare a live run against the tick-by-tick
loop, with ``FlywheelCore._create_idle_until`` stubbed out, over
benches x machines x memory systems x governors, and count the loop
ticks it saves.

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

from repro.core.config import (ClockPlan, CoreConfig, FlywheelConfig,
                               stable_hash)
from repro.core.engine.turbo.pool import _POOL_CACHE, StreamPool, get_pool
from repro.core.flywheel import FlywheelCore
from repro.core.sim import default_config, execute_kind
from repro.dvfs import GovernorConfig
from repro.errors import ConfigError, DeadlockError
from repro.frontend.bpred import BPredConfig
from repro.mem.spec import MemorySpec
from repro.obs.profiler import profile_machine
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
    """Observers against the Flywheel's skip-ahead, on a private pool
    (legacy) and the cached one (turbo).

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


#: Recorded on the tree that still had a second synchronous loop, where
#: both engines produced them: both engines now run ``BaselineCore.run``,
#: so comparing them would compare the loop with itself. Keyed by case:
#: (freq-trace points, first retune, retunes, stable_hash(freq_trace),
#: stable_hash(stats.to_dict())) / (events emitted, stable_hash(trace
#: ring), stable_hash(stats.to_dict())) / the trip message and snapshot.
_SYNC_DVFS_PINS = {
    "occupancy": (28, [871, 855.0], 27, "42371b743df15bd3",
                  "3e1ac55167f8737f"),
    "ipc_ladder": (45, [200, 855.0], 44, "4edbfa5d9223933d",
                   "361af4493d8acbee"),
}
_SYNC_TRACE_PINS = {
    2500: (6389, "e8a0c7d0f55909e2", "c7f924a090a6ef44"),
    5001: (6588, "a91e11d9a2fb4ac7", "381e4a9c0cddfebe"),
    9000: (10356, "a352fac57ad1685b", "13bf562a22af390f"),
}


def _sync_trip_pin(window, fetch_blocked, rob, lsq, iw):
    cycle = window + 2
    return (f"no commit for {window} cycles at cycle {cycle} (committed=0)",
            {"core": "BaselineCore", "cycle": cycle, "committed": 0,
             "rob": {"occupancy": rob, "capacity": 160},
             "lsq": {"occupancy": lsq, "capacity": 64},
             "iw": {"occupancy": iw, "capacity": 128},
             "fetch_blocked": fetch_blocked, "next_event_cycle": cycle,
             "oldest": {"seq": 3000, "pc": 4560, "op": "LOAD",
                        "done": False, "is_mem": True},
             "mshr": None})


_SYNC_TRIP_PINS = {10: _sync_trip_pin(10, True, 26, 19, 19),
                   24: _sync_trip_pin(24, False, 54, 38, 37)}


class TestSyncSkipAheadEdges:
    """The same three observers against the synchronous loop's idle
    skip-ahead, on both oracles, pinned to recorded values."""

    @pytest.mark.parametrize("gov", ("occupancy", "ipc_ladder"))
    def test_jump_never_crosses_a_dvfs_interval(self, gov):
        # interval=200 is far shorter than the idle spans the loop
        # elides, so many jumps pass a boundary; the hook fires on the
        # first simulated cycle after the jump: on baseline/gcc the first
        # occupancy retune lands at BE cycle 871, where a tick-by-tick
        # run retunes at 800.
        clock = ClockPlan(governor=GovernorConfig(name=gov, interval=200))
        points, first, retunes, trace_hash, stats_hash = _SYNC_DVFS_PINS[gov]
        for result in _pair("baseline", "gcc", clock=clock):
            freq_trace = result.stats.freq_trace
            assert len(freq_trace) == points
            assert list(freq_trace[1]) == first
            assert result.stats.dvfs_retunes == retunes
            assert stable_hash(freq_trace) == trace_hash
            assert stable_hash(result.stats.to_dict()) == stats_hash

    @pytest.mark.parametrize("start", (2500, 5001, 9000))
    def test_trace_window_opening_mid_jump(self, start):
        # With the recorder armed every stall and completion emission
        # lands on its recorded cycle: the serialized ring is pinned,
        # including drop counts. No stall event is emitted inside a
        # skipped span, so the ring is not what a tick-by-tick run
        # records.
        spec = TraceSpec(buffer=1 << 16, start=start, stop=start + 1500)
        emitted, ring_hash, stats_hash = _SYNC_TRACE_PINS[start]
        for result in _pair("baseline", "gcc", trace=spec):
            assert result.trace["emitted"] == emitted
            assert result.trace["dropped"] == 0
            assert stable_hash(result.trace) == ring_hash
            assert stable_hash(result.stats.to_dict()) == stats_hash

    @pytest.mark.parametrize("window", (10, 24))
    def test_watchdog_trips_on_the_same_cycle(self, window):
        # pointer_chase stalls the back end long enough to elapse tiny
        # windows mid-run. The trip snapshot reads per-entry done flags,
        # so they must match the exact per-cycle truth at the trip point.
        message, snapshot = _SYNC_TRIP_PINS[window]
        for engine in ("legacy", "turbo"):
            config = CoreConfig(engine=engine, deadlock_window=window)
            with pytest.raises(DeadlockError) as err:
                execute_kind("baseline", "pointer_chase", config=config,
                             max_instructions=8000, warmup=3000)
            assert str(err.value) == message
            assert err.value.snapshot == snapshot


# --------------------------------------------------------------------------
# The Flywheel's creation-mode skip-ahead, against a tick-by-tick loop.

_SKIP_N, _SKIP_W = 1200, 1000

_SKIP_MACHINES = {
    "ec_off": (FlywheelConfig(ec_enabled=False), {}),
    "default": (None, {}),
    "fe100_be50": (None, {"fe_speedup": 1.0, "be_speedup": 0.5}),
}
_SKIP_MEMS = {
    "default": None,
    "mshr1": MemorySpec(mshrs=1),
    "mshr8+nl": MemorySpec(mshrs=8, prefetch="next_line"),
}
_SKIP_GOVS = {
    "none": None,
    "occupancy@200": GovernorConfig(name="occupancy", interval=200),
}
#: One in-flight write per register: rename and replay allocation wait
#: on pool capacity most of the time.
_TWO_ENTRY_POOLS = FlywheelConfig(pool_regs=128, default_pool_size=2,
                                  min_pool_size=2)
_FE100_BE50 = ClockPlan(fe_speedup=1.0, be_speedup=0.5)


_REPLAY_JUMP = FlywheelCore._replay_idle_until


def _no_jump(self, *args):
    return None


def _tick_pool_waits(self, replay, c, deadline):
    """``_replay_idle_until`` that runs replay ticks waiting on pool
    capacity one by one, as the loop did before it counted their stalls
    in bulk."""
    ap = replay.alloc_ptr
    if (ap < replay.valid_count
            and self._alloc_blocked(replay.paired[ap]) == "pool_full"):
        return None
    return _REPLAY_JUMP(self, replay, c, deadline)


def _roomier_rob(gate):
    """A ROB-checking stage gate that admits 8 entries past capacity."""
    def blocked(self, dyn):
        rob = self.rob
        rob.capacity += 8
        try:
            return gate(self, dyn)
        finally:
            rob.capacity -= 8
    return blocked


def _check_invariants(result):
    """Identities of every finished Flywheel run, jumps or not: commit
    overshoots the budget by less than one retire group, each domain's
    cycles split exactly into its two counters, EC-supplied commits are
    commits, and every cache access hits or misses."""
    stats, core = result.stats, result.core
    assert 0 <= stats.committed - _SKIP_N < core.config.commit_width
    assert (stats.be_cycles_create + stats.be_cycles_execute
            == core.be_dom.cycles)
    assert (stats.fe_cycles_active + stats.fe_cycles_gated
            == core.fe_dom.cycles)
    assert stats.instrs_from_ec <= stats.committed
    for level, counts in core.hierarchy.stats_dict().items():
        if "accesses" in counts:
            assert counts["hits"] + counts["misses"] == counts["accesses"], (
                level)


def _skip_pair(monkeypatch, bench, create=_no_jump, replay=None, fly=None,
               clock=None, **cfg_kw):
    """(live, reference) results of one Flywheel machine.

    The reference swaps ``create``/``replay`` in for the two skip
    methods (None keeps one). By default it stubs the creation-mode
    jump out, so its loop runs every creation tick, and keeps the replay
    skip-ahead. The live run must also hold the machine invariants.
    """
    def run():
        return execute_kind("flywheel", bench, config=CoreConfig(**cfg_kw),
                            fly=fly, clock=clock,
                            max_instructions=_SKIP_N, warmup=_SKIP_W)

    live = run()
    with monkeypatch.context() as m:
        if create is not None:
            m.setattr(FlywheelCore, "_create_idle_until", create)
        if replay is not None:
            m.setattr(FlywheelCore, "_replay_idle_until", replay)
        reference = run()
    _check_invariants(live)
    return live, reference


class TestCreateSkipAhead:
    """``FlywheelCore._create_idle_until`` jumps both clock domains over
    creation-mode ticks that can only wait. It must be invisible: the
    stats, cache stats, metric snapshots and trace ring of a live run
    equal those of the tick-by-tick loop, governor hooks and the
    watchdog included (DESIGN.md §8). Every live run also holds the
    machine invariants, and both skips must ask the stages' own gate
    functions (DESIGN.md §2)."""

    @pytest.mark.parametrize("gov", _SKIP_GOVS)
    @pytest.mark.parametrize("mem", _SKIP_MEMS)
    @pytest.mark.parametrize("machine", _SKIP_MACHINES)
    @pytest.mark.parametrize("bench", ("gcc", "vortex", "pointer_chase",
                                       "stream_copy"))
    def test_matches_tick_by_tick(self, monkeypatch, bench, machine, mem,
                                  gov):
        fly, speedups = _SKIP_MACHINES[machine]
        clock = ClockPlan(governor=_SKIP_GOVS[gov], **speedups)
        live, ref = _skip_pair(monkeypatch, bench, fly=fly, clock=clock,
                               mem=_SKIP_MEMS[mem])
        assert live.to_dict() == ref.to_dict()
        assert live.trace == ref.trace

    def test_pool_pressure_and_redistribution(self, monkeypatch):
        # 4-entry pools that redistribution trims toward the 2-entry
        # minimum: rename stalls on pool capacity for long inert spans,
        # and the stall counts the jump adds in bulk feed each check.
        fly = FlywheelConfig(pool_regs=256, default_pool_size=4,
                             min_pool_size=2, redistribution_interval=300)
        live, ref = _skip_pair(monkeypatch, "pointer_chase", fly=fly)
        assert live.stats.redistributions >= 2
        assert 2 in live.core.pools.sizes
        assert live.stats.rename_pool_stalls > 1000
        assert live.to_dict() == ref.to_dict()

    def test_two_entry_pools_match_tick_by_tick(self, monkeypatch):
        # With one in-flight write per register, rename (creation mode)
        # and replay allocation wait on pool capacity for thousands of
        # ticks; both jumps count those stalls in bulk. Without a
        # governor, recorder or watchdog trip the replay jump is exact
        # too, so the reference stubs both skips out.
        live, ref = _skip_pair(monkeypatch, "gcc", replay=_no_jump,
                               fly=_TWO_ENTRY_POOLS, clock=_FE100_BE50)
        assert live.stats.trace_hits > 0
        assert live.stats.rename_pool_stalls > 5000
        assert live.to_dict() == ref.to_dict()

    def test_skips_ask_the_stage_gates(self, monkeypatch):
        # Widen the ROB in the Register Update and replay allocation
        # gates only. A skip-ahead that kept its own copy of either gate
        # would still see the ROB full at its old capacity, jump over
        # ticks on which the stage admits an entry, and so leave the
        # tick-by-tick run (both skips stubbed out: without a governor,
        # recorder or watchdog trip the replay jump is exact too). A
        # 48-entry ROB fills before the 64-entry LSQ on pointer_chase,
        # so the widening matters in both modes.
        def run():
            return execute_kind("flywheel", "pointer_chase",
                                config=CoreConfig(rob_entries=48),
                                clock=_FE100_BE50, max_instructions=_SKIP_N,
                                warmup=_SKIP_W)

        narrow = run()
        for gate in ("_update_blocked", "_alloc_blocked"):
            monkeypatch.setattr(FlywheelCore, gate,
                                _roomier_rob(getattr(FlywheelCore, gate)))
        live, ref = _skip_pair(monkeypatch, "pointer_chase",
                               replay=_no_jump, clock=_FE100_BE50,
                               rob_entries=48)
        assert live.stats.trace_hits > 0
        assert live.to_dict() != narrow.to_dict()
        assert live.to_dict() == ref.to_dict()

    def test_replay_pool_waits_keep_governor_hooks_on_time(
            self, monkeypatch):
        # Replay ticks waiting on pool capacity used to run one by one,
        # so their governor hooks fired on time; the replay jump over
        # them must stop at next_check to keep every retune where it
        # was. ipc_ladder keeps retuning, so a late hook shows.
        gov = GovernorConfig(name="ipc_ladder", interval=200)
        clock = ClockPlan(fe_speedup=1.0, be_speedup=0.5, governor=gov)
        live, ref = _skip_pair(monkeypatch, "gcc", create=None,
                               replay=_tick_pool_waits,
                               fly=_TWO_ENTRY_POOLS, clock=clock)
        assert live.stats.dvfs_retunes > 0
        assert live.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("case", ("create", "replay_pool_wait"))
    def test_watchdog_trips_inside_an_inert_span(self, monkeypatch, case):
        # A blocking cache stalls creation mode for hundreds of cycles
        # per miss, and two-entry pools stall replay allocation, so each
        # window elapses inside a span a jump would cross: the trip must
        # land on the same cycle, with the same snapshot, as tick by
        # tick.
        if case == "create":
            bench, mode, window = "pointer_chase", "CREATE", 100
            fly = FlywheelConfig(ec_enabled=False)
            clock, mem = None, MemorySpec(mshrs=1)
        else:
            bench, mode, window = "gcc", "EXECUTE", 130
            fly, clock, mem = _TWO_ENTRY_POOLS, _FE100_BE50, None
        trips = []
        for stub in (False, True):
            with monkeypatch.context() as m:
                if stub:
                    m.setattr(FlywheelCore, "_create_idle_until", _no_jump)
                    m.setattr(FlywheelCore, "_replay_idle_until",
                              _tick_pool_waits)
                config = CoreConfig(mem=mem, deadlock_window=window)
                with pytest.raises(DeadlockError) as err:
                    execute_kind("flywheel", bench, config=config, fly=fly,
                                 clock=clock, max_instructions=_SKIP_N,
                                 warmup=_SKIP_W)
            assert mode in str(err.value)
            trips.append((str(err.value), err.value.snapshot))
        assert trips[0] == trips[1]

    def test_traced_run_matches(self, monkeypatch):
        # Waiting ticks emit stall events (``dep_wait``, ``pool_full``,
        # ...), so with a recorder attached no creation-mode jump and no
        # replay jump over a pool-capacity wait is taken: the ring is the
        # one of a loop that runs those ticks one by one. Two-entry pools
        # make both kinds of wait common.
        live, ref = _skip_pair(monkeypatch, "gcc", replay=_tick_pool_waits,
                               fly=_TWO_ENTRY_POOLS,
                               trace=TraceSpec(buffer=1 << 16))
        assert live.stats.trace_hits > 0
        assert live.trace["emitted"] > 0
        assert live.trace == ref.trace
        assert live.to_dict() == ref.to_dict()

    def test_jump_fires_on_memory_bound_code(self):
        # pointer_chase behind one MSHR waits in creation mode for most
        # of its cycles; the loop must execute under a quarter of the
        # BE+FE ticks it simulates.
        report = profile_machine("flywheel", "pointer_chase",
                                 config=CoreConfig(mem=MemorySpec(mshrs=1)),
                                 instructions=_SKIP_N, warmup=_SKIP_W)
        simulated = report["cycles"] + report["fe_cycles"]
        assert report["profile"]["ticks"] < simulated / 4


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
        # Every loop reads a pool, which walks its own copy of the
        # stream: no kind on either engine advances the core's stream.
        for kind in ("baseline", "pipelined_wakeup", "flywheel"):
            for engine in (None, "legacy"):
                config = default_config(kind).with_variant(engine=engine)
                core = execute_kind(kind, "smoke", config=config,
                                    max_instructions=500,
                                    warmup=300).core
                assert core.stream.next_instr().seq == 0, (kind, engine)

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
        # legacy engine's private pools exactly.
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
