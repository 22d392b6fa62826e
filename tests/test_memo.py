"""Per-process memos of the pure per-spec derivations.

Runs share one generated program per (profile, seed), and
``RunSpec.cache_key`` memoizes its content address per (spec, code
fingerprint). Both must be invisible: identical statistics, an
unchanged shared program after any run, and keys equal to the
unmemoized formula.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.campaign.spec as spec_module
import repro.core.sim as sim
from repro.campaign.presets import EXPERIMENTS, experiment_specs
from repro.campaign.spec import RunSpec, code_fingerprint
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig, stable_hash
from repro.core.sim import default_config, execute_kind, kind_names
from repro.dvfs.config import GOVERNOR_NAMES, GovernorConfig
from repro.mem.spec import PREFETCHERS, WRITE_POLICIES, MemorySpec
from repro.obs.spec import EVENT_KINDS, TraceSpec
from repro.session import MachineSpec
from repro.workloads import PROFILES, generate_program, get_profile

BUDGET = dict(max_instructions=1200, warmup=600)


def _structure(program) -> str:
    """Digest of everything a run reads from a program."""
    blocks = [(bid, b.pc, b.fall_block, tuple(b.instrs))
              for bid, b in sorted(program.blocks.items())]
    blob = repr((program.name, program.seed, program.entry,
                 tuple(program.regions), blocks))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(kind, engine="legacy", bench="smoke", seed=7):
    config = default_config(kind).with_variant(engine=engine)
    return execute_kind(kind, bench, config=config, seed=seed, **BUDGET)


class TestProgramMemo:
    def test_same_workload_shares_one_program(self):
        first = _run("baseline")
        second = _run("baseline")
        assert first.core.stream.program is second.core.stream.program
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_other_seed_or_profile_gets_another_program(self):
        base = sim._resolve_workload("smoke", 1)
        assert sim._resolve_workload("smoke", 1) is base
        other_seed = sim._resolve_workload("smoke", 2)
        other_bench = sim._resolve_workload("gcc", 1)
        assert other_seed is not base and other_seed.seed == 2
        assert other_bench is not base and other_bench.name == "gcc"
        assert _structure(other_seed) != _structure(base)

    def test_generates_only_on_a_miss(self, monkeypatch):
        calls = []

        def counting(profile, seed=None):
            calls.append((profile.name, seed))
            return generate_program(profile, seed=seed)

        monkeypatch.setattr(sim, "generate_program", counting)
        sim._shared_program.cache_clear()
        for _ in range(3):
            sim._resolve_workload("smoke", 11)
        assert calls == [("smoke", 11)]

    def test_public_generator_and_explicit_programs_stay_uncached(self):
        profile = get_profile("smoke")
        first = generate_program(profile, seed=3)
        assert generate_program(profile, seed=3) is not first
        assert sim._resolve_workload(profile, 3) is not first
        assert sim._resolve_workload(first, None) is first

    def test_list_spelled_profile_shares_the_tuple_program(self):
        profile = get_profile("smoke")
        listy = type(profile)(**{
            **profile.__dict__,
            **{name: list(getattr(profile, name)) for name in (
                "blocks_per_func", "instrs_per_block", "loop_trip")}})
        assert listy == profile and hash(listy) == hash(profile)
        assert (sim._resolve_workload(listy, 5)
                is sim._resolve_workload(profile, 5))

    @pytest.mark.parametrize("kind", kind_names())
    def test_legacy_runs_leave_the_program_unchanged(self, kind):
        program = sim._resolve_workload("smoke", 7)
        before = _structure(program)
        result = _run(kind)
        assert result.core.stream.program is program
        assert _structure(program) == before

    @pytest.mark.parametrize("kind", kind_names())
    def test_turbo_runs_leave_the_program_unchanged(self, kind):
        program = sim._resolve_workload("smoke", 7)
        before = _structure(program)
        turbo = _run(kind, engine="turbo")
        assert _structure(program) == before
        assert (turbo.stats.to_dict()
                == _run(kind, engine="legacy").stats.to_dict())


def _unmemoized_key(run: RunSpec) -> str:
    return stable_hash({**run.payload(), "code": code_fingerprint()},
                       length=40)


class TestCacheKeyMemo:
    def test_memoized_keys_match_the_formula_for_every_preset(self):
        specs = experiment_specs(EXPERIMENTS, benchmarks=tuple(PROFILES),
                                 instructions=1000, warmup=500)
        assert specs
        for run in specs:
            expected = _unmemoized_key(run)
            assert run.cache_key() == expected
            assert run.cache_key() == expected      # memo hit

    def test_integral_clock_spellings_share_a_key(self):
        as_int = RunSpec("flywheel", "gcc", clock=ClockPlan(base_mhz=600))
        as_float = RunSpec("flywheel", "gcc",
                           clock=ClockPlan(base_mhz=600.0))
        assert as_int.cache_key() == as_float.cache_key()
        assert (MachineSpec("flywheel", "gcc",
                            clock=ClockPlan(base_mhz=600)).cache_key()
                == as_float.cache_key())

    @pytest.mark.parametrize("order", [(0, False), (False, 0)])
    def test_int_and_bool_switch_spellings_share_a_key(self, order):
        # Whichever spelling reaches the memo first, both get the key a
        # fresh process computes for the canonical bool spelling.
        spec_module._cache_key.cache_clear()
        keys = [RunSpec("flywheel", "gcc", seed=9,
                        fly=FlywheelConfig(ec_enabled=value)).cache_key()
                for value in order]
        canonical = RunSpec("flywheel", "gcc", seed=9,
                            fly=FlywheelConfig(ec_enabled=False))
        assert keys == [_unmemoized_key(canonical)] * 2

    def test_fingerprint_change_changes_the_key(self, monkeypatch):
        run = RunSpec("baseline", "gcc", seed=4)
        before = run.cache_key()
        monkeypatch.setattr(spec_module, "code_fingerprint",
                            lambda: "0" * 12)
        changed = run.cache_key()
        assert changed != before
        assert changed == stable_hash({**run.payload(), "code": "0" * 12},
                                      length=40)
        monkeypatch.undo()
        assert run.cache_key() == before


# Specs over every axis a content address sees, for the fragment-built
# key. Integral floats and int spellings of floats are drawn on purpose:
# they must render exactly as the canonical payload renders them.
_GOVERNORS = st.one_of(st.none(), st.builds(
    GovernorConfig, name=st.sampled_from(GOVERNOR_NAMES),
    interval=st.integers(1, 5000)))
_CLOCKS = st.builds(
    ClockPlan,
    base_mhz=st.one_of(st.integers(100, 2000),
                       st.sampled_from([400.0, 950.0, 612.5])),
    fe_speedup=st.sampled_from([0, 0.25, 0.5, 1.0]),
    be_speedup=st.sampled_from([0, 0.5, 1]),
    governor=_GOVERNORS)
_MEMS = st.one_of(st.none(), st.builds(
    MemorySpec, mshrs=st.integers(0, 8),
    prefetch=st.sampled_from(PREFETCHERS),
    write_policy=st.sampled_from(WRITE_POLICIES)))
_TRACES = st.one_of(st.none(), st.builds(
    TraceSpec, buffer=st.integers(1, 4096),
    events=st.lists(st.sampled_from(EVENT_KINDS), max_size=3)
    .map(tuple)))
_CONFIGS = st.one_of(st.none(), st.builds(
    CoreConfig, iw_entries=st.sampled_from([64, 128]),
    phys_regs=st.sampled_from([192, 512]), mem=_MEMS, trace=_TRACES,
    engine=st.sampled_from([None, "legacy", "turbo"])))
_FLYS = st.one_of(st.none(), st.builds(
    FlywheelConfig, ec_kb=st.sampled_from([64, 128]),
    ec_enabled=st.sampled_from([True, False, 0, 1]),
    sync_cycles=st.integers(1, 3)))


@st.composite
def _run_specs(draw):
    kind = draw(st.sampled_from(("baseline", "pipelined_wakeup",
                                 "flywheel")))
    return RunSpec(
        kind=kind, bench=draw(st.sampled_from(("gcc", "smoke", "ijpeg"))),
        clock=draw(st.one_of(st.none(), _CLOCKS)),
        config=draw(_CONFIGS),
        fly=draw(_FLYS) if kind == "flywheel" else None,
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        instructions=draw(st.integers(1, 10**6)),
        warmup=draw(st.integers(0, 10**6)),
        mem_scale=draw(st.one_of(st.integers(1, 4),
                                 st.floats(0.25, 4.0, allow_nan=False))))


class TestFragmentKeys:
    @settings(max_examples=200, deadline=None)
    @given(run=_run_specs())
    def test_key_matches_the_whole_payload_hash(self, run):
        expected = _unmemoized_key(run)
        assert run.cache_key() == expected
        assert run.cache_key() == expected      # kept on the instance
        assert RunSpec.from_dict(run.to_dict()).cache_key() == expected
