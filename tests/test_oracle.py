"""The instruction pool against the walker it stands in for.

Every core reads its instructions from a ``StreamPool``: the
synchronous loop reads its columns, the Flywheel rebuilds ``DynInstr``s
from them through a ``PooledOracle``, and one ``functional_warmup``
primes every kind's caches from them. A pool drives a real
``InstructionStream`` and ``BranchPredictor`` ahead of time, so it
should equal them by construction. These properties check that
directly, against a fresh walk of the same program, over every
profile, random program and stream seeds, two predictor configs and
random growth orders of one cached pool:

* a ``PooledOracle`` started at any row yields the walker's ``DynInstr``
  sequence from that row on, field by field (values and their types);
* the pool's ``correct`` column is a fresh predictor's verdict on each
  of the walker's branches in program order, and ``True`` elsewhere;
* ``functional_warmup`` leaves the caches and a live predictor exactly
  as warming them instruction by instruction from the walker does.

Tier-1 runs Hypothesis's default example budget, a few seconds; CI
runs ``--hypothesis-profile deep`` (registered in tests/conftest.py).
"""

from dataclasses import fields
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.engine.turbo.pool import (PooledOracle, StreamPool,
                                          functional_warmup, get_pool)
from repro.frontend.bpred import BPredConfig, BranchPredictor
from repro.isa import DynInstr, OpClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.workloads import PROFILES, generate_program
from repro.workloads.stream import InstructionStream

FIELDS = tuple(f.name for f in fields(DynInstr))
#: Rows a draw reaches: past three of the pool's 1024-row chunks.
MAX_ROWS = 3300

profiles = st.sampled_from(sorted(PROFILES))
program_seeds = st.one_of(st.none(), st.integers(0, 5))
stream_seeds = st.integers(0, 3)
bpreds = st.sampled_from((BPredConfig(), BPredConfig(history_bits=4)))


@lru_cache(maxsize=None)
def _program(profile, seed):
    return generate_program(PROFILES[profile], seed=seed)


def _fields(dyn):
    return [(name, type(value), value)
            for name, value in ((name, getattr(dyn, name))
                                for name in FIELDS)]


def _walk(program, seed, bpred, stop):
    """The walker's first ``stop`` instructions and a fresh predictor's
    verdict on each (True off-branch)."""
    walker = InstructionStream(program, seed)
    predictor = BranchPredictor(bpred)
    instrs, verdicts = [], []
    for _ in range(stop):
        dyn = walker.next_instr()
        instrs.append(dyn)
        verdicts.append(predictor.predict(dyn) if dyn.branch_kind else True)
    return instrs, verdicts


@settings(deadline=None)
@given(profile=profiles, program_seed=program_seeds,
       stream_seed=stream_seeds, bpred=bpreds,
       grows=st.lists(st.integers(1, MAX_ROWS), max_size=4),
       start=st.integers(0, MAX_ROWS - 1), length=st.integers(1, 400))
def test_pooled_oracle_replays_the_walker(profile, program_seed,
                                          stream_seed, bpred, grows, start,
                                          length):
    program = _program(profile, program_seed)
    # One cached pool, grown in a random order (and by earlier draws of
    # the same key, which are shorter or longer runs of one benchmark).
    pool = get_pool(program, stream_seed, bpred)
    for n in grows:
        pool.ensure(n)
        assert pool.n >= n
    assert get_pool(program, stream_seed, bpred) is pool

    stop = min(start + length, MAX_ROWS)
    oracle = PooledOracle(pool, start)
    got = [oracle.next_instr() for _ in range(start, stop)]
    assert oracle.seq == stop

    instrs, verdicts = _walk(program, stream_seed, bpred, stop)
    for mine, live in zip(got, instrs[start:], strict=True):
        assert _fields(mine) == _fields(live)
    assert pool.correct[:stop] == verdicts


@settings(deadline=None)
@given(profile=profiles, program_seed=program_seeds,
       stream_seed=stream_seeds, start=st.integers(0, 1500),
       count=st.integers(0, 1500))
def test_functional_warmup_is_the_walkers_warmup(profile, program_seed,
                                                 stream_seed, start, count):
    program = _program(profile, program_seed)
    bpred = BPredConfig()
    pool = StreamPool(program, stream_seed, bpred)
    hierarchy = MemoryHierarchy()
    predictor = BranchPredictor(bpred)
    assert functional_warmup(pool, hierarchy, start, count,
                             predictor) == start + count

    # The per-instruction warmup over the walker's own rows.
    instrs, _ = _walk(program, stream_seed, bpred, start + count)
    ref_hierarchy = MemoryHierarchy()
    ref_predictor = BranchPredictor(bpred)
    for dyn in instrs[start:]:
        if dyn.seq % 4 == 0:
            ref_hierarchy.warm_ifetch(dyn.pc)
        if dyn.mem_addr is not None:
            if dyn.op is OpClass.LOAD:
                ref_hierarchy.warm_load(dyn.mem_addr)
            else:
                ref_hierarchy.warm_store(dyn.mem_addr)
        if dyn.branch_kind:
            ref_predictor.predict(dyn)
    assert hierarchy.stats_dict() == ref_hierarchy.stats_dict()
    assert predictor.stats == ref_predictor.stats
    # Trained alike: both judge the next branches the same way.
    after, _ = _walk(program, stream_seed, bpred, start + count + 300)
    for dyn in after[start + count:]:
        if dyn.branch_kind:
            assert predictor.predict(dyn) == ref_predictor.predict(dyn)
