"""Shared fixtures."""

from collections import namedtuple
from functools import lru_cache

import pytest
from hypothesis import settings

from repro.core.config import FlywheelConfig
from repro.core.engine.turbo.pool import PooledOracle
from repro.core.sim import build_core, default_config, run_core
from repro.obs.spec import TraceSpec

#: ``--hypothesis-profile deep``: a property that leaves its example
#: budget to the profile (tests/test_oracle.py) runs this many instead of
#: the default's 100; CI runs the oracle properties under it.
settings.register_profile("deep", max_examples=2000)

#: Budget of the captured legacy runs (measured / functional warmup).
LEGACY_RUN_INSTRUCTIONS = 6000
LEGACY_RUN_WARMUP = 2000
LEGACY_RUN_SEED = 1

#: What a synchronous run renamed, read from the pool and rename-plan
#: columns the loop took it from.
RenamedInstr = namedtuple("RenamedInstr",
                          "seq dest srcs dest_tag src_tags")


class CapturedRun:
    """A finished ``engine="legacy"`` run: its core, the instructions it
    committed, and the ones renamed after them, not committed.

    On the synchronous kinds ``events`` is the loop's ``(kind, seq)``
    stream of ``rename`` and ``retire`` events, in emission order (the
    Flywheel's is empty, and its ``in_flight`` holds every instruction
    its oracle handed out past the committed ones)."""

    def __init__(self, core, committed, in_flight, events=()):
        self.core = core
        self.committed = committed
        self.in_flight = in_flight
        self.events = events


@lru_cache(maxsize=None)
def _legacy_run(kind, bench, fly=None, **core_fields):
    warmup = LEGACY_RUN_WARMUP
    if kind == "flywheel":
        return _flywheel_run(bench, warmup, fly, core_fields)
    # The one synchronous loop renames from its rename plan and emits a
    # rename and a retire event per instruction, in stage order.
    config = default_config(kind).with_variant(
        engine="legacy", trace=TraceSpec(buffer=1 << 16,
                                         events=("rename", "retire")),
        **core_fields)
    core = build_core(kind, bench, config=config, seed=LEGACY_RUN_SEED)
    stats = run_core(core, kind, LEGACY_RUN_INSTRUCTIONS, warmup).stats
    assert core.trace.dropped == 0
    events = [(kind, seq) for _c, kind, seq, _i in core.trace.events]
    retired = [seq for kind, seq in events if kind == "retire"]
    assert retired == list(range(warmup, warmup + stats.committed))
    renamed = [seq for kind, seq in events if kind == "rename"]
    assert renamed[:len(retired)] == retired

    pool = core.pool
    plan = pool.plan(warmup, config.phys_regs)

    def record(seq):
        i = seq - warmup
        return RenamedInstr(seq, pool.dest[seq], pool.srcs[seq],
                            plan.dest_tag[i], plan.src_tags[i])

    return CapturedRun(core, [record(s) for s in retired],
                       [record(s) for s in renamed[len(retired):]], events)


class _CapturingOracle(PooledOracle):
    """A Flywheel oracle that keeps every ``DynInstr`` it hands the loop
    (fetch and trace pairing; the functional warmup reads the pool rows
    itself)."""

    __slots__ = ("emitted",)

    def __init__(self, pool, start):
        super().__init__(pool, start)
        self.emitted = []

    def next_instr(self):
        dyn = super().next_instr()
        self.emitted.append(dyn)
        return dyn


def _flywheel_run(bench, warmup, fly, core_fields):
    config = default_config("flywheel").with_variant(engine="legacy",
                                                     **core_fields)
    fly = fly or FlywheelConfig(redistribution_enabled=False)
    core = build_core("flywheel", bench, config=config, fly=fly,
                      seed=LEGACY_RUN_SEED)
    oracle = core.oracle = _CapturingOracle(core.pool, core.oracle.seq)
    stats = run_core(core, "flywheel", LEGACY_RUN_INSTRUCTIONS, warmup).stats
    # No wrong-path instruction enters the machine, so the committed
    # instructions are exactly the first ``committed`` ones the oracle
    # handed out after the functional warmup.
    emitted = oracle.emitted
    committed = emitted[:stats.committed]
    assert [d.seq for d in committed] == list(
        range(warmup, warmup + stats.committed))
    return CapturedRun(core, committed, emitted[stats.committed:])


@pytest.fixture(autouse=True)
def _private_default_store(tmp_path_factory, monkeypatch):
    """Point the default result store at a per-test directory, so no
    test reads or writes the user's ``~/.cache/repro-campaign``."""
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR",
                       str(tmp_path_factory.mktemp("default-store")))


@pytest.fixture(scope="session")
def legacy_run():
    """``legacy_run(kind, bench, fly=None, **core_fields)`` runs a kind on
    the legacy engine (seed 1, 6000 measured after 2000 warmup) and
    returns a :class:`CapturedRun`, memoized per argument set.

    A synchronous kind runs traced (``rename``/``retire`` events only) and
    its records come from the pool and plan columns of the timed region;
    a Flywheel's oracle records every instruction it hands the loop, and
    it runs with redistribution off unless ``fly`` says otherwise.
    ``core_fields`` override ``CoreConfig`` fields.
    """
    return _legacy_run
