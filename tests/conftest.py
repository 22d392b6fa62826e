"""Shared fixtures."""

from functools import lru_cache

import pytest

from repro.core.config import ClockPlan, FlywheelConfig
from repro.core.sim import default_config, generate_program, get_kind
from repro.workloads.profiles import get_profile
from repro.workloads.stream import InstructionStream

#: Budget of the captured legacy runs (measured / functional warmup).
LEGACY_RUN_INSTRUCTIONS = 6000
LEGACY_RUN_WARMUP = 2000
LEGACY_RUN_SEED = 1


class CapturedRun:
    """A finished ``engine="legacy"`` run: its core, the instructions it
    committed, and the ones the stream emitted after them (fetched and
    possibly renamed, not committed)."""

    def __init__(self, core, committed, in_flight):
        self.core = core
        self.committed = committed
        self.in_flight = in_flight


@lru_cache(maxsize=None)
def _legacy_run(kind, bench, fly=None, **core_fields):
    stream = InstructionStream(generate_program(get_profile(bench),
                                                seed=LEGACY_RUN_SEED))
    emitted = []
    live_next = stream.next_instr

    def next_instr():
        dyn = live_next()
        emitted.append(dyn)
        return dyn

    # Installed before the core exists: the synchronous cores bind the
    # stream's next_instr at construction.
    stream.next_instr = next_instr
    config = default_config(kind).with_variant(engine="legacy",
                                               **core_fields)
    core_cls = get_kind(kind).core_cls
    if kind == "flywheel":
        fly = fly or FlywheelConfig(redistribution_enabled=False)
        core = core_cls(config, fly, ClockPlan(), stream)
    else:
        core = core_cls(config, stream, clock=ClockPlan())
    warmup = LEGACY_RUN_WARMUP
    stats = core.run(LEGACY_RUN_INSTRUCTIONS, warmup=warmup)
    # No wrong-path instruction enters either machine, so the committed
    # instructions are exactly the first ``committed`` ones emitted after
    # the functional warmup.
    end = warmup + stats.committed
    committed = emitted[warmup:end]
    assert [d.seq for d in committed] == list(range(warmup, end))
    return CapturedRun(core, committed, emitted[end:])


@pytest.fixture(scope="session")
def legacy_run():
    """``legacy_run(kind, bench, fly=None, **core_fields)`` runs a kind on
    the legacy engine (seed 1, 6000 measured after 2000 warmup) and
    returns a :class:`CapturedRun`, memoized per argument set.

    The stream's ``next_instr`` is wrapped to record every instruction
    the run emits. A Flywheel runs with redistribution off unless ``fly``
    says otherwise; ``core_fields`` override ``CoreConfig`` fields.
    """
    return _legacy_run
