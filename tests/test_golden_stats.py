"""Golden-stats regression pins for the core refactors.

The baseline/flywheel numbers were captured from the pre-engine cores
(PR 1 tree) on the seed benchmarks; the pipelined_wakeup numbers from the
PR 2 tree that introduced the kind. Refactors over these machines are
required to be *timing-transparent*: every core, however composed, must
reproduce these counters exactly. Any change here is a modelling change,
not a refactor, and must be justified.

The same pins gate the DVFS subsystem (PR 3): a run with the ``static``
governor attached — the interval hook firing, telemetry collected, zero
ladder moves — must be bit-identical to the governor-less machine on
every pinned counter, including ``sim_time_ps`` (the piecewise time sum
must degenerate to cycles x period exactly).

The same pins gate the API redesign (PR 4): every kind is executed
through the ``Session``/``MachineSpec`` front door.

Budgets are small (8k measured / 3k warmup) so the whole module stays
cheap, but large enough that the Flywheel passes through every mode
transition (create, replay, divergence, SRT swaps).
"""

import pytest

from repro.core.config import ClockPlan, CoreConfig
from repro.dvfs import GovernorConfig
from repro.mem import MemorySpec
from repro.obs.metrics import MetricRegistry, register_core_sources
from repro.session import MachineSpec, Session

#: kind/bench -> pinned counters (captured before the engine refactor;
#: pipelined_wakeup captured when the kind was introduced).
GOLDEN = {
    "baseline/smoke": {
        "committed": 8003, "fetched": 8129, "issued": 8101,
        "be_cycles_create": 8409, "be_cycles_execute": 0,
        "fe_cycles_active": 8409, "fe_cycles_gated": 0,
        "branches": 1202, "mispredicts": 68,
        "traces_built": 0, "trace_hits": 0, "trace_misses": 0,
        "instrs_from_ec": 0, "sim_time_ps": 8854677,
        "iw_write": 8113, "iw_select": 8101, "rob_write": 8113,
        "fu_op": 8101, "dcache_access": 3555,
    },
    "flywheel/smoke": {
        "committed": 8001, "fetched": 2532, "issued": 8092,
        "be_cycles_create": 6103, "be_cycles_execute": 14707,
        "fe_cycles_active": 6364, "fe_cycles_gated": 14445,
        "branches": 1197, "mispredicts": 87,
        "traces_built": 33, "trace_hits": 92, "trace_misses": 32,
        "instrs_from_ec": 5572, "sim_time_ps": 21911877,
        "iw_write": 2532, "iw_select": 2520, "rob_write": 8104,
        "fu_op": 8505, "dcache_access": 3552,
    },
    "baseline/gcc": {
        "committed": 8000, "fetched": 8057, "issued": 8047,
        "be_cycles_create": 11351, "be_cycles_execute": 0,
        "fe_cycles_active": 11351, "fe_cycles_gated": 0,
        "branches": 253, "mispredicts": 67,
        "traces_built": 0, "trace_hits": 0, "trace_misses": 0,
        "instrs_from_ec": 0, "sim_time_ps": 11952603,
        "iw_write": 8057, "iw_select": 8047, "rob_write": 8057,
        "fu_op": 8047, "dcache_access": 3191,
    },
    "flywheel/gcc": {
        "committed": 8001, "fetched": 4012, "issued": 8032,
        "be_cycles_create": 9041, "be_cycles_execute": 12228,
        "fe_cycles_active": 9385, "fe_cycles_gated": 11883,
        "branches": 253, "mispredicts": 74,
        "traces_built": 36, "trace_hits": 88, "trace_misses": 34,
        "instrs_from_ec": 3989, "sim_time_ps": 22395204,
        "iw_write": 4012, "iw_select": 4012, "rob_write": 8057,
        "fu_op": 8640, "dcache_access": 3188,
    },
    "pipelined_wakeup/smoke": {
        "committed": 8003, "fetched": 8125, "issued": 8087,
        "be_cycles_create": 8875, "be_cycles_execute": 0,
        "fe_cycles_active": 8875, "fe_cycles_gated": 0,
        "branches": 1201, "mispredicts": 68,
        "traces_built": 0, "trace_hits": 0, "trace_misses": 0,
        "instrs_from_ec": 0, "sim_time_ps": 9345375,
        "iw_write": 8112, "iw_select": 8087, "rob_write": 8112,
        "fu_op": 8087, "dcache_access": 3553,
    },
    "pipelined_wakeup/gcc": {
        "committed": 8000, "fetched": 8057, "issued": 8047,
        "be_cycles_create": 11887, "be_cycles_execute": 0,
        "fe_cycles_active": 11887, "fe_cycles_gated": 0,
        "branches": 253, "mispredicts": 67,
        "traces_built": 0, "trace_hits": 0, "trace_misses": 0,
        "instrs_from_ec": 0, "sim_time_ps": 12517011,
        "iw_write": 8057, "iw_select": 8047, "rob_write": 8057,
        "fu_op": 8047, "dcache_access": 3191,
    },
}

_EVENT_KEYS = ("iw_write", "iw_select", "rob_write", "fu_op",
               "dcache_access")

#: The built-in machine kinds, sorted (the parity tests' parameter).
_KINDS = ("baseline", "flywheel", "pipelined_wakeup")

#: Shared session: the API-redesign acceptance gate runs every pin
#: through the ``Session``/``MachineSpec`` front door (and memoizes, so
#: tests that share a pin simulate it once).
_SESSION = Session()


def _result(kind: str, bench: str, clock=None):
    return _SESSION.run(MachineSpec(kind, bench, clock=clock,
                                    instructions=8000, warmup=3000))


def _pin_counters(stats, key: str) -> dict:
    out = {k: getattr(stats, k) for k in GOLDEN[key]
           if k not in _EVENT_KEYS}
    out.update({k: stats.events[k] for k in _EVENT_KEYS})
    return out


def _observed(kind: str, bench: str, clock=None) -> dict:
    return _pin_counters(_result(kind, bench, clock=clock).stats,
                         f"{kind}/{bench}")


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_counters(key):
    kind, bench = key.split("/")
    assert _observed(kind, bench) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_static_governor_is_timing_transparent(key):
    """governor="static" must reproduce the pinned numbers bit-for-bit.

    The controller is attached, the interval hook fires and telemetry is
    collected — but the clock never moves, so every pinned counter
    (including the piecewise ``sim_time_ps``) must match exactly.
    """
    kind, bench = key.split("/")
    clock = ClockPlan(governor=GovernorConfig(name="static"))
    assert _observed(kind, bench, clock=clock) == GOLDEN[key]


# --------------------------------------------------------------------------
# Engine-backend golden equivalence (legacy vs turbo). An engine backend
# is an implementation of the same machine, never a different machine:
# every observable — SimStats, the cache hierarchy's counters, the full
# metric registry snapshot — must be byte-identical across engines.
# Every kind has one loop on both engines (BaselineCore.run,
# FlywheelCore.run), so a pair compares the two oracles feeding it: a
# private pool walked afresh (baseline kinds) or the live instruction
# walker (the Flywheel) on legacy, against the cached pool on turbo. The
# golden pins above stay the independent reference. The
# engine is not part of the content address, so a memoizing Session
# would serve one engine's result for the other: every test below
# simulates each engine it names and asserts that it did.

#: The non-legacy engine held to the golden gate (kept as a parameter
#: so every test id names the engine it ran against legacy).
ENGINES = ("turbo",)


def _full_observables(result):
    """(stats dict, cache stats, metric snapshot) for one live-core run."""
    registry = MetricRegistry()
    register_core_sources(registry, result.core)
    return (result.stats.to_dict(),
            result.core.hierarchy.stats_dict(),
            registry.snapshot())


def _engine_pair(kind, bench, engine, config_kw=None, clock=None):
    """Full observables of a legacy run and an ``engine`` run of one
    machine, each simulated afresh."""
    session = Session()
    out = []
    for eng in ("legacy", engine):
        config = CoreConfig(engine=eng, **(config_kw or {}))
        result = session.run_workload(kind, bench, config=config,
                                      clock=clock, max_instructions=8000,
                                      warmup=3000)
        assert result.core.config.engine == eng
        out.append(_full_observables(result))
    assert session.executed == 2
    return out


@pytest.mark.parametrize("engine", ("legacy",) + ENGINES)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_engine_reproduces_golden_pins(key, engine):
    """Each engine, simulated in a fresh session, lands exactly on the
    pinned counters."""
    kind, bench = key.split("/")
    spec = MachineSpec(kind, bench, engine=engine,
                       instructions=8000, warmup=3000)
    session = Session()
    result = session.run(spec)
    assert session.executed == 1
    assert result.core.config.engine == engine
    assert _pin_counters(result.stats, key) == GOLDEN[key]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_engine_full_observable_parity(key, engine):
    """All backends: identical stats, cache stats and metric snapshot."""
    kind, bench = key.split("/")
    legacy, other = _engine_pair(kind, bench, engine)
    assert legacy == other


@pytest.mark.parametrize("gov", ("static", "occupancy", "ipc_ladder",
                                 "energy_budget"))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", _KINDS)
def test_engine_parity_under_governors(kind, engine, gov):
    """The DVFS interval hook fires at the same cycles under every engine.

    A skip-ahead may jump past an interval boundary; the hook then fires
    late, at the first simulated cycle after the jump (DESIGN.md §4).
    Both engines skip the same spans, so every governor decision — and
    therefore every counter and the piecewise ``sim_time_ps`` — is
    reproduced exactly. A tick-by-tick run would retune at other cycles.
    """
    clock = ClockPlan(governor=GovernorConfig(name=gov, interval=1000))
    legacy, other = _engine_pair(kind, "gcc", engine, clock=clock)
    assert legacy == other


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", _KINDS)
def test_engine_parity_with_mshr_memory_spec(kind, engine):
    """The general MemorySpec miss path (bounded MSHRs) is engine-neutral."""
    legacy, other = _engine_pair(kind, "gcc", engine,
                                 config_kw=dict(mem=MemorySpec(mshrs=4)))
    assert legacy == other
