"""Renaming properties checked on the loops that do the renaming.

The per-instruction renaming of every core is written once, inline in
its run loop: ``BaselineCore._do_rename`` for the synchronous kinds on
the legacy engine, and the ``# ---- rename phase 1``, ``# ---- Register
Update``, ``# ---- replay allocation`` and ``# ---- retire`` stages of
``FlywheelCore.run``. So these properties are checked on what a real
``engine="legacy"`` run committed (the ``legacy_run`` fixture):

* P1: every source operand reads the ``dest_tag`` of its latest
  committed producer;
* P2: on the Flywheel with redistribution off, each committed write to
  a register takes the next slot of that register's pool;
* P3: in every trace stored in the Execution Cache, LIDs count that
  trace's writes from 0 (a source reads the number of earlier writes
  to its register in the trace, a destination the number including
  itself).

P1 holds on the synchronous kinds, which shows the harness sound. On the
Flywheel all three fail today: the FRT/SRT checkpoints restart the LIDs
(``TwoPhaseRenamer.checkpoint_from_frt/_srt`` call ``reset_lids``) at the
Register Update of a trace's first instruction, after the front end has
already renamed that trace's first instructions from LID 0. The later
instructions of the trace then restart at LID 0 and alias earlier ones.
Each Flywheel case is a strict xfail carrying its measured count (bad of
checked) at the fixture's budget.
"""

import pytest

from repro.isa.registers import ZERO_REG


def _source_mismatches(committed):
    """(P1) source operands not reading their latest committed producer."""
    latest = {}
    bad = checked = 0
    for dyn in committed:
        for arch, tag in zip(dyn.srcs, dyn.src_tags):
            if arch == ZERO_REG or arch not in latest:
                continue
            checked += 1
            bad += tag != latest[arch]
        if dyn.dest is not None and dyn.dest != ZERO_REG:
            latest[dyn.dest] = dyn.dest_tag
    return bad, checked


def _pool_slot_mismatches(core, committed):
    """(P2) committed writes that skip or reuse a slot of their pool."""
    pools = core.pools
    last = {}
    bad = checked = 0
    for dyn in committed:
        arch = dyn.dest
        if arch is None or arch == ZERO_REG:
            continue
        slot = dyn.dest_tag - pools.bases[arch]
        assert 0 <= slot < pools.sizes[arch]
        if arch in last:
            checked += 1
            bad += slot != (last[arch] + 1) % pools.sizes[arch]
        last[arch] = slot
    return bad, checked


def _trace_lid_mismatches(core):
    """(P3) LIDs in stored traces that do not count the trace's writes."""
    bad = checked = 0
    for trace in core.ec._by_pc.values():
        writes = {}
        for rec in trace.program_order():
            for arch, lid in zip(rec.srcs, rec.src_lids):
                if arch == ZERO_REG:
                    continue
                checked += 1
                bad += lid != writes.get(arch, 0)
            if rec.dest is not None and rec.dest != ZERO_REG:
                writes[rec.dest] = writes.get(rec.dest, 0) + 1
                checked += 1
                bad += rec.dest_lid != writes[rec.dest]
    return bad, checked


def _assert_clean(counts):
    bad, checked = counts
    assert checked > 0
    assert bad == 0, f"{bad} of {checked} mismatched"


def test_capture_sees_the_committed_region(legacy_run):
    cap = legacy_run("baseline", "gcc")
    assert len(cap.committed) == cap.core.stats.committed == 6000
    assert cap.in_flight


@pytest.mark.parametrize("kind", ["baseline", "pipelined_wakeup"])
@pytest.mark.parametrize("bench", ["gcc", "vortex"])
def test_p1_sync_sources_read_latest_producer(legacy_run, kind, bench):
    _assert_clean(_source_mismatches(legacy_run(kind, bench).committed))


# ------------------------------------------------------------ Flywheel

def _xfail_cases(prop, counts):
    reason = ("checkpoint_from_frt/_srt restart the LIDs after the front "
              f"end renamed the trace's first instructions; {prop} "
              "{} at 6000/2000 seed 1")
    return [pytest.param(bench, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason.format(n)))
        for bench, n in counts]


@pytest.mark.parametrize("bench", _xfail_cases("P1", [
    ("gcc", "184/6087"), ("ijpeg", "78/3159"), ("vortex", "406/4945"),
    ("parser", "300/4841")]))
def test_p1_flywheel_sources_read_latest_producer(legacy_run, bench):
    _assert_clean(_source_mismatches(legacy_run("flywheel", bench).committed))


@pytest.mark.parametrize("bench", _xfail_cases("P2", [
    ("gcc", "306/4940"), ("ijpeg", "111/5360"), ("vortex", "372/4774"),
    ("parser", "324/5010")]))
def test_p2_flywheel_writes_take_next_pool_slot(legacy_run, bench):
    cap = legacy_run("flywheel", bench)
    _assert_clean(_pool_slot_mismatches(cap.core, cap.committed))


@pytest.mark.parametrize("bench", _xfail_cases("P3", [
    ("gcc", "1361/4445"), ("vortex", "1944/5586")]))
def test_p3_flywheel_trace_lids_count_from_zero(legacy_run, bench):
    _assert_clean(_trace_lid_mismatches(legacy_run("flywheel", bench).core))
