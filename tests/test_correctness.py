"""End-to-end architectural correctness: commit order and completeness.

The strongest invariant a trace-replaying machine must keep: whatever the
mode transitions, checkpoint games and wrong-path issues, the committed
instruction stream is exactly the program-order dynamic stream — every
sequence number once, in order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baseline import BaselineCore
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.flywheel import FlywheelCore
from repro.obs.spec import TraceSpec
from repro.workloads import InstructionStream, generate_program, get_profile

#: The retire stages emit one event per committed instruction.
_RETIRES = TraceSpec(buffer=1 << 16, events=("retire",))


def _committed_seqs(core, n, warmup=0):
    """Run a traced core: the seq of every committed instruction."""
    stats = core.run(n, warmup=warmup)
    assert core.trace.dropped == 0
    seqs = [seq for _cycle, _kind, seq, _info in core.trace.events]
    assert len(seqs) == stats.committed
    return seqs


def _baseline(name, seed=None):
    prog = generate_program(get_profile(name), seed=seed)
    return BaselineCore(CoreConfig(trace=_RETIRES), InstructionStream(prog))


def _flywheel(name, seed=None, clock=None):
    prog = generate_program(get_profile(name), seed=seed)
    return FlywheelCore(CoreConfig(phys_regs=512, regread_stages=2,
                                   trace=_RETIRES),
                        FlywheelConfig(), clock or ClockPlan(),
                        InstructionStream(prog))


class TestCommitOrder:
    @pytest.mark.parametrize("bench", ["smoke", "ijpeg", "gcc"])
    def test_baseline_commits_in_program_order(self, bench):
        seqs = _committed_seqs(_baseline(bench), 4000)
        assert seqs == list(range(len(seqs)))

    @pytest.mark.parametrize("bench", ["smoke", "ijpeg", "gcc", "vpr"])
    def test_flywheel_commits_in_program_order(self, bench):
        """Replay reorders issue, never commit."""
        seqs = _committed_seqs(_flywheel(bench), 6000)
        assert seqs == list(range(len(seqs)))

    def test_flywheel_order_with_fast_clocks(self):
        core = _flywheel("ijpeg",
                         clock=ClockPlan(fe_speedup=1.0, be_speedup=0.5))
        seqs = _committed_seqs(core, 6000)
        assert seqs == list(range(len(seqs)))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_flywheel_commit_order_any_seed(seed):
    core = _flywheel("smoke", seed=seed)
    seqs = _committed_seqs(core, 3000)
    assert seqs == list(range(len(seqs)))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_both_cores_commit_identical_streams(seed):
    """Same workload seed -> bit-identical committed instruction ids."""
    s_base = _committed_seqs(_baseline("smoke", seed=seed), 2500)
    s_fly = _committed_seqs(_flywheel("smoke", seed=seed), 2500)
    n = min(len(s_base), len(s_fly))
    assert s_base[:n] == s_fly[:n]
