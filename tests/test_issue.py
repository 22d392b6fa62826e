"""The issue window and the dual-clock insertion delay, on real runs.

Insertion, wake-up and oldest-first select are written inline in the run
loops (``BaselineCore.run``, ``FlywheelCore.run``). So the window's rules
are checked on what a traced synchronous run dispatched and issued: the
``dispatch`` and ``issue`` events (the latter carrying the latency the
loop scheduled), against the program's data dependences from the pool
columns the loop read.
"""

from collections import Counter


from repro.core.config import FlywheelConfig
from repro.core.sim import default_config, execute_kind
from repro.execute.fu import FuPool
from repro.isa.opclasses import FuKind
from repro.isa.registers import ZERO_REG
from repro.obs.spec import TraceSpec

NEVER = float("inf")


def _fu():
    return FuPool(4, 2, 2, 2, 1)


class _Traced:
    """A traced synchronous run: per-seq dispatch cycle, issue cycle and
    scheduled latency, and each instruction's in-window producers."""

    def __init__(self, kind, bench, n=3000, w=1000, **core_fields):
        config = default_config(kind).with_variant(
            trace=TraceSpec(buffer=1 << 17, events=("dispatch", "issue")),
            **core_fields)
        result = execute_kind(kind, bench, config=config,
                              max_instructions=n, warmup=w)
        assert result.trace["dropped"] == 0
        self.stats = result.stats
        self.config = config
        self.pool = pool = result.core.pool
        self.dispatched = {}
        self.issued = {}                # seq -> (cycle, latency)
        self.order = []                 # issued seqs, in selection order
        for cycle, kind, seq, info in result.trace["events"]:
            if kind == "dispatch":
                self.dispatched[seq] = cycle
            else:
                self.issued[seq] = (cycle, info)
                self.order.append(seq)
        # The latest earlier writer of each source register, in program
        # order; a producer from the warmup was ready at the first cycle.
        last = {}
        self.producers = {}
        for seq in range(w, max(self.dispatched) + 1):
            self.producers[seq] = [last[r] for r in pool.srcs[seq]
                                   if r != ZERO_REG and r in last]
            dest = pool.dest[seq]
            if dest is not None and dest != ZERO_REG:
                last[dest] = seq

    def wake(self, seq):
        """The cycle ``seq``'s result tag broadcasts."""
        if seq not in self.issued:
            return NEVER
        cycle, latency = self.issued[seq]
        return cycle + latency

    def operands_ready(self, seq):
        """When every source of ``seq`` has broadcast (stores wait on
        none: their data drains from the store queue at commit)."""
        if self.pool.is_store[seq]:
            return 0
        return max((self.wake(p) for p in self.producers[seq]), default=0)

    def waited_on_an_operand(self, seq):
        return self.operands_ready(seq) > self.dispatched[seq]

    def per_cycle(self, kinds=None):
        """Issues per cycle, of the given FU kinds (all by default)."""
        return Counter(self.issued[s][0] for s in self.order
                       if kinds is None or self.pool.fu_kind[s] in kinds)


class TestIssueWindow:
    def test_ready_instr_issues(self):
        run = _Traced("baseline", "gcc")
        committed = range(1000, 1000 + run.stats.committed)
        assert all(run.dispatched[s] < run.issued[s][0] for s in committed)

    def test_earliest_gates_selection(self):
        # An entry is selectable from the cycle after its dispatch.
        run = _Traced("baseline", "gcc")
        assert min(run.issued[s][0] - run.dispatched[s]
                   for s in run.issued) == 1

    @staticmethod
    def _wakeup_slack(run):
        """Cycles from the last operand's broadcast to selection, over
        the entries that waited in the window for an operand."""
        slack = [run.issued[s][0] - run.operands_ready(s)
                 for s in run.issued if run.waited_on_an_operand(s)]
        assert len(slack) > 1000
        return slack

    def test_wakeup_on_broadcast(self):
        # Back-to-back: a dependent is selected in the very cycle its
        # last operand broadcasts.
        assert min(self._wakeup_slack(_Traced("baseline", "gcc"))) == 0

    def test_pipelined_wakeup_delays_dependents(self):
        # Pipelining Wake-Up/Select (Fig. 2) costs a cycle at best, and
        # a selection round completes only every other cycle.
        run = _Traced("pipelined_wakeup", "gcc")
        assert min(self._wakeup_slack(run)) == 1
        assert {cycle & 1 for cycle, _lat in run.issued.values()} == {0}

    def test_oldest_first_and_width(self):
        # No cycle issues past the width, and the oldest selectable
        # entries go first: an issued instruction never passes an older
        # one that was selectable for a unit of the same kind.
        run = _Traced("baseline", "gcc")
        width = run.config.issue_width
        assert max(run.per_cycle().values()) == width
        selectable = {s: max(run.dispatched[s] + 1, run.operands_ready(s))
                      for s in run.dispatched}
        fu_kind = run.pool.fu_kind
        passed = 0
        for seq in run.order:
            cycle = run.issued[seq][0]
            for older in range(seq - run.config.rob_entries, seq):
                if (older in selectable and selectable[older] <= cycle
                        and run.issued.get(older, (NEVER,))[0] > cycle):
                    assert fu_kind[older] != fu_kind[seq], (older, seq)
                    passed += 1
        assert passed   # younger entries did pass units that were busy

    def test_fu_constraint(self):
        # One FP adder: never two FP adds a cycle, and some FP add
        # issues later than with the Table 2 pair, which does issue two.
        one = _Traced("baseline", "equake", fp_adders=1)
        two = _Traced("baseline", "equake")
        fp_add = {FuKind.FP_ADD}
        assert max(one.per_cycle(fp_add).values()) == 1
        assert max(two.per_cycle(fp_add).values()) == 2
        assert any(one.issued[s][0] > two.issued[s][0]
                   for s in one.order if one.pool.fu_kind[s] in fp_add)

    def test_unpipelined_div_blocks_unit(self):
        # One integer mul/div unit: a divide holds it for its whole
        # latency, so no other mul/div issues until the divide is done.
        run = _Traced("baseline", "vortex", n=6000, int_muldivs=1)
        pool = run.pool
        muldiv = [s for s in run.order if pool.fu_kind[s] == FuKind.INT_MULDIV]
        divides = [s for s in muldiv if pool.unpip[s]]
        assert divides
        for div in divides:
            start = run.issued[div][0]
            busy_until = start + pool.lat0[div]
            assert not [s for s in muldiv if s != div
                        and start <= run.issued[s][0] < busy_until]

    def test_stores_never_wait(self):
        run = _Traced("baseline", "gcc")
        stores = [s for s in run.issued if run.pool.is_store[s]]
        early = [s for s in stores if run.issued[s][0] < max(
            (run.wake(p) for p in run.producers[s]), default=0)]
        assert stores and early

    def test_overflow(self):
        # A 16-entry window fills to exactly 16 and never past it.
        run = _Traced("baseline", "gcc", iw_entries=16)
        events = sorted([(c, 0, s) for s, (c, _l) in run.issued.items()]
                        + [(c, 1, s) for s, c in run.dispatched.items()])
        occupancy = peak = 0
        for _cycle, is_dispatch, _seq in events:   # issue before dispatch
            occupancy += 1 if is_dispatch else -1
            peak = max(peak, occupancy)
        assert peak == 16


class TestDualClock:
    @staticmethod
    def _min_dispatch_issue_gap(delay_network):
        # With the EC off the Flywheel never replays: every instruction
        # passes Register Update into the dual-clock window (create mode),
        # so each traced dispatch -> issue pair is one window residency.
        config = default_config("flywheel").with_variant(
            trace=TraceSpec(events=("dispatch", "issue")))
        fly = FlywheelConfig(ec_enabled=False, delay_network=delay_network)
        result = execute_kind("flywheel", "smoke", config=config, fly=fly,
                              max_instructions=1500, warmup=500)
        dispatched = {}
        gaps = []
        for cycle, kind, seq, _info in result.trace["events"]:
            if kind == "dispatch":
                dispatched[seq] = cycle
            elif seq in dispatched:
                gaps.append(cycle - dispatched.pop(seq))
        assert len(gaps) > 1000
        return min(gaps)

    def test_delay_network_adds_cycle(self):
        assert self._min_dispatch_issue_gap(False) == 1
        assert self._min_dispatch_issue_gap(True) == 2


class TestFuPool:
    def test_group_atomicity(self):
        fu = _fu()   # 1 FP muldiv
        demands = [(FuKind.FP_MULDIV, 1, 4, False),
                   (FuKind.FP_MULDIV, 1, 4, False)]
        assert not fu.try_issue_group(demands)
        # nothing was claimed by the failed attempt
        assert fu.available(FuKind.FP_MULDIV) == 1
