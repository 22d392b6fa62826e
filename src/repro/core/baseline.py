"""Fully synchronous baseline core: nine-stage, four-way, out-of-order.

Pipeline (Section 3.1): Fetch (two-cycle I-cache) -> Decode -> Rename ->
Dispatch -> Issue (monolithic 128-entry window, single-cycle Wake-Up/
Select) -> Register Read -> Execute -> Write Back -> Retire.

:meth:`BaselineCore.run` is the one synchronous pipeline: a fused loop
with every stage written inline (the stage-marker comments name them),
over primitive ints and dicts instead of per-instruction objects:

* the instruction oracle is a :class:`StreamPool`, the stream walk and
  the branch predictor run ahead in program order into seq-indexed
  columns (op, pc, address, predicted-correct flag, latency/unit
  gathers); the engine axis selects only where it comes from: turbo
  shares :func:`get_pool`'s cached pool per benchmark, ``"legacy"``
  walks the program afresh into a private one;
* rename is the pool's :class:`RenamePlan` (R10K tags, whose values are
  program-order deterministic) plus one ``free_count`` integer, their
  run-time availability (a renamed destination recycles exactly one tag
  at commit);
* latches are deques of ``seq`` ints plus a ``lat_ready`` dict;
* the issue window is ``not_ready``/``earliest`` dicts, a ``waiters``
  tag index, and two heaps keyed ``(earliest, seq)`` / ``seq``: entries
  are allocated in program order, so ``seq`` is the age priority;
* the ROB is ``be.rob``'s deque holding seq ints, so its length stays
  live for DVFS telemetry and metrics, plus a ``done`` bytearray indexed
  ``seq - r0``;
* a mispredicted branch is resolved by checking ``seq == mispred_seq``
  at completion: the blocking seq can only change via that branch's own
  resolution.

Architectural counters accumulate in locals and are flushed by absolute
assignment at every observation point: each DVFS interval hook
(governors read stats, occupancies and the power-event counter), a
watchdog trip, and end of run. A counter key exists iff the stage that
counts it has acted, so ``dict(stats.events)`` and the metrics snapshot
are fixed by the pins in tests/test_golden_stats.py.

The memory hierarchy, trace recorder, DVFS controller and watchdog are
the real objects, driven in stage order; the back-end structures (ROB,
LSQ, FU pools, scoreboard, wake/done queues) are the shared
:class:`ExecBackend`'s.

Modelling decisions (documented in DESIGN.md):

* Wrong paths are not executed: a mispredicted (or BTB-missing) branch
  stalls fetch until it resolves, which yields the same timing penalty as
  a squash-based model without tracking wrong-path state.
* Back-to-back scheduling: a producer issued at cycle ``c`` with latency
  ``L`` broadcasts its tag at ``c + L``; dependents can be selected the
  same cycle (the paper's critical Wake-Up/Select loop). Setting
  ``wakeup_extra_delay=1`` pipelines that loop (Fig. 2).
* ``extra_frontend_stages`` lengthens the Fetch/Mispredict loop (Fig. 2).
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Optional

from repro.core.config import ClockPlan, CoreConfig
from repro.core.engine import DeadlockWatchdog, ExecBackend
from repro.core.engine.frontend import FETCH_BUFFER_GROUPS
from repro.core.engine.turbo.pool import StreamPool, get_pool
from repro.core.stats import SimStats
from repro.errors import SimulationError
from repro.isa.registers import NUM_ARCH_REGS
from repro.issue.window import IssueWindow
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.trace import TraceRecorder
from repro.workloads.stream import InstructionStream

#: Kind-specific default for ``CoreConfig.deadlock_window == 0``.
_DEADLOCK_WINDOW = 20_000

#: extra ``done`` slots past ``max_instructions``: in-flight dispatches are
#: bounded by the ROB, which no config exceeds by this margin.
_DONE_SLACK = 4096


class BaselineCore:
    """Cycle-level model of the paper's reference superscalar processor."""

    #: Phase profile the run loop stamps, or None; attached by
    #: :func:`repro.obs.profiler.install`.
    _prof = None

    def __init__(self, config: CoreConfig, stream: InstructionStream,
                 mem_scale: float = 1.0,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 clock: Optional[ClockPlan] = None):
        self.config = config
        self.stream = stream
        self.mem_scale = mem_scale
        self.clock = clock
        self.stats = SimStats()

        self.hierarchy = hierarchy or MemoryHierarchy(config.mem)
        # The oracle. ``stream`` itself is never advanced: the pool walks
        # its own copy of the program from seq 0.
        if config.engine == "legacy":
            self.pool = StreamPool(stream.program, stream.seed,
                                   config.bpred)
        else:
            self.pool = get_pool(stream.program, stream.seed, config.bpred)
        self._seq = stream._seq        # next seq to warm up or fetch
        self.iw = IssueWindow(config.iw_entries, config.issue_width,
                              config.wakeup_extra_delay)
        self.be = ExecBackend(config, config.phys_regs)
        self.watchdog = DeadlockWatchdog(
            config.deadlock_window or _DEADLOCK_WINDOW)

        # Flight recorder (repro.obs): armed only when the config carries
        # a TraceSpec; otherwise every emission site is a dead branch.
        if config.trace is not None:
            self.trace = TraceRecorder(config.trace)
            self.hierarchy.trace = self.trace
        else:
            self.trace = None

        # Engine structures, re-exposed under their historical names.
        self.rob = self.be.rob
        self.lsq = self.be.lsq
        self.fu = self.be.fu

        self.cycle = 0
        self._fetch_blocked = False

        # Adaptive clocking: a governor in the plan attaches a controller
        # that owns the piecewise time sum and retunes mem_scale. Deferred
        # import — repro.dvfs.controller imports this package.
        if clock is not None and clock.governor is not None:
            from repro.dvfs.controller import SyncDvfsController

            self.dvfs = SyncDvfsController(clock.governor, clock.base_mhz,
                                           self)
        else:
            self.dvfs = None

    # --------------------------------------------------------------- run

    def run(self, max_instructions: int, warmup: int = 0) -> SimStats:
        """Simulate until ``max_instructions`` commit after warmup.

        ``warmup`` instructions are first streamed through the caches
        functionally (no timing), mirroring the paper's fast-forward
        before detailed simulation. ``self._prof``, when set
        (:func:`repro.obs.profiler.install`), accumulates wall seconds
        into its ``pool`` (functional warmup and rename plan) and
        ``loop`` buckets and counts executed cycles in ``ticks``.
        """
        if self.cycle:
            # The loop's latches, window and done flags are its locals.
            raise SimulationError("a BaselineCore runs once; build a new "
                                  "core for another run")
        t0 = perf_counter()
        config = self.config
        pool = self.pool
        if warmup:
            self._functional_warmup(warmup)
            if self.dvfs is not None:
                self.dvfs.reset_baseline(self)

        r0 = self._seq                     # first timed seq
        plan = pool.plan(r0, config.phys_regs)
        plan.ensure(r0 + plan.CHUNK)

        # ---- pool columns (absolute seq index; stable list identities) ----
        p_pc = pool.pc
        p_addr = pool.mem_addr
        p_nsrcs = pool.n_srcs
        p_bkind = pool.bkind
        p_correct = pool.correct
        p_isld = pool.is_load
        p_isst = pool.is_store
        p_lat = pool.lat0
        p_fu = pool.fu_kind
        p_unp = pool.unpip
        # ---- plan columns (index with seq - r0) ----
        p_dtag = plan.dest_tag
        p_stags = plan.src_tags
        p_needs = plan.needs_tag
        plan_n = plan.n

        # ---- machine bindings ----
        stats = self.stats
        events = stats.events
        be = self.be
        iw = self.iw
        hierarchy = self.hierarchy
        h_ifetch = hierarchy.ifetch
        h_load = hierarchy.load
        h_store = hierarchy.store
        rob_q = be._rob_q                  # live deque; holds seq ints here
        ready_sb = be.ready                # physical-register scoreboard
        # cycle -> [tag] / cycle -> [seq].  Promoted to
        # defaultdicts so the hot scheduling path is one indexed append; a
        # key still exists iff something was scheduled at that cycle.
        if type(be.wake_events) is dict:
            be.wake_events = defaultdict(list, be.wake_events)
        if type(be.done_events) is dict:
            be.done_events = defaultdict(list, be.done_events)
        wake_events = be.wake_events
        done_events = be.done_events
        fu = be.fu
        f_counts = fu._counts
        f_used = fu._used
        f_res = fu._reserved
        f_dirty = fu._dirty
        f_nres = fu._n_reserved
        f_zeros = fu._zeros
        tr = self.trace
        tron = tr is not None
        emit = tr.emit if tron else None
        dvfs = self.dvfs
        dvfs_next = dvfs.next_check if dvfs is not None else None
        mem_scale = self.mem_scale
        watchdog = self.watchdog
        window = watchdog.window

        # Simple-spec memory fast path: replicate the three-probe chains of
        # ``MemoryHierarchy._ifetch_fast``/``_load_fast``/``_store_fast``
        # (and ``Cache.access``) inline, with per-cache clocks and counters
        # held in locals and flushed at every observation point.  General
        # specs (MSHRs, prefetch, deep chains, write-back) keep the bound
        # method calls — their miss handling is stateful beyond a probe.
        fastmem = h_load.__func__ is MemoryHierarchy._load_fast
        if fastmem:
            l1i_c = hierarchy.l1i
            l1d_c = hierarchy.l1d
            l2_c = hierarchy.l2
            i_sets = l1i_c._sets
            i_lsh = l1i_c._line_shift
            i_sm = l1i_c._set_mask
            i_ts = l1i_c._tag_shift
            i_ways = l1i_c.ways
            d_sets = l1d_c._sets
            d_lsh = l1d_c._line_shift
            d_sm = l1d_c._set_mask
            d_ts = l1d_c._tag_shift
            d_ways = l1d_c.ways
            l2_sets = l2_c._sets
            l2_lsh = l2_c._line_shift
            l2_sm = l2_c._set_mask
            l2_ts = l2_c._tag_shift
            l2_ways = l2_c.ways
            i_clk = l1i_c._clock
            i_acc = l1i_c.stats.accesses
            i_hit = l1i_c.stats.hits
            i_miss = l1i_c.stats.misses
            i_ev = l1i_c.stats.evictions
            d_clk = l1d_c._clock
            d_acc = l1d_c.stats.accesses
            d_hit = l1d_c.stats.hits
            d_miss = l1d_c.stats.misses
            d_ev = l1d_c.stats.evictions
            d_wr = l1d_c.stats.writes
            l2_clk = l2_c._clock
            l2_acc = l2_c.stats.accesses
            l2_hit = l2_c.stats.hits
            l2_miss = l2_c.stats.misses
            l2_ev = l2_c.stats.evictions
            l2_wr = l2_c.stats.writes
            l1_lat = hierarchy._l1_lat
            l12_lat = hierarchy._l12_lat
            l1i_lat = hierarchy._l1i_lat
            l1i2_lat = hierarchy._l1i2_lat
            dram_lat = hierarchy._dram_lat
            dram_cost = max(1, round(dram_lat * mem_scale))

        # ---- config scalars ----
        fetch_width = config.fetch_width
        decode_width = config.decode_width
        rename_width = config.rename_width
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        fetch_cap = FETCH_BUFFER_GROUPS * fetch_width
        extra_fe = config.extra_frontend_stages
        wk_gate = config.wakeup_extra_delay
        regread = config.regread_stages
        rob_cap = be.rob.capacity
        iw_cap = iw.capacity
        lsq_cap = be.lsq.capacity

        # ---- loop-local machine state ----
        fetch_out = deque()                # seqs, fetch -> decode latch
        decode_out = deque()               # seqs, decode -> rename latch
        rename_out = deque()               # seqs, rename -> dispatch latch
        lready = {}                        # seq -> latch maturity cycle
        waiters = {}                       # tag -> [seq] (window wake-up index)
        not_ready = {}                     # seq -> unready source count (alive)
        earliest = {}                      # seq -> earliest selection cycle
        future = []                        # heap of (earliest, seq): wake path
        fdq = deque()                      # FIFO of (earliest, seq): dispatch
        #                                    path — (c+1, seq) is monotone, so
        #                                    arrival order IS maturity order
        eligible = []                      # heap of seq (selectable now)
        blocked = []                       # per-cycle scratch for select
        done = bytearray(max_instructions + _DONE_SLACK)   # index seq - r0
        self._r0 = r0                      # read by the deadlock snapshot
        self._done = done
        free_count = config.phys_regs - NUM_ARCH_REGS
        fs = r0                            # fetch cursor (next seq to fetch)
        rob_len = len(rob_q)
        fetch_len = 0                      # len(fetch_out), tracked as an int

        # ---- counters (absolute values; flushed by assignment) ----
        committed = stats.committed
        fetched = stats.fetched
        issued = stats.issued
        branches = stats.branches
        mispredicts = stats.mispredicts
        iw_count = iw._count
        lsq_count = be.lsq._count
        e_ic = events["icache_access"]
        e_bp = events["bpred_lookup"]
        e_dec = events["decode_op"]
        e_ren = events["rename_op"]
        e_iww = events["iw_write"]
        e_robw = events["rob_write"]
        e_lsqw = events["lsq_write"]
        e_iws = events["iw_select"]
        e_rfr = events["rf_read"]
        e_fuo = events["fu_op"]
        e_dca = events["dcache_access"]
        e_iwb = events["iw_broadcast"]
        e_rfw = events["rf_write"]
        e_robr = events["rob_read"]
        rf_touched = False                 # rf_read exists once a group issued
        # Structure counters that shadow an event 1:1 are reconstructed at
        # flush time from the event local plus a constant offset.
        offs = (iw.writes - e_iww, iw.broadcasts - e_iwb,
                be.rob.writes - e_robw, be.lsq.inserts - e_lsqw,
                fu.ops - e_fuo)

        fetch_blocked = self._fetch_blocked
        mispred_seq = -1                   # seq of the blocking branch
        fetch_resume = 0
        c = self.cycle
        last_cycle = 0
        last_count = -1
        ticks = 0

        t1 = perf_counter()

        while committed < max_instructions:
            ticks += 1
            # ------------------------------------------------ be.tick: FU reset
            if f_dirty:
                f_used[:] = f_zeros
                f_dirty = False
            if f_nres:
                remaining = 0
                for res in f_res:
                    if res:
                        res[:] = [t for t in res if t > c]
                        remaining += len(res)
                f_nres = remaining
            # ---------------------------------------------- be.tick: writeback
            wakes = wake_events.pop(c, None)
            if wakes is not None:
                for tag in wakes:
                    ready_sb[tag] = 1
                n = len(wakes)
                e_iwb += n
                e_rfw += n
                if wk_gate:
                    ready_at = c + wk_gate
                    for tag in wakes:
                        lst = waiters.pop(tag, None)
                        if not lst:
                            continue
                        for s in lst:
                            nr = not_ready.get(s)
                            if nr is None:
                                continue   # selected already (flush-only path)
                            nr -= 1
                            not_ready[s] = nr
                            er = earliest[s]
                            if ready_at > er:
                                er = earliest[s] = ready_at
                            if nr == 0:
                                heappush(future, (er, s))
                            elif nr < 0:
                                raise SimulationError(
                                    "negative wait count in issue window")
                else:
                    # Zero wake delay: a waiter was dispatched on an earlier
                    # cycle, so its earliest-selection bound is <= c and the
                    # select drain would move it to ``eligible`` this very
                    # cycle — push it there directly and skip the heap.
                    for tag in wakes:
                        lst = waiters.pop(tag, None)
                        if not lst:
                            continue
                        for s in lst:
                            nr = not_ready.get(s)
                            if nr is None:
                                continue   # selected already (flush-only path)
                            nr -= 1
                            not_ready[s] = nr
                            if nr == 0:
                                heappush(eligible, s)
                            elif nr < 0:
                                raise SimulationError(
                                    "negative wait count in issue window")
            dones = done_events.pop(c, None)
            if dones is not None:
                for s in dones:
                    done[s - r0] = 1
                    if s == mispred_seq:   # the blocking branch resolved
                        mispred_seq = -1
                        fetch_blocked = False
                        fetch_resume = c + 1
                if tron:
                    for s in dones:
                        emit(c, "complete", s)
            # ------------------------------------------------- be.tick: retire
            if rob_q and done[rob_q[0] - r0]:
                nret = 0
                while rob_q and nret < commit_width and done[rob_q[0] - r0]:
                    s = rob_q.popleft()
                    rob_len -= 1
                    addr = p_addr[s]
                    if addr is not None:
                        if p_isst[s]:
                            e_dca += 1
                            if fastmem:
                                d_clk += 1
                                d_acc += 1
                                d_wr += 1
                                line = addr >> d_lsh
                                cset = d_sets[line & d_sm]
                                ctag = line >> d_ts
                                if ctag in cset:
                                    cset[ctag] = d_clk
                                    d_hit += 1
                                else:
                                    d_miss += 1
                                    if len(cset) >= d_ways:
                                        victim = min(cset, key=cset.get)
                                        del cset[victim]
                                        d_ev += 1
                                    cset[ctag] = d_clk
                                    l2_clk += 1
                                    l2_acc += 1
                                    l2_wr += 1
                                    line = addr >> l2_lsh
                                    cset = l2_sets[line & l2_sm]
                                    ctag = line >> l2_ts
                                    if ctag in cset:
                                        cset[ctag] = l2_clk
                                        l2_hit += 1
                                    else:
                                        l2_miss += 1
                                        if len(cset) >= l2_ways:
                                            victim = min(cset, key=cset.get)
                                            del cset[victim]
                                            l2_ev += 1
                                        cset[ctag] = l2_clk
                            else:
                                h_store(addr, mem_scale, c)
                        lsq_count -= 1
                    if p_needs[s - r0]:
                        free_count += 1
                    committed += 1
                    nret += 1
                    if tron:
                        blocked.append(s)  # scratch doubles as retire list
                e_robr += nret
                if tron:
                    for s in blocked:
                        emit(c, "retire", s)
                    blocked.clear()
            # ------------------------------------------------------------ issue
            if iw_count and not (wk_gate and c & 1):
                while fdq and fdq[0][0] <= c:
                    heappush(eligible, fdq.popleft()[1])
                while future and future[0][0] <= c:
                    heappush(eligible, heappop(future)[1])
                if eligible:
                    nsel = 0
                    while eligible:
                        s = eligible[0]
                        if nsel >= issue_width:
                            break
                        heappop(eligible)
                        k = p_fu[s]
                        if f_counts[k] - f_used[k] - len(f_res[k]) > 0:
                            f_used[k] += 1
                            f_dirty = True
                            if p_unp[s]:
                                f_res[k].append(c + p_lat[s])
                                f_nres += 1
                            del not_ready[s]
                            del earliest[s]
                            iw_count -= 1
                            # schedule: wake and done events, in order
                            lat = p_lat[s]
                            if p_isld[s]:
                                e_dca += 1
                                if fastmem:
                                    addr = p_addr[s]
                                    d_clk += 1
                                    d_acc += 1
                                    line = addr >> d_lsh
                                    cset = d_sets[line & d_sm]
                                    ctag = line >> d_ts
                                    if ctag in cset:
                                        cset[ctag] = d_clk
                                        d_hit += 1
                                        lat += l1_lat
                                    else:
                                        d_miss += 1
                                        if len(cset) >= d_ways:
                                            victim = min(cset, key=cset.get)
                                            del cset[victim]
                                            d_ev += 1
                                        cset[ctag] = d_clk
                                        l2_clk += 1
                                        l2_acc += 1
                                        line = addr >> l2_lsh
                                        cset = l2_sets[line & l2_sm]
                                        ctag = line >> l2_ts
                                        if ctag in cset:
                                            cset[ctag] = l2_clk
                                            l2_hit += 1
                                            lat += l12_lat
                                        else:
                                            l2_miss += 1
                                            if len(cset) >= l2_ways:
                                                victim = min(cset, key=cset.get)
                                                del cset[victim]
                                                l2_ev += 1
                                            cset[ctag] = l2_clk
                                            lat += l12_lat + dram_cost
                                else:
                                    lat += h_load(p_addr[s], mem_scale, c)
                            if tron:
                                emit(c, "issue", s, lat)
                            wake = c + lat
                            tag = p_dtag[s - r0]
                            if tag >= 0:
                                wake_events[wake].append(tag)
                            done_events[wake + regread].append(s)
                            e_rfr += p_nsrcs[s]
                            nsel += 1
                        else:
                            blocked.append(s)
                    for s in blocked:
                        heappush(eligible, s)
                    blocked.clear()
                    if nsel:
                        issued += nsel
                        e_iws += nsel
                        e_fuo += nsel
                        rf_touched = True
                    elif tron:
                        emit(c, "stall", -1, "fu_busy")
                elif tron:
                    emit(c, "stall", -1, "dep_wait")
            # --------------------------------------------------------- dispatch
            if rename_out:
                n = 0
                while rename_out and n < dispatch_width:
                    s = rename_out[0]
                    if lready[s] > c:
                        break
                    if rob_len >= rob_cap or iw_count >= iw_cap:
                        if tron:
                            emit(c, "stall", s,
                                 "rob_full" if rob_len >= rob_cap else "iw_full")
                        break
                    addr = p_addr[s]
                    if addr is not None and lsq_count >= lsq_cap:
                        if tron:
                            emit(c, "stall", s, "lsq_full")
                        break
                    rename_out.popleft()
                    del lready[s]
                    rob_q.append(s)
                    rob_len += 1
                    if addr is not None:
                        lsq_count += 1
                        e_lsqw += 1
                    e_robw += 1
                    # window insert: stores never wait on operands
                    nr = 0
                    if not p_isst[s]:
                        for tag in p_stags[s - r0]:
                            if not ready_sb[tag]:
                                wl = waiters.get(tag)
                                if wl is None:
                                    waiters[tag] = [s]
                                else:
                                    wl.append(s)
                                nr += 1
                    not_ready[s] = nr
                    earliest[s] = c + 1
                    if not nr:
                        fdq.append((c + 1, s))
                    iw_count += 1
                    e_iww += 1
                    if tron:
                        emit(c, "dispatch", s)
                    n += 1
            # ----------------------------------------------------------- rename
            if decode_out:
                n = 0
                while decode_out and n < rename_width:
                    s = decode_out[0]
                    if lready[s] > c:
                        break
                    i = s - r0
                    if p_needs[i]:
                        if not free_count:
                            break
                        free_count -= 1
                        ready_sb[p_dtag[i]] = 0
                    decode_out.popleft()
                    lready[s] = c + 1
                    rename_out.append(s)
                    e_ren += 1
                    if tron:
                        emit(c, "rename", s)
                    n += 1
            # ----------------------------------------------------------- decode
            if fetch_out:
                n = 0
                while fetch_out and n < decode_width:
                    s = fetch_out[0]
                    if lready[s] > c:
                        break
                    fetch_out.popleft()
                    lready[s] = c + 1
                    decode_out.append(s)
                    if tron:
                        emit(c, "decode", s)
                    n += 1
                if n:
                    e_dec += n
                    fetch_len -= n
            # ------------------------------------------------------------ fetch
            if not fetch_blocked and c >= fetch_resume:
                if fetch_len < fetch_cap:
                    if fs + fetch_width > plan_n:
                        plan.ensure(fs + plan.CHUNK)
                        plan_n = plan.n
                    rdy = 0
                    n = 0
                    while n < fetch_width:
                        s = fs + n
                        if not n:
                            e_ic += 1
                            if fastmem:
                                pc = p_pc[s]
                                i_clk += 1
                                i_acc += 1
                                line = pc >> i_lsh
                                cset = i_sets[line & i_sm]
                                ctag = line >> i_ts
                                if ctag in cset:
                                    cset[ctag] = i_clk
                                    i_hit += 1
                                    rdy = c + l1i_lat + extra_fe
                                else:
                                    i_miss += 1
                                    if len(cset) >= i_ways:
                                        victim = min(cset, key=cset.get)
                                        del cset[victim]
                                        i_ev += 1
                                    cset[ctag] = i_clk
                                    l2_clk += 1
                                    l2_acc += 1
                                    line = pc >> l2_lsh
                                    cset = l2_sets[line & l2_sm]
                                    ctag = line >> l2_ts
                                    if ctag in cset:
                                        cset[ctag] = l2_clk
                                        l2_hit += 1
                                        rdy = c + l1i2_lat + extra_fe
                                    else:
                                        l2_miss += 1
                                        if len(cset) >= l2_ways:
                                            victim = min(cset, key=cset.get)
                                            del cset[victim]
                                            l2_ev += 1
                                        cset[ctag] = l2_clk
                                        rdy = c + l1i2_lat + dram_cost + extra_fe
                            else:
                                rdy = (c + h_ifetch(p_pc[s], mem_scale, c)
                                       + extra_fe)
                        lready[s] = rdy
                        fetch_out.append(s)
                        if tron:
                            emit(c, "fetch", s)
                        n += 1
                        if p_bkind[s]:
                            branches += 1
                            e_bp += 1
                            if not p_correct[s]:
                                mispredicts += 1
                                fetch_blocked = True
                                mispred_seq = s
                            break          # fetch group ends at a branch
                    fs += n
                    fetched += n
                    fetch_len += n
            # --------------------------------------------- cycle advance + run
            c += 1
            if committed != last_count:
                last_count = committed
                last_cycle = c
                if committed >= max_instructions:
                    break
            elif c - last_cycle > window:
                _flush(self, c, committed, fetched, issued, branches,
                       mispredicts, iw_count, lsq_count, e_ic, e_bp, e_dec,
                       e_ren, e_iww, e_robw, e_lsqw, e_iws, e_rfr, e_fuo,
                       e_dca, e_iwb, e_rfw, e_robr, rf_touched, offs)
                if fastmem:
                    _flush_mem(hierarchy, i_clk, i_acc, i_hit, i_miss, i_ev,
                               d_clk, d_acc, d_hit, d_miss, d_ev, d_wr,
                               l2_clk, l2_acc, l2_hit, l2_miss, l2_ev, l2_wr)
                self._fetch_blocked = fetch_blocked
                watchdog.trip(c, committed, snapshot=self._deadlock_snapshot)
            if dvfs_next is not None and c >= dvfs_next:
                _flush(self, c, committed, fetched, issued, branches,
                       mispredicts, iw_count, lsq_count, e_ic, e_bp, e_dec,
                       e_ren, e_iww, e_robw, e_lsqw, e_iws, e_rfr, e_fuo,
                       e_dca, e_iwb, e_rfw, e_robr, rf_touched, offs)
                if fastmem:
                    _flush_mem(hierarchy, i_clk, i_acc, i_hit, i_miss, i_ev,
                               d_clk, d_acc, d_hit, d_miss, d_ev, d_wr,
                               l2_clk, l2_acc, l2_hit, l2_miss, l2_ev, l2_wr)
                dvfs_next = dvfs.on_interval(self, c)
                mem_scale = self.mem_scale     # the governor may retune it
                if fastmem:
                    dram_cost = max(1, round(dram_lat * mem_scale))
            # ------------------------------------------------- idle skip-ahead
            if eligible or (rob_q and done[rob_q[0] - r0]):
                continue
            bound = None
            if not fetch_blocked:
                if c >= fetch_resume:
                    if fetch_len < fetch_cap:
                        continue           # fetch can act
                else:
                    bound = fetch_resume
            if fetch_out:
                rc = lready[fetch_out[0]]
                if rc <= c:
                    continue               # decode moves this cycle
                if bound is None or rc < bound:
                    bound = rc
            if decode_out:
                s = decode_out[0]
                rc = lready[s]
                if rc <= c:
                    if not (p_needs[s - r0] and not free_count):
                        continue           # rename moves this cycle
                elif bound is None or rc < bound:
                    bound = rc
            if rename_out:
                s = rename_out[0]
                rc = lready[s]
                if rc <= c:
                    if not (rob_len >= rob_cap or iw_count >= iw_cap
                            or (p_addr[s] is not None
                                and lsq_count >= lsq_cap)):
                        continue           # dispatch moves this cycle
                elif bound is None or rc < bound:
                    bound = rc
            if fdq:
                fmin = fdq[0][0]
                if bound is None or fmin < bound:
                    bound = fmin
            if future:
                fmin = future[0][0]
                if bound is None or fmin < bound:
                    bound = fmin
            if wake_events:
                ev = min(wake_events)
                if bound is None or ev < bound:
                    bound = ev
            if done_events:
                ev = min(done_events)
                if bound is None or ev < bound:
                    bound = ev
            if bound is not None and bound > c:
                c = bound

        # -------------------------------------------------------------- finish
        _flush(self, c, committed, fetched, issued, branches, mispredicts,
               iw_count, lsq_count, e_ic, e_bp, e_dec, e_ren, e_iww, e_robw,
               e_lsqw, e_iws, e_rfr, e_fuo, e_dca, e_iwb, e_rfw, e_robr,
               rf_touched, offs)
        if fastmem:
            _flush_mem(hierarchy, i_clk, i_acc, i_hit, i_miss, i_ev,
                       d_clk, d_acc, d_hit, d_miss, d_ev, d_wr,
                       l2_clk, l2_acc, l2_hit, l2_miss, l2_ev, l2_wr)
        fu._dirty = f_dirty
        fu._n_reserved = f_nres
        self._fetch_blocked = fetch_blocked
        stats.be_cycles_create = c
        stats.fe_cycles_active = c

        prof = self._prof
        if prof is not None:
            t2 = perf_counter()
            prof.seconds["pool"] += t1 - t0
            prof.seconds["loop"] += t2 - t1
            prof.ticks += ticks
        return stats

    def _functional_warmup(self, count: int) -> None:
        """Prime caches without timing: the next ``count`` pool rows.

        Goes through the hierarchy's ``warm_*`` entry points: contents
        and counters update exactly as a timed access would, but the
        MSHR timeline is never touched (a warmup burst at cycle 0 must
        not pre-occupy the miss-overlap budget of the timed run). The
        predictor trains inside the pool as it extends across these
        rows, every branch once, in program order.
        """
        pool = self.pool
        s0 = self._seq
        pool.ensure(s0 + count)
        w_ifetch = self.hierarchy.warm_ifetch
        w_load = self.hierarchy.warm_load
        w_store = self.hierarchy.warm_store
        wp_pc = pool.pc
        wp_addr = pool.mem_addr
        wp_isld = pool.is_load
        for s in range(s0, s0 + count):
            if not s & 3:                  # one I-cache probe per 4 instrs
                w_ifetch(wp_pc[s])
            addr = wp_addr[s]
            if addr is not None:
                if wp_isld[s]:
                    w_load(addr)
                else:
                    w_store(addr)
        self._seq = s0 + count

    def _deadlock_snapshot(self):
        """Structured machine state for the watchdog's DeadlockError."""
        be = self.be
        head = be.rob.head()               # a seq: the ROB holds seqs
        oldest = None
        if head is not None:
            pool = self.pool
            oldest = {"seq": head, "pc": pool.pc[head],
                      "op": pool.op[head].name,
                      "done": bool(self._done[head - self._r0]),
                      "is_mem": pool.mem_addr[head] is not None}
        snap = {
            "core": type(self).__name__,
            "cycle": self.cycle,
            "committed": self.stats.committed,
            "rob": {"occupancy": len(be.rob), "capacity": be.rob.capacity},
            "lsq": {"occupancy": len(be.lsq), "capacity": be.lsq.capacity},
            "iw": {"occupancy": len(self.iw), "capacity": self.iw.capacity},
            "fetch_blocked": self._fetch_blocked,
            "next_event_cycle": be.next_event_cycle(),
            "oldest": oldest,
            "mshr": self.hierarchy.stats_dict().get("mshr"),
        }
        if self.trace is not None:
            snap["trace_window"] = [list(ev)
                                    for ev in self.trace.window(256)]
        return snap


def _flush(core, c, committed, fetched, issued, branches, mispredicts,
           iw_count, lsq_count, e_ic, e_bp, e_dec, e_ren, e_iww, e_robw,
           e_lsqw, e_iws, e_rfr, e_fuo, e_dca, e_iwb, e_rfw, e_robr,
           rf_touched, offs):
    """Publish the loop's local counters to the live machine objects.

    A module-level function (not a closure) so the run loop's hot locals
    never become cell variables.  Events are assigned only when they
    changed — so a key exists afterwards iff its stage has counted —
    except ``rf_read``, which exists from the first issued group on,
    even when that group reads zero registers.
    """
    stats = core.stats
    stats.committed = committed
    stats.fetched = fetched
    stats.issued = issued
    stats.branches = branches
    stats.mispredicts = mispredicts
    core.cycle = c
    ev = stats.events
    for key, val in (("icache_access", e_ic), ("bpred_lookup", e_bp),
                     ("decode_op", e_dec), ("rename_op", e_ren),
                     ("iw_write", e_iww), ("rob_write", e_robw),
                     ("lsq_write", e_lsqw), ("iw_select", e_iws),
                     ("fu_op", e_fuo), ("dcache_access", e_dca),
                     ("iw_broadcast", e_iwb), ("rf_write", e_rfw),
                     ("rob_read", e_robr)):
        if val != ev[key]:
            ev[key] = val
    if rf_touched:
        ev["rf_read"] = e_rfr
    iw = core.iw
    iw._count = iw_count
    iw.writes = e_iww + offs[0]
    iw.broadcasts = e_iwb + offs[1]
    be = core.be
    be.rob.writes = e_robw + offs[2]
    be.lsq._count = lsq_count
    be.lsq.inserts = e_lsqw + offs[3]
    be.fu.ops = e_fuo + offs[4]


def _flush_mem(hierarchy, i_clk, i_acc, i_hit, i_miss, i_ev,
               d_clk, d_acc, d_hit, d_miss, d_ev, d_wr,
               l2_clk, l2_acc, l2_hit, l2_miss, l2_ev, l2_wr):
    """Publish the inlined fast-path cache counters to the live caches.

    Only called when the run loop took the inline memory path; absolute
    assignment, so repeated flushes are idempotent.  ``prefetches`` and
    ``writebacks`` never move on the fast path.
    """
    cache = hierarchy.l1i
    cache._clock = i_clk
    st = cache.stats
    st.accesses = i_acc
    st.hits = i_hit
    st.misses = i_miss
    st.evictions = i_ev
    cache = hierarchy.l1d
    cache._clock = d_clk
    st = cache.stats
    st.accesses = d_acc
    st.hits = d_hit
    st.misses = d_miss
    st.evictions = d_ev
    st.writes = d_wr
    cache = hierarchy.l2
    cache._clock = l2_clk
    st = cache.stats
    st.accesses = l2_acc
    st.hits = l2_hit
    st.misses = l2_miss
    st.evictions = l2_ev
    st.writes = l2_wr
