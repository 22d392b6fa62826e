"""The Flywheel core: Dual Clock Issue Window + Execution Cache.

Two operating modes (Section 3):

* **Trace creation** — instructions flow through the front-end (fetch,
  decode, Rename phase 1) in the *front-end clock domain*, cross into the
  back-end domain through the dual-clock dispatch FIFO, pass Register
  Update (phase 2), and are scheduled by the monolithic issue window at
  the slow, issue-window-limited clock. Every cycle's issued group is
  recorded as an Issue Unit of the trace under construction.
* **Trace execution** — on an Execution Cache hit the front-end (including
  the Wake-Up/Select logic) is clock-gated and the back-end, clocked up to
  50% faster, consumes Issue Units straight from the EC through the fill
  buffer, VLIW-style. Register Update replays the recorded (arch, LID)
  mappings; the walker supplies fresh memory addresses and branch
  outcomes, and the first divergence from the recorded path is the
  trace-ending mispredict.

Trace boundaries (a fetch-detected mispredict or the trace-length cap)
drain the machine, seal the trace into the EC, perform the RT checkpoint
(FRT after a mispredict, the one-cycle SRT swap after a natural end) and
either start a replay (EC hit) or restart the front-end (miss).

The machine's structures — scoreboard, wake/done queues, FuPool/LSQ,
ROB, issue window, renamer, the deadlock watchdog — live in
:mod:`repro.core.engine` and their own packages. :meth:`FlywheelCore.run`
is the one pipeline over them: a fused loop with every hot stage written
inline (the stage-marker comments name them). It reads every
instruction from a :class:`PooledOracle` over a :class:`StreamPool`;
the engine axis selects only which pool (a private walk of the program,
or the cached one). The rare paths — trace boundaries, checkpoints,
redistribution, trace pairing, the replay and creation-mode skip-ahead
jumps — are methods called from that loop.

Modelled simplifications, documented in DESIGN.md: wrong paths during
creation are fetch stalls (as in the baseline); in replay, recorded
instructions past the diverging branch issue for timing/power but carry no
architectural state; the front-end drains fully at trace boundaries.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple

from repro.clocks.domain import ClockDomain
from repro.clocks.scheduler import TickScheduler
from repro.clocks.synchronizer import SyncFifo
from repro.core.config import ClockPlan, CoreConfig, FlywheelConfig
from repro.core.engine import DeadlockWatchdog, ExecBackend, FrontEndFeed
from repro.core.engine.turbo.pool import (PooledOracle, core_pool,
                                         functional_warmup)
from repro.core.stats import SimStats
from repro.ec.builder import TraceBuilder
from repro.ec.cache import ExecutionCache
from repro.ec.fill_buffer import FillBuffer
from repro.ec.trace import Trace, TraceInstr
from repro.errors import SimulationError
from repro.frontend.bpred import BranchPredictor
from repro.isa import DynInstr, OpClass
from repro.isa.opclasses import EXEC_LATENCY_TAB, FU_KIND_TAB, UNPIPELINED_TAB
from repro.issue.window import IssueWindow, IWEntry
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.trace import TraceRecorder
from repro.rename.pools import PoolFile
from repro.rename.redistribution import RedistributionController
from repro.rename.two_phase import TwoPhaseRenamer
from repro.rob.reorder_buffer import RobEntry
from repro.workloads.stream import InstructionStream

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE

#: Kind-specific default for ``CoreConfig.deadlock_window == 0``; the
#: Flywheel's checkpoint/drain sequences legitimately stall longer than
#: the synchronous cores.
_DEADLOCK_WINDOW = 40_000


class Mode(enum.Enum):
    CREATE = "create"
    EXECUTE = "execute"


class _Boundary(enum.Enum):
    NONE = 0
    MISPREDICT = 1
    NATURAL = 2


class _Replay:
    """State of one trace replay."""

    __slots__ = ("trace", "records", "paired", "valid_count", "div_pos",
                 "unit_idx", "alloc_ptr", "entries", "branch_resolved",
                 "valid_issued", "next_pc", "decision", "next_trace",
                 "n_units")

    def __init__(self, trace: Trace, records: List[TraceInstr],
                 paired: List[DynInstr], div_pos: int):
        self.trace = trace
        self.records = records
        self.paired = paired                 # program-order dynamic instrs
        self.valid_count = len(paired)
        self.div_pos = div_pos               # -1 = no divergence
        self.n_units = len(trace.units)
        self.unit_idx = 0
        self.alloc_ptr = 0
        self.entries: Dict[int, RobEntry] = {}   # trace pos -> ROB entry
        self.branch_resolved = False
        self.valid_issued = 0
        self.next_pc = (paired[div_pos].next_pc if div_pos >= 0
                        else paired[-1].next_pc)
        self.decision: Optional[str] = None   # abort-path EC decision
        self.next_trace: Optional[Trace] = None

    @property
    def all_valid_issued(self) -> bool:
        return self.valid_issued >= self.valid_count

    # Replay-issue gates, shared by the stage and the replay skip-ahead.
    def next_unit(self):
        """The Issue Unit up next, or None: all issued, or a resolved
        divergence stops the wrong path once every valid one issued."""
        if self.unit_idx >= self.n_units or (
                self.div_pos >= 0 and self.branch_resolved
                and self.valid_issued >= self.valid_count):
            return None
        return self.trace.units[self.unit_idx]

    def ready_members(self, unit, ready) -> Optional[List[TraceInstr]]:
        """The valid (pre-divergence) records of ``unit`` if each one is
        allocated and its sources are ready in ``ready``, else None."""
        recs = unit.instrs
        if self.div_pos >= 0:
            vc = self.valid_count
            recs = [rec for rec in recs if rec.pos < vc]
        ap = self.alloc_ptr
        entries = self.entries
        for rec in recs:
            if rec.pos >= ap:
                return None
            if rec.op is _STORE:
                # store data drains from the store queue at commit
                continue
            for tag in entries[rec.pos].dyn.src_tags:
                if tag >= 0 and not ready[tag]:
                    return None
        return recs


class FlywheelCore:
    """Cycle-level model of the proposed microarchitecture."""

    #: Phase profile the run loop stamps, or None; attached by
    #: :func:`repro.obs.profiler.install`.
    _prof = None

    def __init__(self, config: CoreConfig, fly: FlywheelConfig,
                 clock: ClockPlan, stream: InstructionStream,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 mem_scale: float = 1.0):
        self.config = config
        self.fly = fly
        self.clock = clock
        self.stream = stream
        #: Extra DRAM-latency multiplier (memory-sensitivity studies),
        #: applied on top of the per-domain clock scaling below.
        self.mem_scale = mem_scale
        self.stats = SimStats()
        self._events = self.stats.events

        self.hierarchy = hierarchy or MemoryHierarchy(config.mem)
        # The oracle: fetch, trace pairing and the warmup read the pool
        # through it; ``stream`` itself is never advanced.
        self.pool = core_pool(stream, config)
        self.oracle = PooledOracle(self.pool, stream._seq)
        self.bpred = BranchPredictor(config.bpred)
        self.pools = PoolFile(fly.pool_regs, fly.default_pool_size,
                              fly.min_pool_size, fly.max_pool_size)
        self.renamer = TwoPhaseRenamer()
        self.redist = RedistributionController(
            self.pools, fly.redistribution_interval,
            fly.redistribution_penalty)
        self.iw = IssueWindow(config.iw_entries, config.issue_width,
                              config.wakeup_extra_delay)
        self.be = ExecBackend(config, fly.pool_regs)
        self.watchdog = DeadlockWatchdog(
            config.deadlock_window or _DEADLOCK_WINDOW)
        # Engine structures, re-exposed under their historical names.
        self.rob = self.be.rob
        self.lsq = self.be.lsq
        self.fu = self.be.fu
        self.ec = ExecutionCache(fly)
        self.builder = TraceBuilder()
        self.fill = FillBuffer(fly.ec_block_slots, fly.ec_latency)

        # Clock domains: FE at its own speed; BE starts at the slow clock.
        self.fe_dom = ClockDomain("fe", clock.fe_mhz)
        self.be_dom = ClockDomain("be", clock.be_mhz)
        self.sched = TickScheduler([self.be_dom, self.fe_dom])

        # DRAM-latency multipliers per back-end mode; ``_be_scale`` tracks
        # the current mode so the hot loops read one attribute instead of
        # recomputing the product every tick.
        self._fe_scale = clock.mem_scale(clock.fe_mhz) * mem_scale
        self._scale_create = clock.mem_scale(clock.be_mhz) * mem_scale
        self._scale_execute = (clock.mem_scale(clock.be_fast_mhz)
                               * mem_scale)
        self._be_scale = self._scale_create

        #: Governor multiplier on the trace-execution fast clock; 1.0
        #: without a governor (``be_fast_mhz * 1.0`` below is exact).
        self._dvfs_scale = 1.0

        # FE-side latches (stamped in FE cycles) and the dual-clock FIFOs.
        self.fe = FrontEndFeed(config.fetch_width, config.decode_width,
                               self.stats)
        self._fetch_out = self.fe.fetch_out
        self._decode_out = self.fe.decode_out
        self._rename_out = self.fe.rename_out
        self._dispatch_fifo: SyncFifo[DynInstr] = SyncFifo("dispatch", 16)
        self._dispatch_q = self._dispatch_fifo._queue
        self._redirect_q = None   # bound below, after the FIFO exists
        #: fetch-restart messages, tagged with the block epoch they belong
        #: to: a redirect issued before a newer fetch stop must not unblock
        self._redirect_fifo: SyncFifo[int] = SyncFifo("redirect")
        self._redirect_q = self._redirect_fifo._queue
        self._block_epoch = 0

        # Oracle plumbing: pushed-back instructions are consumed first.
        self._oracle_buffer: Deque[DynInstr] = deque()

        # Mode / boundary state machine.
        self.mode = Mode.CREATE
        self._fe_gated = False
        self._fetch_blocked = False
        self._fe_new_trace = True       # next fetched instr starts a trace
        self._fe_trace_count = 0        # instrs fetched into current trace
        self._trace_pos_counter = 0     # program-order position at rename
        self._boundary = _Boundary.NONE
        self._boundary_branch_seq = -1
        self._boundary_resolved = False
        self._boundary_next_pc = 0
        self._builder_open = False
        self._cur_tid = -1              # storage id of trace being built
        #: a trace whose instructions have all passed Update but not yet
        #: all issued: (builder, tid, gen, skip_pc) — sealed in background
        #: while the next trace already flows (natural-boundary overlap)
        self._sealing = None
        self._outstanding: Dict[int, int] = {}   # gen -> accepted, unissued
        self._trace_run = 0             # monotonic per-trace-run counter
        #: checkpoint owed before the first Register Update of a given
        #: trace generation: gen -> 'frt' | 'srt'
        self._pending_checkpoint: Dict[int, str] = {}
        self._replay: Optional[_Replay] = None
        self._be_stall_until = 0        # checkpoint / redistribution stalls
        self._pending_redist: Optional[List[int]] = None
        self._applying_redist = False   # draining to install new pools
        self._boundary_decision: Optional[str] = None   # None/'hit'/'miss'
        self._boundary_hit: Optional[Trace] = None
        self._fe_gen = 0                # trace generation at fetch
        self._boundary_gen = 0          # generation the boundary seals
        #: boundary detected while another is still sealing, promoted when
        #: the open one closes: (kind, next_pc, branch_seq, gen)
        self._deferred_boundary: Optional[Tuple[_Boundary, int, int, int]] = None
        self._pre_update: Dict[int, int] = {}   # gen -> not yet past Update

        # Adaptive clocking (repro.dvfs): the controller scales the BE
        # domain through _dvfs_rescale at interval boundaries. Deferred
        # import — repro.dvfs.controller imports this package.
        if clock.governor is not None:
            from repro.dvfs.controller import FlywheelDvfsController

            self.dvfs = FlywheelDvfsController(clock.governor, self)
        else:
            self.dvfs = None

        # Flight recorder (repro.obs): all lifecycle events are stamped
        # on the *back-end* cycle axis — FE events read ``be_dom.cycles``
        # at emission time — so the pipeview timeline is monotone across
        # the two domains. Decode emits nothing: it happens on the FE grid
        # and has no BE-axis cycle to stamp.
        if config.trace is not None:
            self.trace = TraceRecorder(config.trace)
            self.hierarchy.trace = self.trace
        else:
            self.trace = None

    # ------------------------------------------------------------------ run

    def run(self, max_instructions: int, warmup: int = 0) -> SimStats:
        """Simulate until ``max_instructions`` commit after warmup.

        One fused loop drives both clock domains. The hot stage bodies
        (fetch, rename, dispatch, Register Update, wake-up/select, replay
        allocation and issue, writeback, retire) are written inline over
        bound locals; everything rare (boundary resolution, checkpoints,
        redistribution, trace pairing, the skip-ahead jumps) is a method
        call. Volatile attributes (mode, scales, the open builder,
        the renamer's checkpoint tables) are re-read at stage granularity
        because those methods rebind them mid-run.

        ``self._prof``, when set (:func:`repro.obs.profiler.install`),
        accumulates wall seconds into its ``pool`` (pool build +
        functional warmup) and ``loop`` buckets and counts scheduler pops
        in ``ticks``.
        """
        t0 = perf_counter()
        config = self.config
        fly = self.fly
        if warmup:
            self._functional_warmup(warmup)
            if self.dvfs is not None:
                self.dvfs.reset_baseline(self)

        # ---- stable machine bindings (object identities never change) ----
        stats = self.stats
        events = stats.events
        be = self.be
        iw = self.iw
        # Issue-window internals (heaps/waiters mutate in place and are
        # never rebound, so one binding is safe for the whole run).
        iw_future = iw._future
        iw_eligible = iw._eligible
        iw_waiters = iw._waiters
        iw_width = iw.issue_width
        wk_delay = iw.wakeup_extra_delay
        delay_net = fly.delay_network
        fu = be.fu
        fu_counts = fu._counts
        fu_used = fu._used
        fu_reserved = fu._reserved
        fu_kind_tab = FU_KIND_TAB
        unpip_tab = UNPIPELINED_TAB
        lsq = be.lsq
        rob = be.rob
        rob_q = be._rob_q
        pending = be.pending
        ready = be.ready
        wake_events = be.wake_events
        done_events = be.done_events
        on_resolved = self._on_branch_resolved
        hierarchy = self.hierarchy
        h_load = hierarchy.load
        h_store = hierarchy.store
        h_ifetch = hierarchy.ifetch
        fill = self.fill
        fe = self.fe
        fe_decode = fe.decode
        fetch_out = self._fetch_out
        decode_out = self._decode_out
        rename_out = self._rename_out
        dispatch_fifo = self._dispatch_fifo
        dispatch_q = self._dispatch_q
        redirect_fifo = self._redirect_fifo
        redirect_q = self._redirect_q
        renamer = self.renamer
        ren_lid = renamer._lid          # mutated in place, never rebound
        frt = renamer._frt              # likewise
        srt_trace = renamer._srt_trace  # likewise
        pools = self.pools
        bases = pools.bases             # recomputed in place
        inflight = pools.inflight
        highwater = pools.highwater
        pool_full = pools.full
        # Stage gates, each one function that the skip-aheads call too.
        update_blocked = self._update_blocked
        alloc_blocked = self._alloc_blocked
        redist_installable = self._redist_installable
        fetch_open = self._fetch_open
        oracle_buffer = self._oracle_buffer
        next_instr = self.oracle.next_instr
        bpred_predict = self.bpred.predict
        outstanding = self._outstanding
        pre_update = self._pre_update
        tr = self.trace
        tron = tr is not None
        emit = tr.emit if tron else None
        sched = self.sched
        be_dom = self.be_dom
        fe_dom = self.fe_dom
        dvfs = self.dvfs
        watchdog = self.watchdog
        window = watchdog.window
        lat_tab = EXEC_LATENCY_TAB
        MODE_CREATE = Mode.CREATE
        B_NONE = _Boundary.NONE
        B_MISPREDICT = _Boundary.MISPREDICT
        B_NATURAL = _Boundary.NATURAL

        dispatch_width = config.dispatch_width
        rename_width = config.rename_width
        fetch_width = config.fetch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        regread = config.regread_stages
        extra_fe = config.extra_frontend_stages
        fe_scale = self._fe_scale
        sync_cycles = fly.sync_cycles
        ec_enabled = fly.ec_enabled
        trace_cap = fly.max_trace_instrs

        last_cycle = 0
        last_count = -1
        now_ps = 0
        ticks = 0
        t1 = perf_counter()

        # The two-domain scheduler pop is inlined (ties go to the BE
        # domain, which is registered first — same as TickScheduler).
        while stats.committed < max_instructions:
            ticks += 1
            now_ps = be_dom.next_tick_ps
            if now_ps <= fe_dom.next_tick_ps:
                be_dom.next_tick_ps = now_ps + be_dom.period_ps
                be_dom.cycles += 1
                # ======================= BE tick =========================
                c = be_dom.cycles
                create = self.mode is MODE_CREATE
                if create:
                    stats.be_cycles_create += 1
                else:
                    stats.be_cycles_execute += 1
                be_scale = self._be_scale
                # ---- engine tick: FU bookkeeping, writeback, retire
                if fu._dirty:
                    fu._used[:] = fu._zeros
                    fu._dirty = False
                if fu._n_reserved:
                    remaining = 0
                    for res in fu._reserved:
                        if res:
                            res[:] = [t for t in res if t > c]
                            remaining += len(res)
                    fu._n_reserved = remaining
                wakes = wake_events.pop(c, None)
                if wakes is not None:
                    # ---- writeback: tag broadcast into the window
                    iw.broadcasts += len(wakes)
                    ready_at = c + wk_delay
                    for tag in wakes:
                        ready[tag] = 1
                        waiters = iw_waiters.pop(tag, None)
                        if not waiters:
                            continue
                        for went in waiters:
                            if went.alive:
                                nr = went.not_ready - 1
                                went.not_ready = nr
                                if ready_at > went.earliest:
                                    went.earliest = ready_at
                                if nr == 0:
                                    heappush(iw_future, (went.earliest,
                                                         went.order, went))
                                elif nr < 0:
                                    raise SimulationError(
                                        "negative wait count in issue window")
                    events["iw_broadcast"] += len(wakes)
                    events["rf_write"] += len(wakes)
                dones = done_events.pop(c, None)
                if dones is not None:
                    for entry in dones:
                        entry.done = True
                        if entry.mispredicted:
                            on_resolved(entry, c)
                    if tron:
                        for entry in dones:
                            emit(c, "complete", entry.dyn.seq)
                if rob_q and rob_q[0].done:
                    # ---- retire (+ two-phase FRT update)
                    retired = []
                    while (rob_q and len(retired) < commit_width
                           and rob_q[0].done):
                        retired.append(rob_q.popleft())
                    for entry in retired:
                        dyn = entry.dyn
                        if dyn.op is _STORE and dyn.mem_addr is not None:
                            h_store(dyn.mem_addr, be_scale, c)
                            events["dcache_access"] += 1
                        if entry.is_mem:
                            lsq.release()
                        if dyn.dest_lid >= 0:
                            arch = dyn.dest
                            frt[arch] = dyn.dest_tag - bases[arch]
                            if inflight[arch] <= 0:
                                raise SimulationError(
                                    "pool underflow on architected reg "
                                    f"{arch}")
                            inflight[arch] -= 1
                        if entry.from_ec:
                            stats.instrs_from_ec += 1
                        stats.committed += 1
                    events["rob_read"] += len(retired)
                    if tron:
                        for entry in retired:
                            emit(c, "retire", entry.dyn.seq)
                # ---- policy stages
                if c < self._be_stall_until:
                    stats.checkpoint_stall_cycles += 1
                elif redist_installable():
                    # In-flight work has drained (new renames are held in
                    # the FE): install the new pool geometry (Sec. 3.5).
                    self._apply_redistribution(c, now_ps)
                elif create:
                    # =================== CREATE mode ==================
                    if iw._count:
                        # ---- wake-up/select
                        while iw_future and iw_future[0][0] <= c:
                            item = heappop(iw_future)
                            heappush(iw_eligible, (item[1], item[2]))
                        selected = []
                        if iw_eligible:
                            blocked = []
                            while iw_eligible:
                                item = iw_eligible[0]
                                went = item[1]
                                if not went.alive:
                                    heappop(iw_eligible)
                                    continue
                                if len(selected) >= iw_width:
                                    break
                                heappop(iw_eligible)
                                op = went.dyn.op
                                kind = fu_kind_tab[op]
                                if (fu_counts[kind] - fu_used[kind]
                                        - len(fu_reserved[kind]) > 0):
                                    fu_used[kind] += 1
                                    fu._dirty = True
                                    if unpip_tab[op]:
                                        fu_reserved[kind].append(
                                            c + lat_tab[op])
                                        fu._n_reserved += 1
                                    fu.ops += 1
                                    went.alive = False
                                    iw._count -= 1
                                    selected.append(went.dyn)
                                else:
                                    blocked.append(item)
                            for item in blocked:
                                heappush(iw_eligible, item)
                        if not selected:
                            if tron:
                                emit(c, "stall", -1,
                                     "fu_busy" if iw_eligible
                                     else "dep_wait")
                        else:
                            # ---- create issue: schedule the group, record
                            # it as an Issue Unit
                            rf_reads = 0
                            for dyn in selected:
                                op = dyn.op
                                lat = lat_tab[op]
                                if op is _LOAD:
                                    lat += h_load(dyn.mem_addr, be_scale, c)
                                    events["dcache_access"] += 1
                                if tron:
                                    emit(c, "issue", dyn.seq, lat)
                                wake = c + lat
                                tag = dyn.dest_tag
                                if tag >= 0:
                                    wake_events.setdefault(
                                        wake, []).append(tag)
                                done_events.setdefault(
                                    wake + regread, []).append(
                                        pending.pop(dyn.seq))
                                rf_reads += len(dyn.src_tags)
                            group = []
                            sealing_group = []
                            sealing = self._sealing
                            sealing_gen = sealing[2] if sealing else -1
                            for dyn in selected:
                                tg = dyn.trace_gen
                                left = outstanding.get(tg, 1) - 1
                                if left:
                                    outstanding[tg] = left
                                else:
                                    outstanding.pop(tg, None)
                                if tg == sealing_gen:
                                    sealing_group.append((dyn.trace_pos,
                                                          dyn))
                                else:
                                    group.append((dyn.trace_pos, dyn))
                            if sealing_group:
                                sealing[0].record_unit(sealing_group)
                            if self._builder_open and group:
                                self.builder.record_unit(group)
                            self._finish_sealing()
                            n_sel = len(selected)
                            stats.issued += n_sel
                            events["iw_select"] += n_sel
                            events["rf_read"] += rf_reads
                            events["fu_op"] += n_sel
                    if dispatch_q:
                        # ---- Register Update: matured dispatches enter
                        # the ROB, LSQ and window
                        n = 0
                        while n < dispatch_width:
                            if not dispatch_q or dispatch_q[0][0] > now_ps:
                                break
                            dyn = dispatch_q[0][1]
                            why = update_blocked(dyn)
                            if why is not None:
                                if tron:
                                    emit(c, "stall", dyn.seq, why)
                                break
                            if (dyn.trace_start
                                    and not self._begin_trace_at_update(
                                        dyn, c)):
                                stats.checkpoint_stall_cycles += 1
                                break
                            dispatch_q.popleft()
                            events["sync_fifo_pop"] += 1
                            tg = dyn.trace_gen
                            remaining = pre_update.get(tg, 0) - 1
                            if remaining > 0:
                                pre_update[tg] = remaining
                            else:
                                pre_update.pop(tg, None)
                            # The checkpoint tables rebind at trace
                            # starts, so read them per instruction.
                            rt = renamer._rt
                            p_sizes = pools.sizes
                            tr_run = self._trace_run
                            dyn.src_tags = tuple(
                                [bases[a] + (rt[a] + l) % p_sizes[a]
                                 for a, l in zip(dyn.srcs, dyn.src_lids)])
                            dl = dyn.dest_lid
                            if dl >= 0:
                                arch = dyn.dest
                                slot = (rt[arch] + dl) % p_sizes[arch]
                                dyn.dest_tag = bases[arch] + slot
                                if tr_run >= srt_trace[arch]:
                                    renamer._srt[arch] = slot
                                    srt_trace[arch] = tr_run
                            else:
                                dyn.dest_tag = -1
                            events["update_op"] += 1
                            if dyn.dest_tag >= 0:
                                ready[dyn.dest_tag] = 0
                            entry = RobEntry(
                                dyn,
                                mispredicted=(dyn.seq
                                              == self._boundary_branch_seq))
                            rob_q.append(entry)
                            rob.writes += 1
                            pending[dyn.seq] = entry
                            if dyn.mem_addr is not None:
                                lsq.insert()
                                events["lsq_write"] += 1
                            events["rob_write"] += 1
                            # Window insertion (capacity checked above);
                            # the delay network costs one extra BE cycle.
                            went = IWEntry(dyn, 0,
                                           c + 2 if delay_net else c + 1,
                                           iw._order)
                            iw._order += 1
                            nr = 0
                            if dyn.op is not _STORE:
                                for tag in dyn.src_tags:
                                    if tag >= 0 and not ready[tag]:
                                        nr += 1
                                        iw_waiters.setdefault(
                                            tag, []).append(went)
                            went.not_ready = nr
                            if nr == 0:
                                heappush(iw_future,
                                         (went.earliest, went.order, went))
                            iw._count += 1
                            iw.writes += 1
                            if tron:
                                emit(c, "dispatch", dyn.seq)
                            outstanding[tg] = outstanding.get(tg, 0) + 1
                            events["iw_write"] += 1
                            n += 1
                    if self._boundary is not B_NONE:
                        self._try_finish_boundary(c, now_ps)
                else:
                    # ================== EXECUTE mode ==================
                    replay = self._replay
                    if replay is None:
                        raise SimulationError(
                            "EXECUTE mode without a replay")
                    entries_of = replay.entries
                    if fill._active and fill._arrived < fill._total_slots:
                        fill.tick(c)
                    ap = replay.alloc_ptr
                    vc = replay.valid_count
                    if ap < vc:
                        # ---- replay allocation: program-order Register
                        # Update + ROB/LSQ/pool allocation
                        paired = replay.paired
                        rt = renamer._rt
                        srt = renamer._srt
                        p_sizes = pools.sizes
                        tr_run = self._trace_run
                        div_pos = replay.div_pos
                        tid = replay.trace.tid
                        n = 0
                        while ap < vc and n < issue_width:
                            dyn = paired[ap]
                            why = alloc_blocked(dyn)
                            if why is not None:
                                if why == "pool_full":
                                    pools.note_stall(dyn.dest)
                                    stats.rename_pool_stalls += 1
                                if tron:
                                    emit(c, "stall", dyn.seq, why)
                                break
                            dest = dyn.dest
                            dyn.src_tags = tuple(
                                [bases[a] + (rt[a] + l) % p_sizes[a]
                                 for a, l in zip(dyn.srcs, dyn.src_lids)])
                            dl = dyn.dest_lid
                            if dl >= 0:
                                arch = dest
                                slot = (rt[arch] + dl) % p_sizes[arch]
                                dyn.dest_tag = bases[arch] + slot
                                if tr_run >= srt_trace[arch]:
                                    srt[arch] = slot
                                    srt_trace[arch] = tr_run
                            else:
                                dyn.dest_tag = -1
                            events["update_op"] += 1
                            if dl >= 0:
                                # The ready bit is cleared at *issue*, not
                                # here: units issue in order, so clearing
                                # at allocation would let a later writer
                                # reusing the pool slot mark it busy before
                                # an older consumer in an earlier unit has
                                # issued — a circular wait. Unit members
                                # are pairwise independent, so issue-time
                                # clearing is race-free.
                                v = inflight[dest] + 1
                                inflight[dest] = v
                                if v > highwater[dest]:
                                    highwater[dest] = v
                            entry = RobEntry(dyn,
                                             mispredicted=(ap == div_pos),
                                             from_ec=True, trace_id=tid)
                            rob_q.append(entry)
                            rob.writes += 1
                            entries_of[dyn.trace_pos] = entry
                            if dyn.mem_addr is not None:
                                lsq.insert()
                                events["lsq_write"] += 1
                            events["rob_write"] += 1
                            if tron:
                                emit(c, "dispatch", dyn.seq)
                            ap += 1
                            n += 1
                        replay.alloc_ptr = ap
                    unit = replay.next_unit()
                    if unit is not None:
                        # ---- replay issue: at most one recorded Issue
                        # Unit per fast cycle, once every valid member is
                        # allocated and its operands are ready (after a
                        # resolved divergence the wrong path stops here)
                        n_recs = len(unit.instrs)
                        if fill.can_consume(n_recs):
                            valid = replay.ready_members(unit, ready)
                            if (valid is not None
                                    and fu.try_issue_group(unit.demands, c)):
                                fill._consumed += n_recs
                                for rec in valid:
                                    entry = entries_of[rec.pos]
                                    dyn = entry.dyn
                                    lat = lat_tab[dyn.op]
                                    if dyn.op is _LOAD:
                                        lat += h_load(dyn.mem_addr,
                                                      be_scale, c)
                                        events["dcache_access"] += 1
                                    wake = c + lat
                                    if tron:
                                        emit(c, "issue", dyn.seq, lat)
                                    if dyn.dest_tag >= 0:
                                        ready[dyn.dest_tag] = 0
                                        wake_events.setdefault(
                                            wake, []).append(dyn.dest_tag)
                                    done_events.setdefault(
                                        wake + regread, []).append(entry)
                                replay.unit_idx += 1
                                n_valid = len(valid)
                                replay.valid_issued += n_valid
                                stats.issued += n_valid
                                events["fu_op"] += n_recs
                                events["rf_read"] += sum(
                                    len(r.srcs) for r in valid)
                    self._replay_check_end(replay, c, now_ps)
                # ---- epilogue: watchdog, governor, skip-ahead
                committed = stats.committed
                if committed != last_count:
                    last_count = committed
                    last_cycle = be_dom.cycles
                    if committed >= max_instructions:
                        break   # don't skip past the final commit's tick
                elif be_dom.cycles - last_cycle > window:
                    watchdog.trip(be_dom.cycles, committed,
                                  self._deadlock_detail,
                                  snapshot=self._deadlock_snapshot)
                # Governor interval boundary (BE cycles). The replay
                # skip-ahead below may bulk-advance past a boundary; the
                # hook then fires on the next popped BE tick with a
                # correspondingly longer interval (DESIGN.md §4).
                if dvfs is not None and be_dom.cycles >= dvfs.next_check:
                    dvfs.on_interval(self, be_dom.cycles, now_ps)
                # Replay-mode skip-ahead: with the FE clock-gated, a BE
                # tick that can only wait for a scheduled wake/done event,
                # a fill-buffer arrival or pool capacity is provably inert.
                # A done ROB head retires next tick: no skip.
                replay = self._replay
                if rob_q and rob_q[0].done:
                    pass
                elif replay is not None and self._fe_gated:
                    c = be_dom.cycles
                    if c >= self._be_stall_until:
                        self._replay_idle_until(replay, c,
                                                last_cycle + window + 1)
                elif (self.mode is MODE_CREATE and not tron
                      and not iw_eligible):
                    # Creation-mode skip-ahead: both domains jump over
                    # ticks that can only wait, behind the same cheap
                    # vetoes as the baseline's (DESIGN.md §8).
                    self._create_idle_until(be_dom.cycles,
                                            last_cycle + window + 1)
            elif self._fe_gated:
                # Clock-gated front end: gating only changes on a BE tick,
                # so every FE tick strictly before the next BE tick is
                # provably idle — let the scheduler skip ahead in bulk.
                now_ps = fe_dom.next_tick_ps
                fe_ticks = sched.drain_until(fe_dom, be_dom.next_tick_ps)
                fe_dom.gated_cycles += fe_ticks
                stats.fe_cycles_gated += fe_ticks
            else:
                # ======================= FE tick =========================
                now_ps = fe_dom.next_tick_ps
                fe_dom.next_tick_ps = now_ps + fe_dom.period_ps
                fe_dom.cycles += 1
                stats.fe_cycles_active += 1
                fe_c = fe_dom.cycles
                if redirect_q:
                    for epoch in redirect_fifo.pop_ready(now_ps):
                        if epoch == self._block_epoch:
                            self._fetch_blocked = False
                if rename_out:
                    # ---- dispatch into the dual-clock FIFO
                    latency_ps = sync_cycles * be_dom.period_ps
                    n = 0
                    while rename_out and n < dispatch_width:
                        dyn = rename_out[0]
                        if dyn.lat_ready > fe_c or dispatch_fifo.full:
                            break
                        rename_out.popleft()
                        dispatch_q.append((now_ps + latency_ps, dyn))
                        events["sync_fifo_push"] += 1
                        n += 1
                if decode_out and not self._applying_redist:
                    # ---- rename phase 1 (held while pools are resized)
                    be_c = be_dom.cycles
                    n = 0
                    while decode_out and n < rename_width:
                        dyn = decode_out[0]
                        if dyn.lat_ready > fe_c:
                            break
                        if dyn.trace_start:
                            # Phase-1 state restarts with the trace
                            # (Section 3.5).
                            renamer.reset_lids()
                            self._trace_pos_counter = 0
                        dest = dyn.dest
                        if pool_full(dest):
                            pools.note_stall(dest)
                            stats.rename_pool_stalls += 1
                            if tron:
                                emit(be_c, "stall", dyn.seq, "pool_full")
                            break
                        decode_out.popleft()
                        dyn.src_lids = tuple([ren_lid[s] for s in dyn.srcs])
                        if dest is None or dest == 0:
                            dyn.dest_lid = -1
                        else:
                            lid_v = ren_lid[dest] + 1
                            ren_lid[dest] = lid_v
                            dyn.dest_lid = lid_v
                            v = inflight[dest] + 1
                            inflight[dest] = v
                            if v > highwater[dest]:
                                highwater[dest] = v
                        dyn.trace_pos = self._trace_pos_counter
                        self._trace_pos_counter += 1
                        dyn.lat_ready = fe_c + 1
                        rename_out.append(dyn)
                        if tron:
                            emit(be_c, "rename", dyn.seq)
                        events["rename_op"] += 1
                        n += 1
                if fetch_out:
                    fe_decode(fe_c)
                if fetch_open():
                    # ---- fetch (bounded buffering: don't run ahead)
                    be_c = be_dom.cycles
                    delay = 0
                    for i in range(fetch_width):
                        if oracle_buffer:
                            dyn = oracle_buffer.popleft()
                        else:
                            dyn = next_instr()
                        if i == 0:
                            delay = (h_ifetch(dyn.pc, fe_scale, fe_c)
                                     + extra_fe)
                            events["icache_access"] += 1
                        if self._fe_new_trace:
                            dyn.trace_start = True
                            self._fe_new_trace = False
                            self._fe_trace_count = 0
                            self._fe_gen += 1
                        g = self._fe_gen
                        dyn.trace_gen = g
                        pre_update[g] = pre_update.get(g, 0) + 1
                        dyn.lat_ready = fe_c + delay
                        fetch_out.append(dyn)
                        if tron:
                            emit(be_c, "fetch", dyn.seq)
                        stats.fetched += 1
                        count = self._fe_trace_count + 1
                        self._fe_trace_count = count
                        # Natural trace end at the length cap, aligned to
                        # a stable PC: ending exactly at the cap would
                        # start the next trace at an arbitrary, phase-
                        # shifting mid-loop address that never recurs.
                        # Past the cap the trace extends to the next taken
                        # backward branch (a loop back-edge), so its
                        # successor starts at the loop head; twice the cap
                        # is a hard bound.
                        if dyn.branch_kind:
                            stats.branches += 1
                            events["bpred_lookup"] += 1
                            if not bpred_predict(dyn):
                                stats.mispredicts += 1
                                self._begin_boundary(B_MISPREDICT, dyn)
                                break
                            if ec_enabled and count >= trace_cap and (
                                    (dyn.taken and dyn.target_pc <= dyn.pc)
                                    or count >= 2 * trace_cap):
                                self._begin_boundary(B_NATURAL, dyn)
                                break
                            break  # fetch group ends at a control transfer
                        if (ec_enabled and count >= trace_cap
                                and count >= 2 * trace_cap):
                            self._begin_boundary(B_NATURAL, dyn)
                            break

        stats.sim_time_ps = now_ps
        prof = self._prof
        if prof is not None:
            t2 = perf_counter()
            prof.seconds["pool"] += t1 - t0
            prof.seconds["loop"] += t2 - t1
            prof.ticks += ticks
        return stats

    def _deadlock_detail(self) -> str:
        return (f" (BE cycles; mode={self.mode}, "
                f"boundary={self._boundary}, rob={len(self.rob)}, "
                f"iw={len(self.iw)}, fifo={len(self._dispatch_fifo)})")

    def _deadlock_snapshot(self):
        """Structured machine state for the watchdog's DeadlockError."""
        be = self.be
        head = be.rob.head()
        oldest = None
        if head is not None:
            dyn = head.dyn
            oldest = {"seq": dyn.seq, "pc": dyn.pc, "op": dyn.op.name,
                      "done": head.done, "is_mem": head.is_mem}
        snap = {
            "core": type(self).__name__,
            "cycle": self.be_dom.cycles,
            "committed": self.stats.committed,
            "mode": str(self.mode),
            "boundary": str(self._boundary),
            "rob": {"occupancy": len(be.rob), "capacity": be.rob.capacity},
            "lsq": {"occupancy": len(be.lsq), "capacity": be.lsq.capacity},
            "iw": {"occupancy": len(self.iw), "capacity": self.iw.capacity},
            "dispatch_fifo": len(self._dispatch_fifo),
            "outstanding": dict(self._outstanding),
            "fe_gated": self._fe_gated,
            "fetch_blocked": self._fetch_blocked,
            "next_event_cycle": be.next_event_cycle(),
            "oldest": oldest,
            "mshr": self.hierarchy.stats_dict().get("mshr"),
        }
        if self.trace is not None:
            snap["trace_window"] = [list(ev)
                                    for ev in self.trace.window(256)]
        return snap

    def _functional_warmup(self, count: int) -> None:
        # A method so that perfbench/spans.py can time it per kind.
        oracle = self.oracle
        oracle.seq = functional_warmup(self.pool, self.hierarchy, oracle.seq,
                                       count, self.bpred)

    def _next_oracle(self) -> DynInstr:
        if self._oracle_buffer:
            return self._oracle_buffer.popleft()
        return self.oracle.next_instr()

    # ----------------------------------------------------- trace boundaries

    def _begin_boundary(self, kind: _Boundary, last_dyn: DynInstr) -> None:
        """Stop fetch; the BE seals the trace once it drains.

        If the previous trace's boundary is still sealing, the new one is
        parked and promoted when the old one closes (at most one can be
        pending because fetch stops immediately).
        """
        self._fetch_blocked = True
        self._block_epoch += 1
        self._fe_new_trace = True
        branch_seq = last_dyn.seq if kind is _Boundary.MISPREDICT else -1
        if self._boundary is not _Boundary.NONE:
            self._deferred_boundary = (kind, last_dyn.next_pc, branch_seq,
                                       self._fe_gen)
            return
        self._install_boundary(kind, last_dyn.next_pc, branch_seq,
                               self._fe_gen)

    def _install_boundary(self, kind: _Boundary, next_pc: int,
                          branch_seq: int, gen: int) -> None:
        self._boundary = kind
        self._boundary_gen = gen
        self._boundary_next_pc = next_pc
        self._boundary_branch_seq = branch_seq
        self._boundary_resolved = kind is _Boundary.NATURAL

    # ------------------------------------------------------- modes and clocks

    def _set_mode(self, mode: Mode) -> None:
        """Switch operating mode and the mode-derived DRAM scale."""
        self.mode = mode
        self._be_scale = (self._scale_execute if mode is Mode.EXECUTE
                          else self._scale_create)

    def _dvfs_rescale(self, scale: float, now_ps: int) -> None:
        """Apply a governor ladder move to the trace-execution clock.

        The governor re-divides the fast master clock: only the
        trace-execution (EC replay) frequency moves; the trace-creation
        clock stays at the issue-window-limited ``be_mhz``, whose period
        the window's single-cycle Wake-Up/Select loop dictates — there is
        no slack to give back there, and throttling it lengthens every
        serialization (drain, checkpoint, refill) on the critical path.
        The EXECUTE-mode DRAM multiplier is rebuilt (DRAM time is fixed
        in nanoseconds, so a rescaled clock sees proportionally rescaled
        stall cycles); if currently replaying, ``be_dom`` retimes
        immediately via ``ClockDomain.set_frequency``, otherwise the new
        divisor takes effect at the next mode switch.
        """
        self._dvfs_scale = scale
        clock = self.clock
        self._scale_execute = (clock.mem_scale(clock.be_fast_mhz * scale)
                               * self.mem_scale)
        if self.mode is Mode.EXECUTE:
            self._be_scale = self._scale_execute
            self.be_dom.set_frequency(clock.be_fast_mhz * scale, now_ps)

    # Writeback hook: a completed entry flagged mispredicted resolves the
    # boundary branch (CREATE) or the replay's diverging branch (EXECUTE).
    def _on_branch_resolved(self, entry: RobEntry, _c: int) -> None:
        if self.mode is Mode.CREATE:
            if entry.dyn.seq == self._boundary_branch_seq:
                self._boundary_resolved = True
        elif self._replay is not None:
            self._replay.branch_resolved = True

    # ----------------------------------------------------- CREATE mode (BE)

    def _begin_trace_at_update(self, dyn: DynInstr, c: int) -> bool:
        """Handle the first Register Update of a new trace.

        Performs the checkpoint owed to this generation (FRT: stall until
        the previous trace retires; SRT: one-cycle swap) and opens the
        trace builder. Returns False while the Update must still wait.
        """
        if self._update_waits(dyn):
            return False
        due = [g for g in self._pending_checkpoint if g <= dyn.trace_gen]
        if due:
            if "frt" in {self._pending_checkpoint[g] for g in due}:
                # the ROB has drained (_update_waits)
                self._checkpoint_frt_now()
                for g in due:
                    del self._pending_checkpoint[g]
            else:
                # All older Updates have passed (the FIFO is in order), so
                # the SRT swap can happen now at a one-cycle penalty.
                self._checkpoint_srt_now(c)
                for g in due:
                    del self._pending_checkpoint[g]
                return False    # consume the swap cycle before accepting
        self._cur_tid = self.ec.alloc_tid()
        self._trace_run += 1
        self.builder.begin(dyn.pc)
        self._builder_open = True
        dyn.trace_start = False    # consume the marker
        return True

    def _finish_sealing(self) -> None:
        """Store the backgrounded trace once its last instruction issues."""
        if self._sealing is None:
            return
        builder, tid, gen, skip_pc = self._sealing
        if self._outstanding.get(gen, 0):
            return
        self._sealing = None
        trace = builder.seal(tid)
        if trace is None:
            return
        self.stats.traces_built += 1
        if self.fly.ec_enabled and trace.start_pc != skip_pc:
            self.ec.insert(trace)
            self.stats.count("ec_block_write",
                             trace.blocks(self.fly.ec_block_slots))

    def _update_drained(self) -> bool:
        """All instructions of the sealing trace have passed Update.

        New-trace instructions may already be queued behind them (they are
        held at the Update stage), so the check counts only the boundary
        generation.
        """
        return self._pre_update.get(self._boundary_gen, 0) == 0

    def _issue_drained(self) -> bool:
        """All sealing-trace instructions issued (trace fully recorded).

        Only old-generation instructions can be in the window: newer ones
        are blocked at Register Update while a boundary is open.
        """
        return self._update_drained() and not len(self.iw)

    def _try_finish_boundary(self, c: int, now_ps: int) -> None:
        """Advance the trace-boundary state machine.

        Once the boundary is *resolved* (the mispredicted branch executed,
        or the length cap hit), the EC is searched immediately. On a miss
        the front-end restarts right away — overlapping its refill with
        the old trace's drain, as the baseline does — while the trace is
        sealed in the background. On a hit the machine drains fully, the
        checkpoint runs, and trace execution begins.
        """
        if self._boundary_decision is None:
            if not self._boundary_resolved:
                return
            self._decide_boundary(now_ps)
        if self._boundary_waits():
            return
        if self._boundary_decision == "miss":
            # All sealing-trace instructions have passed Update and no
            # seal is in flight: hand the open builder to the background
            # sealer so the next trace's Updates overlap the issue drain.
            if self._builder_open:
                self._sealing = (self.builder, self._cur_tid,
                                 self._boundary_gen, -1)
                self.builder = TraceBuilder()
                self._builder_open = False
            self._close_boundary()
            if self._poll_redistribution(c):
                self._applying_redist = True
            return
        # Hit: full drain, checkpoint, then switch to trace execution.
        self._seal_boundary_trace()
        hit = self._boundary_hit
        needs_frt = (self._boundary is _Boundary.MISPREDICT
                     or not self.fly.use_srt)
        if needs_frt and len(self.rob):
            return  # wait for full retirement (FRT checkpoint)
        self._close_boundary()
        if self._poll_redistribution(c):
            self._applying_redist = True
            return
        if hit is None or not hit.valid:
            # The trace was evicted while we drained: rebuild instead.
            self.stats.trace_misses += 1
            if needs_frt:
                self._pending_checkpoint[self._fe_gen + 1] = "frt"
            else:
                self._checkpoint_srt_now(c)
            self._resume_frontend(now_ps)
            return
        if needs_frt:
            self._checkpoint_frt_now()
        else:
            self._checkpoint_srt_now(c)
        self._trace_run += 1
        self._enter_execute(hit, c, now_ps)

    def _decide_boundary(self, now_ps: int) -> None:
        """One-time EC lookup at boundary resolution."""
        kind = self._boundary
        needs_frt = kind is _Boundary.MISPREDICT or not self.fly.use_srt
        hit = None
        if self.fly.ec_enabled:
            hit = self.ec.lookup(self._boundary_next_pc)
            self.stats.count("ec_ta_lookup")
        if hit is not None:
            self._boundary_decision = "hit"
            self._boundary_hit = hit
            return
        if self.fly.ec_enabled:
            self.stats.trace_misses += 1
        self._boundary_decision = "miss"
        follower = self._boundary_gen + 1
        self._pending_checkpoint[follower] = "frt" if needs_frt else "srt"
        self._resume_frontend(now_ps)

    def _seal_boundary_trace(self) -> None:
        if not self._builder_open:
            return
        trace = self.builder.seal(self._cur_tid)
        self._builder_open = False
        if trace is None:
            return
        self.stats.traces_built += 1
        if not self.fly.ec_enabled:
            return
        hit = self._boundary_hit
        if hit is not None and hit.start_pc == trace.start_pc:
            # The trace loops back onto its own start and we are about to
            # replay the established trace at that PC: inserting the fresh
            # duplicate would invalidate the very trace being launched.
            return
        self.ec.insert(trace)
        self.stats.count("ec_block_write",
                         trace.blocks(self.fly.ec_block_slots))

    def _close_boundary(self) -> None:
        self._boundary = _Boundary.NONE
        self._boundary_branch_seq = -1
        self._boundary_decision = None
        self._boundary_hit = None
        if self._deferred_boundary is not None:
            self._install_boundary(*self._deferred_boundary)
            self._deferred_boundary = None

    def _checkpoint_frt_now(self) -> None:
        self.renamer.checkpoint_from_frt()
        self.renamer.sync_srt_to_frt()
        self.stats.count("checkpoint")

    def _checkpoint_srt_now(self, c: int) -> None:
        self.renamer.checkpoint_from_srt()
        self._be_stall_until = max(self._be_stall_until, c + 2)
        self.stats.srt_switches += 1
        self.stats.count("srt_swap")

    def _resume_frontend(self, now_ps: int) -> None:
        latency_ps = self.fly.sync_cycles * self.fe_dom.period_ps
        self._fetch_blocked = True    # until the redirect matures in FE
        self._block_epoch += 1
        self._redirect_fifo.push(self._block_epoch, now_ps, latency_ps)
        self._events["sync_fifo_push"] += 1
        self._fe_gated = False

    def _poll_redistribution(self, c: int) -> bool:
        """Evaluate the stall counters; returns True if an apply is owed.

        The apply sequence only starts at quiescent points — no boundary
        open or parked — because it stops fetch and resets the renaming
        state, which must not interleave with a trace being sealed.
        """
        if not self.fly.redistribution_enabled:
            return False
        if self._pending_redist is None and self.redist.due(c):
            self._pending_redist = self.redist.check(c)
        return (self._pending_redist is not None
                and self._boundary is _Boundary.NONE
                and self._deferred_boundary is None)

    def _apply_redistribution(self, c: int, now_ps: int) -> None:
        """Install the new pool geometry on a fully drained machine."""
        if self._builder_open:
            # The trace under construction mixes pre- and post-reset LID
            # mappings; abandon it (the EC is invalidated anyway).
            self.builder.seal(self._cur_tid)
            self._builder_open = False
        self._sealing = None   # likewise stale
        self.pools.apply_sizes(self._pending_redist)
        self.renamer.reset_after_redistribution()
        self.be.reset_scoreboard()
        self.ec.invalidate_all()
        self._be_stall_until = max(self._be_stall_until,
                                   c + 1 + self.redist.penalty)
        self.stats.redistributions += 1
        self.stats.count("ec_invalidate")
        self._pending_redist = None
        self._applying_redist = False
        self._pending_checkpoint.clear()   # renaming state freshly reset
        # Whatever was planned next (replay or fetch), the EC is now empty:
        # the only way forward is a front-end restart. The applying trigger
        # is quiescence-gated, so no boundary state can be disturbed here.
        self._resume_frontend(now_ps)

    def _create_idle_until(self, c: int, deadline: int) -> Optional[int]:
        """Jump both clock domains over creation-mode ticks that can only
        wait; returns the timestamp jumped to, or None.

        Called after BE tick ``c`` once the caller has vetoed eligible
        window entries and a done ROB head. Asks the stage gates of the
        CREATE-mode BE stages and the FE stages of :meth:`run` for the
        first tick of either domain that may act: a wake/done event,
        the window's next matured entry, the dispatch-FIFO head's
        arrival, a boundary or redistribution step, an FE redirect, an
        FE latch's ``lat_ready``, an unblocked fetch. The span also ends
        at the governor's ``next_check`` and at ``deadline`` (the
        watchdog's trip cycle), so both hooks fire on their own tick.
        A jump skips at least BE tick ``c + 1``; anything acting before
        it returns None at once.

        Every tick before that point is inert: it only counts
        ``be_cycles_create`` (plus ``checkpoint_stall_cycles`` while
        ``_be_stall_until`` or a trace-start checkpoint holds Register
        Update) or ``fe_cycles_active`` (plus a pool stall while the
        rename head waits on pool capacity), and those counts are
        applied here in bulk. Ties between domains go to the BE, as in
        the scheduler.
        """
        be_dom = self.be_dom
        be_next = be_dom.next_tick_ps
        be_p = be_dom.period_ps
        horizon = be_next + (deadline - c - 1) * be_p
        # ---- front end: the first tick that may act
        fe_dom = self.fe_dom
        fe_next = fe_dom.next_tick_ps
        fe_p = fe_dom.period_ps
        f1 = fe_dom.cycles + 1                # FE cycle of the tick at fe_next
        if self._fetch_open():
            horizon = fe_next                 # fetch acts
        redirect_q = self._redirect_q
        if redirect_q and redirect_q[0][0] < horizon:
            horizon = redirect_q[0][0]        # the redirect matures
        dispatch_q = self._dispatch_q
        rename_out = self._rename_out
        if rename_out and not self._dispatch_fifo.full:
            t = fe_next + max(0, rename_out[0].lat_ready - f1) * fe_p
            if t < horizon:
                horizon = t
        fetch_out = self._fetch_out
        if fetch_out:
            t = fe_next + max(0, fetch_out[0].lat_ready - f1) * fe_p
            if t < horizon:
                horizon = t
        pool_stall = None
        decode_out = self._decode_out
        if decode_out and not self._applying_redist:
            dyn = decode_out[0]
            t = fe_next + max(0, dyn.lat_ready - f1) * fe_p
            # A trace-start head resets the LIDs before its pool check,
            # so it is not left to the jump.
            if (t == fe_next and not dyn.trace_start
                    and self.pools.full(dyn.dest)):
                pool_stall = dyn.dest         # counts a stall each tick
            elif t < horizon:
                horizon = t
        if horizon <= be_next:
            return None
        # ---- back end: the first cycle after c that may act
        stall_until = self._be_stall_until
        su = c + 1 if stall_until <= c + 1 else stall_until
        act = deadline
        ckpt_from = None    # Update counts checkpoint stalls from here on
        be = self.be
        if self._redist_installable():
            act = min(act, su)                # installs the new pools
        else:
            if (self._boundary is not _Boundary.NONE
                    and not self._boundary_waits()):
                act = min(act, su)
            future = self.iw._future
            if future:
                act = min(act, max(future[0][0], su))
            if dispatch_q:
                head_ps, dyn = dispatch_q[0]
                m = c + 1
                if head_ps > be_next:
                    m += -((be_next - head_ps) // be_p)
                if self._update_blocked(dyn):
                    pass                      # unblocks at retire or select
                elif dyn.trace_start and self._update_waits(dyn):
                    ckpt_from = max(m, su)
                else:
                    act = min(act, max(m, su))
        if act <= c + 1:
            return None
        dvfs = self.dvfs
        if dvfs is not None and dvfs.next_check < act:
            act = dvfs.next_check
        ev = be.next_event_cycle()            # writeback, retire
        if ev is not None and ev < act:
            act = ev
        if act <= c + 1:
            return None
        t = be_next + (act - c - 1) * be_p
        if t < horizon:
            horizon = t
        # ---- jump: every tick strictly before the horizon is inert
        sched = self.sched
        n_be = sched.drain_until(be_dom, horizon)
        n_fe = sched.drain_until(fe_dom, horizon)
        stats = self.stats
        stats.be_cycles_create += n_be
        last = c + n_be
        stalls = max(0, min(last, stall_until - 1) - c)
        if ckpt_from is not None and ckpt_from <= last:
            stalls += last - ckpt_from + 1
        stats.checkpoint_stall_cycles += stalls
        stats.fe_cycles_active += n_fe
        if pool_stall is not None and n_fe:
            self.pools.note_stall(pool_stall, n_fe)
            stats.rename_pool_stalls += n_fe
        return horizon

    # ------------------------------------------------------------ stage gates
    # Its stage in :meth:`run` and a skip-ahead both call each gate; a gate
    # of a stall-emitting stage returns the stall reason the stage emits.

    def _update_blocked(self, dyn: DynInstr) -> Optional[str]:
        """Why Register Update cannot admit ``dyn`` now, or None; each
        reason unblocks at a retirement or a select."""
        if len(self.be._rob_q) >= self.rob.capacity:
            return "rob_full"
        if self.iw._count >= self.iw.capacity:
            return "iw_full"
        if dyn.mem_addr is not None and self.lsq.full:
            return "lsq_full"
        return None

    def _alloc_blocked(self, dyn: DynInstr) -> Optional[str]:
        """Why replay allocation cannot allocate ``dyn`` now, or None;
        each reason unblocks at a retirement."""
        if len(self.be._rob_q) >= self.rob.capacity:
            return "rob_full"
        if dyn.mem_addr is not None and self.lsq.full:
            return "lsq_full"
        if self.pools.full(dyn.dest):
            return "pool_full"
        return None

    def _fetch_open(self) -> bool:
        """Fetch may run: no boundary or redistribution holds it, and the
        fetch latch has room (bounded buffering: don't run ahead)."""
        return (not (self._fetch_blocked or self._applying_redist)
                and len(self._fetch_out) < self.fe._fetch_cap)

    def _redist_installable(self) -> bool:
        """A redistribution is owed and the machine has drained for it:
        no ROB entry, in-flight write, or open or parked boundary."""
        return (self._applying_redist and not self.be._rob_q
                and not any(self.pools.inflight)
                and self._boundary is _Boundary.NONE
                and self._deferred_boundary is None)

    def _update_waits(self, dyn: DynInstr) -> bool:
        """:meth:`_begin_trace_at_update` would return False and change
        nothing: the previous trace is still recorded, or an FRT
        checkpoint waits for retirement."""
        if self._builder_open:
            return True
        due = [g for g in self._pending_checkpoint if g <= dyn.trace_gen]
        return (bool(due) and len(self.rob) > 0
                and "frt" in {self._pending_checkpoint[g] for g in due})

    def _boundary_waits(self) -> bool:
        """:meth:`_try_finish_boundary` would return and change nothing."""
        if not self._boundary_resolved:
            return True
        decision = self._boundary_decision
        if decision is None:
            return False
        if decision == "miss":
            return (not self._update_drained()
                    or (self._builder_open and self._sealing is not None))
        if not self._issue_drained():
            return True
        return (not self._builder_open and len(self.rob) > 0
                and (self._boundary is _Boundary.MISPREDICT
                     or not self.fly.use_srt))

    # ---------------------------------------------------- EXECUTE mode (BE)

    def _enter_execute(self, trace: Trace, c: int, now_ps: int) -> None:
        """Switch to trace-execution: gate the FE, speed up the BE."""
        replay = self._pair_trace(trace)
        if replay is None:
            # Stale trace (oracle cannot be at this path): rebuild instead.
            self._resume_frontend(now_ps)
            return
        self.stats.trace_hits += 1
        self._replay = replay
        self._set_mode(Mode.EXECUTE)
        self._fe_gated = True
        self.be_dom.set_frequency(self.clock.be_fast_mhz * self._dvfs_scale,
                                  now_ps)
        self.fill.start(c + 1, trace.slots)
        self.stats.count("mode_switch")

    def _leave_execute(self, c: int, now_ps: int, next_pc: int) -> None:
        """Trace ended: chain to the next trace or restart the front-end."""
        self._replay = None
        self.fill.stop()
        if self._poll_redistribution(c):
            # The EC is about to be invalidated: stop replaying, drain,
            # apply the new geometry, and rebuild traces from scratch.
            # Fetch restarts through the redirect FIFO; the applying flag
            # holds it until the new geometry is installed.
            self._applying_redist = True
            self._to_create_mode(now_ps)
            self._resume_frontend(now_ps)
            return
        hit = self.ec.lookup(next_pc)
        self.stats.count("ec_ta_lookup")
        if hit is not None:
            replay = self._pair_trace(hit)
            if replay is not None:
                self.stats.trace_hits += 1
                self._trace_run += 1
                self._replay = replay
                self.fill.start(c + 1, hit.slots)
                return
        self.stats.trace_misses += 1
        self._to_create_mode(now_ps)
        self._resume_frontend(now_ps)

    def _pair_trace(self, trace: Trace) -> Optional[_Replay]:
        """Pair a trace's records with fresh dynamic instances.

        Consumes the oracle up to (and including) the diverging branch;
        wrong-path records consume nothing.
        """
        records = trace.program_order()
        paired: List[DynInstr] = []
        div_pos = -1
        for i, rec in enumerate(records):
            if rec.pos != i:
                raise SimulationError("trace positions are not contiguous")
            dyn = self._next_oracle()
            if dyn.sid != rec.sid:
                # The previous record must have been a control transfer
                # that went elsewhere (e.g. a return to another call site).
                self._oracle_buffer.appendleft(dyn)
                if i == 0:
                    return None
                if not records[i - 1].is_branch:
                    raise SimulationError(
                        "trace path diverged in straight-line code")
                div_pos = i - 1
                self.stats.mispredicts += 1
                break
            dyn.dest_lid = rec.dest_lid
            dyn.src_lids = rec.src_lids
            dyn.trace_pos = rec.pos
            paired.append(dyn)
            if rec.is_branch:
                self.stats.branches += 1
                if dyn.taken != rec.taken:
                    div_pos = i
                    self.stats.mispredicts += 1
                    break
        return _Replay(trace, records, paired, div_pos)

    def _replay_idle_until(self, replay: _Replay, c: int,
                           deadline: int) -> Optional[int]:
        """Jump the BE clock over replay ticks that can only wait; returns
        the first cycle that may act, or None if the next tick may act
        (issue, allocate, or distinguish an FU-reservation conflict —
        all vetoes). Called once the caller has vetoed a done ROB head.

        Asks the gates of the EXECUTE-mode stages of :meth:`run`
        (:meth:`_alloc_blocked`, :meth:`_Replay.next_unit`,
        :meth:`_Replay.ready_members`, ``FillBuffer.can_consume``):
        allocation blocked on ROB/LSQ space or pool capacity unblocks at
        retirement (a scheduled done event); issue blocked on operand
        readiness unblocks at a wake event; issue blocked on fill-buffer
        arrivals has a computable ready cycle. Skipped ticks count as execute
        cycles. A pool-capacity block also counts a rename stall per
        tick, added here in bulk; such a span also ends at the governor's
        ``next_check`` and at ``deadline`` (the watchdog's trip cycle),
        and is not skipped with a flight recorder attached, whose stall
        events it would drop. Other spans jump past both hooks, which
        then fire late (DESIGN.md §8).
        """
        be = self.be
        fill_bound = None
        pool_stall = None
        if replay.alloc_ptr < replay.valid_count:
            dyn = replay.paired[replay.alloc_ptr]
            why = self._alloc_blocked(dyn)   # each unblocks at retire
            if why is None:
                return None                  # able to allocate
            if why == "pool_full":
                if self.trace is not None:
                    return None              # each tick emits a stall
                pool_stall = dyn.dest
        unit = replay.next_unit()
        if unit is not None:
            n_recs = len(unit.instrs)
            if not self.fill.can_consume(n_recs):
                fill_bound = self.fill.cycle_ready_for(n_recs)
                if fill_bound is None:
                    return None
            elif replay.ready_members(unit, be.ready) is not None:
                # Fully ready: either it issues next tick or an FU
                # reservation is in the way — don't try to model that.
                # Otherwise it waits on allocation or a wake event.
                return None
        bound = be.next_event_cycle()
        if fill_bound is not None and (bound is None or fill_bound < bound):
            bound = fill_bound
        if bound is None:
            return None
        if pool_stall is not None:
            bound = min(bound, deadline)
            if self.dvfs is not None:
                bound = min(bound, self.dvfs.next_check)
        skip = bound - 1 - c
        if skip <= 0:
            return None
        be_dom = self.be_dom
        be_dom.cycles = c + skip
        be_dom.next_tick_ps += skip * be_dom.period_ps
        stats = self.stats
        stats.be_cycles_execute += skip
        if pool_stall is not None:
            self.pools.note_stall(pool_stall, skip)
            stats.rename_pool_stalls += skip
        return bound

    def _replay_check_end(self, replay: _Replay, c: int,
                          now_ps: int) -> None:
        if replay.div_pos >= 0:
            self._replay_abort_step(replay, c, now_ps)
            return
        if (replay.unit_idx >= replay.n_units
                and replay.alloc_ptr >= replay.valid_count):
            # Natural end: SRT swap gives a one-cycle switch penalty.
            if self.fly.use_srt:
                self._checkpoint_srt_now(c)
            elif len(self.rob):
                return
            else:
                self._checkpoint_frt_now()
            self._leave_execute(c, now_ps, replay.next_pc)

    def _replay_abort_step(self, replay: _Replay, c: int,
                           now_ps: int) -> None:
        """Handle a diverging trace: early EC lookup, overlap FE restart.

        As soon as the diverging branch resolves, the EC is searched for
        the correct-path trace. On a miss the front-end restarts
        immediately (its refill overlaps the replay's drain, mirroring the
        baseline's recovery); on a hit the next replay starts right after
        the FRT checkpoint.
        """
        if not replay.branch_resolved:
            return
        if replay.decision is None:
            replay.next_trace = (self.ec.lookup(replay.next_pc)
                                 if self.fly.ec_enabled else None)
            self.stats.count("ec_ta_lookup")
            if replay.next_trace is None:
                replay.decision = "miss"
                self.stats.trace_misses += 1
                self._pending_checkpoint[self._fe_gen + 1] = "frt"
                self._resume_frontend(now_ps)
            else:
                replay.decision = "hit"
        if not replay.all_valid_issued or len(self.rob):
            return
        # Fully drained and retired.
        self._replay = None
        self.fill.stop()
        if replay.decision == "miss":
            self._to_create_mode(now_ps)
            if self._poll_redistribution(c):
                self._applying_redist = True
            return
        # Hit path: checkpoint through the FRT now that everything retired.
        self._checkpoint_frt_now()
        if self._poll_redistribution(c):
            self._applying_redist = True
            self._to_create_mode(now_ps)
            self._resume_frontend(now_ps)
            return
        nxt = replay.next_trace
        if nxt is None or not nxt.valid:
            self.stats.trace_misses += 1
            self._to_create_mode(now_ps)
            self._resume_frontend(now_ps)
            return
        new_replay = self._pair_trace(nxt)
        if new_replay is None:
            self.stats.trace_misses += 1
            self._to_create_mode(now_ps)
            self._resume_frontend(now_ps)
            return
        self.stats.trace_hits += 1
        self._trace_run += 1
        self._replay = new_replay
        self.fill.start(c + 1, nxt.slots)

    def _to_create_mode(self, now_ps: int) -> None:
        """Return to trace-creation mode at the slow back-end clock."""
        self._set_mode(Mode.CREATE)
        self._fe_gated = False
        self.be_dom.set_frequency(self.clock.be_mhz, now_ps)
        self.stats.count("mode_switch")
