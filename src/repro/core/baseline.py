"""Fully synchronous baseline core: nine-stage, four-way, out-of-order.

Pipeline (Section 3.1): Fetch (two-cycle I-cache) -> Decode -> Rename ->
Dispatch -> Issue (monolithic 128-entry window, single-cycle Wake-Up/
Select) -> Register Read -> Execute -> Write Back -> Retire.

The back end — issue bookkeeping, FuPool/LSQ execution, writeback, ROB
retire, deadlock watchdog — is the shared :mod:`repro.core.engine`; this
module keeps only the synchronous machine's policy: single-clock ticking,
R10000 renaming, and fetch that stalls on a mispredict until the branch
resolves.

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

from typing import Optional

from repro.core.config import ClockPlan, CoreConfig
from repro.core.engine import DeadlockWatchdog, ExecBackend, FrontEndFeed
from repro.core.stats import SimStats
from repro.frontend.bpred import BranchPredictor
from repro.isa import DynInstr, OpClass
from repro.issue.window import IssueWindow
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import MetricRegistry, register_core_sources
from repro.obs.trace import TraceRecorder
from repro.rename.r10k import R10KRenamer
from repro.rob.reorder_buffer import RobEntry
from repro.workloads.stream import InstructionStream

#: Kind-specific default for ``CoreConfig.deadlock_window == 0``.
_DEADLOCK_WINDOW = 20_000


class BaselineCore:
    """Cycle-level model of the paper's reference superscalar processor."""

    def __init__(self, config: CoreConfig, stream: InstructionStream,
                 mem_scale: float = 1.0,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 clock: Optional[ClockPlan] = None):
        self.config = config
        self.stream = stream
        self.mem_scale = mem_scale
        self.clock = clock
        self.stats = SimStats()
        self._events = self.stats.events

        self.hierarchy = hierarchy or MemoryHierarchy(config.memory,
                                                      spec=config.mem)
        self.bpred = BranchPredictor(config.bpred)
        self.renamer = R10KRenamer(config.phys_regs)
        self.iw = IssueWindow(config.iw_entries, config.issue_width,
                              config.wakeup_extra_delay)
        self.fe = FrontEndFeed(config.fetch_width, config.decode_width,
                               self.stats)
        self.be = ExecBackend(config, self.stats, self.hierarchy,
                              config.phys_regs)
        self.watchdog = DeadlockWatchdog(
            config.deadlock_window or _DEADLOCK_WINDOW)

        # Flight recorder (repro.obs): armed only when the config carries
        # a TraceSpec; otherwise every emission site is a dead branch.
        if config.trace is not None:
            self.trace = TraceRecorder(config.trace)
            self.be.attach_trace(self.trace)
            self.fe.trace = self.trace
            self.hierarchy.trace = self.trace
        else:
            self.trace = None
        self.metrics = MetricRegistry()
        register_core_sources(self.metrics, self)

        # Engine structures, re-exposed under their historical names.
        self.rob = self.be.rob
        self.lsq = self.be.lsq
        self.fu = self.be.fu
        self.be.configure(self.iw, self._on_branch_resolved,
                          self.renamer.commit_entry)

        # Hot-path bindings: per-cycle code reads these instead of
        # chasing attribute chains (the objects never change identity).
        self._fetch_out = self.fe.fetch_out
        self._decode_out = self.fe.decode_out
        self._rename_out = self.fe.rename_out
        self._dispatch_width = config.dispatch_width
        self._rename_width = config.rename_width
        self._fetch_width = config.fetch_width
        self._fetch_cap = self.fe._fetch_cap
        self._extra_fe_stages = config.extra_frontend_stages
        self._wakeup_gate = config.wakeup_extra_delay
        self._next_instr = stream.next_instr
        self._ifetch = self.hierarchy.ifetch
        self._predict = self.bpred.predict

        self.cycle = 0
        self._fetch_blocked = False
        self._mispredict_seq = -1      # seq of the blocking branch
        self._fetch_resume_cycle = 0

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

        ``warmup`` instructions are first streamed through the caches and
        branch predictor functionally (no timing), mirroring the paper's
        fast-forward before detailed simulation.
        """
        if self.config.engine != "legacy":
            from repro.core.engine.turbo.sync import run_turbo_sync

            return run_turbo_sync(self, max_instructions, warmup,
                                  prof=getattr(self, "_turbo_prof", None))
        if warmup:
            self._functional_warmup(warmup)
            if self.dvfs is not None:
                self.dvfs.reset_baseline(self)
        stats = self.stats
        watchdog = self.watchdog
        window = watchdog.window
        last_cycle = 0
        last_count = -1
        iw = self.iw
        rob_q = self.be._rob_q
        dvfs = self.dvfs
        dvfs_next = dvfs.next_check if dvfs is not None else None
        while stats.committed < max_instructions:
            self.step()
            c = self.cycle
            committed = stats.committed
            if committed != last_count:
                last_count = committed
                last_cycle = c
                if committed >= max_instructions:
                    break   # don't skip past the final commit's cycle
            elif c - last_cycle > window:
                watchdog.trip(c, committed,
                              snapshot=self._deadlock_snapshot)
            # Governor interval boundary. A skip-ahead below may jump past
            # the boundary; the hook then fires here on the next simulated
            # cycle with a correspondingly longer interval (DESIGN.md §4).
            if dvfs_next is not None and c >= dvfs_next:
                dvfs_next = dvfs.on_interval(self, c)
            # Skip ahead over provably idle cycles (mispredict stalls,
            # long-latency load shadows with the machine backed up). The
            # two cheap vetoes cover most busy cycles; the full stall
            # analysis runs only behind them.
            if iw._eligible or (rob_q and rob_q[0].done):
                continue
            target = self._idle_until(c)
            if target is not None:
                self.cycle = target
        self._finalize_stats()
        return stats

    def _idle_until(self, c: int):
        """Earliest future cycle anything can happen, or None if the
        machine can act at cycle ``c``.

        Every stage is checked for actionability *now*; a stage blocked
        on a latch timestamp bounds the skip by that timestamp, a stage
        blocked on a structural resource (ROB/IW/LSQ full, empty free
        list) unblocks only through a scheduled wake/done event, which
        bounds the skip through the event queues. Skipped cycles touch
        no state and no counters (the caller has already vetoed issue
        and retire work).
        """
        be = self.be
        bound = None
        # Fetch: able to act unless stalled, delayed, or out of room.
        if not self._fetch_blocked:
            if c >= self._fetch_resume_cycle:
                if len(self._fetch_out) < self._fetch_cap:
                    return None
            else:
                bound = self._fetch_resume_cycle
        fetch_out = self._fetch_out
        if fetch_out:
            rc = fetch_out[0].lat_ready
            if rc <= c:
                return None          # decode moves this cycle
            if bound is None or rc < bound:
                bound = rc
        decode_out = self._decode_out
        if decode_out:
            dyn = decode_out[0]
            rc = dyn.lat_ready
            if rc <= c:
                # Rename acts unless the head needs a tag and none free.
                dest = dyn.dest
                if not (dest is not None and dest != 0
                        and not self.renamer._free):
                    return None
            elif bound is None or rc < bound:
                bound = rc
        rename_out = self._rename_out
        if rename_out:
            dyn = rename_out[0]
            rc = dyn.lat_ready
            if rc <= c:
                iw = self.iw
                if not (len(be._rob_q) >= be.rob.capacity
                        or iw._count >= iw.capacity
                        or (dyn.mem_addr is not None and be.lsq.full)):
                    return None      # dispatch moves this cycle
            elif bound is None or rc < bound:
                bound = rc
        future = self.iw._future
        if future:
            fmin = future[0][0]
            if bound is None or fmin < bound:
                bound = fmin
        ev = be.next_event_cycle()
        if ev is not None and (bound is None or ev < bound):
            bound = ev
        if bound is not None and bound > c:
            return bound
        return None

    def _finalize_stats(self) -> None:
        self.stats.be_cycles_create = self.cycle
        self.stats.fe_cycles_active = self.cycle

    #: Set by the turbo loop, whose ROB holds seq ints rather than
    #: RobEntry objects: maps the head seq to the snapshot's ``oldest``.
    _turbo_oldest = None

    def _deadlock_snapshot(self):
        """Structured machine state for the watchdog's DeadlockError."""
        be = self.be
        head = be.rob.head()
        oldest = None
        if head is not None and self._turbo_oldest is not None:
            oldest = self._turbo_oldest(head)
        elif head is not None:
            dyn = head.dyn
            oldest = {"seq": dyn.seq, "pc": dyn.pc, "op": dyn.op.name,
                      "done": head.done, "is_mem": head.is_mem}
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

    def _functional_warmup(self, count: int) -> None:
        """Prime caches and predictor without timing.

        Goes through the hierarchy's ``warm_*`` entry points: contents
        and counters update exactly as a timed access would, but the
        MSHR timeline is never touched (a warmup burst at cycle 0 must
        not pre-occupy the miss-overlap budget of the timed run).
        """
        next_instr = self._next_instr
        ifetch = self.hierarchy.warm_ifetch
        load = self.hierarchy.warm_load
        store = self.hierarchy.warm_store
        predict = self._predict
        for _ in range(count):
            dyn = next_instr()
            if dyn.seq % 4 == 0:
                ifetch(dyn.pc)
            addr = dyn.mem_addr
            if addr is not None:
                if dyn.op is OpClass.LOAD:
                    load(addr)
                else:
                    store(addr)
            if dyn.branch_kind:
                predict(dyn)

    # -------------------------------------------------------------- cycle

    def step(self) -> None:
        """Advance one clock cycle (the engine tick contract, single
        domain: writeback -> commit -> issue -> dispatch -> rename ->
        decode -> fetch, then the cycle counter advances). Stages with
        provably no work this cycle are skipped up front."""
        c = self.cycle
        self.be.tick(c, self.mem_scale)
        if self.iw._count and not (self._wakeup_gate and (c & 1)):
            self._do_issue(c)
        if self._rename_out:
            self._do_dispatch(c)
        if self._decode_out:
            self._do_rename(c)
        if self._fetch_out:
            self.fe.decode(c)
        if not self._fetch_blocked and c >= self._fetch_resume_cycle:
            self._do_fetch(c)
        self.cycle = c + 1

    # Writeback hook: the blocking branch resolved — restart fetch.
    def _on_branch_resolved(self, entry: RobEntry, c: int) -> None:
        if entry.dyn.seq == self._mispredict_seq:
            self._mispredict_seq = -1
            self._fetch_blocked = False
            self._fetch_resume_cycle = c + 1

    def _do_issue(self, c: int) -> None:
        # The caller applies the Fig. 2 selection gate: pipelining the
        # Wake-Up/Select loop without speculative wakeup both delays
        # dependents by a cycle (handled in the window) and lets a
        # selection round complete only every other cycle — the previous
        # round's grants are not visible to the arbiter until the loop
        # closes.
        be = self.be
        selected = self.iw.select(c, be.fu)
        if not selected:
            tr = self.trace
            if tr is not None:
                # The caller gated on window occupancy: an empty grant
                # means every occupant waits on operands (dep_wait)
                # unless ready entries were passed over for units.
                tr.emit(c, "stall", -1,
                        "fu_busy" if self.iw._eligible else "dep_wait")
            return
        rf_reads = be.schedule_group(selected, c, self.mem_scale)
        n = len(selected)
        self.stats.issued += n
        events = self._events
        events["iw_select"] += n
        events["rf_read"] += rf_reads
        events["fu_op"] += n

    def _do_dispatch(self, c: int) -> None:
        rename_out = self._rename_out
        be = self.be
        iw = self.iw
        rob = be.rob
        lsq = be.lsq
        rob_q = be._rob_q
        rob_cap = rob.capacity
        iw_cap = iw.capacity
        pending = be.pending
        ready = be.ready_getter
        events = self._events
        tr = self.trace
        earliest = c + 1
        n = 0
        while rename_out and n < self._dispatch_width:
            dyn = rename_out[0]
            if dyn.lat_ready > c:
                break
            if len(rob_q) >= rob_cap or iw._count >= iw_cap:
                if tr is not None:
                    tr.emit(c, "stall", dyn.seq,
                            "rob_full" if len(rob_q) >= rob_cap
                            else "iw_full")
                break
            if dyn.mem_addr is not None and lsq.full:
                if tr is not None:
                    tr.emit(c, "stall", dyn.seq, "lsq_full")
                break
            rename_out.popleft()
            entry = RobEntry(dyn,
                             mispredicted=dyn.seq == self._mispredict_seq)
            # Inline ExecBackend.admit (capacity checked above); this is
            # the hottest per-instruction loop in the synchronous cores.
            rob_q.append(entry)
            rob.writes += 1
            pending[dyn.seq] = entry
            if entry.is_mem:
                lsq.insert()
                events["lsq_write"] += 1
            events["rob_write"] += 1
            iw.insert(dyn, ready, earliest)
            events["iw_write"] += 1
            if tr is not None:
                tr.emit(c, "dispatch", dyn.seq)
            n += 1

    def _do_rename(self, c: int) -> None:
        decode_out = self._decode_out
        rename_out = self._rename_out
        renamer = self.renamer
        free_tags = renamer._free
        ready = self.be.ready
        events = self._events
        reg_map = renamer._map
        tr = self.trace
        n = 0
        while decode_out and n < self._rename_width:
            dyn = decode_out[0]
            if dyn.lat_ready > c:
                break
            # R10K rename over the renamer's map table and free list:
            # this runs once per instruction and those objects are stable.
            dest = dyn.dest
            if dest is None or dest == 0:
                decode_out.popleft()
                dyn.src_tags = tuple([reg_map[s] for s in dyn.srcs])
                dyn.dest_tag = -1
                dyn.old_dest_tag = -1
            else:
                if not free_tags:
                    break
                decode_out.popleft()
                dyn.src_tags = tuple([reg_map[s] for s in dyn.srcs])
                tag = free_tags.popleft()
                dyn.old_dest_tag = reg_map[dest]
                reg_map[dest] = tag
                dyn.dest_tag = tag
                ready[tag] = 0
            dyn.lat_ready = c + 1
            rename_out.append(dyn)
            events["rename_op"] += 1
            if tr is not None:
                tr.emit(c, "rename", dyn.seq)
            n += 1

    def _do_fetch(self, c: int) -> None:
        # The caller has already checked the stall/resume gates.
        fetch_out = self._fetch_out
        if len(fetch_out) >= self._fetch_cap:
            return
        stats = self.stats
        events = self._events
        next_instr = self._next_instr
        tr = self.trace
        delay = 0
        n = 0
        for _ in range(self._fetch_width):
            dyn = next_instr()
            if not n:
                delay = (self._ifetch(dyn.pc, self.mem_scale, c)
                         + self._extra_fe_stages)
                events["icache_access"] += 1
            dyn.lat_ready = c + delay
            fetch_out.append(dyn)
            if tr is not None:
                tr.emit(c, "fetch", dyn.seq)
            n += 1
            if dyn.branch_kind:
                stats.branches += 1
                events["bpred_lookup"] += 1
                correct = self._predict(dyn)
                if not correct:
                    stats.mispredicts += 1
                    self._fetch_blocked = True
                    self._mispredict_seq = dyn.seq
                break  # fetch group ends at a control transfer
        stats.fetched += n
