"""Turbo run loop for the Flywheel core (dual clock + Execution Cache).

Unlike the single-clock turbo loop (:mod:`repro.core.engine.turbo.sync`),
the Flywheel's cost is not concentrated in one stage walk: profiles
spread it across the two-domain scheduler, the creation-side Register
Update, the replay allocator/issuer, and the oracle stream.  A full
struct-of-arrays transliteration of the trace-boundary state machine
(sealing, deferred boundaries, checkpoints, redistribution) would risk
divergence for little gain, so this loop is a *hybrid*:

* the two-domain run loop, ``ExecBackend.tick``/``retire``, and the hot
  stage bodies (``_create_accept``, ``_create_issue``, ``_replay_alloc``,
  ``_replay_issue``, the FE fetch/rename/dispatch stages, two-phase
  ``rename``/``update``/``retire``) are line-for-line transliterations
  with bound locals, operating on the *real* DynInstr/RobEntry objects
  and the real issue window / fill buffer / EC;
* everything rare — boundary resolution, checkpoints, redistribution,
  trace pairing, the replay skip-ahead bound — stays a method call into
  :class:`repro.core.flywheel.FlywheelCore`, sharing one implementation
  with the legacy engine;
* the oracle stream is swapped for a :class:`PooledOracle` over the
  shared :class:`StreamPool` columns: the program walk (block
  bookkeeping, RNG draws, address resolution) runs once per benchmark
  instead of once per run.  Predictor outcomes are deliberately *not*
  pooled here — replayed (EXECUTE-mode) branches never consult the
  predictor, so its state depends on trace-cache behaviour; the live
  ``core.bpred`` is driven exactly as the legacy engine drives it.

Volatile core attributes (mode, scales, the open builder, the renamer's
checkpoint tables) are re-read at stage granularity rather than bound,
because boundary method calls rebind them mid-run.  The golden gate
(tests/test_golden_stats.py) holds this loop to bit-identical SimStats
against the legacy engine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

from repro.core.engine.turbo.pool import PooledOracle, get_pool
from repro.errors import SimulationError
from repro.isa import DynInstr
from repro.isa.opclasses import (
    EXEC_LATENCY_TAB,
    FU_KIND_TAB,
    UNPIPELINED_TAB,
    OpClass,
)
from repro.issue.window import IWEntry
from repro.rob.reorder_buffer import RobEntry

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


def run_turbo_fly(core, max_instructions: int, warmup: int = 0,
                  prof=None):
    """Drop-in replacement for ``FlywheelCore.run`` (turbo backend).

    ``prof``, when given, is duck-typed as a PhaseProfile: wall-clock
    seconds are accumulated into ``prof.seconds["pool"]`` (pool build +
    functional warmup) and ``prof.seconds["loop"]`` (the fused loop),
    and ``prof.ticks`` counts scheduler pops.
    """
    from repro.core.flywheel import Mode, _Boundary

    t0 = perf_counter()
    config = core.config
    fly = core.fly
    stream = core.stream
    pool = get_pool(stream.program, stream.seed, config.bpred)
    s0 = stream._seq
    # Cover the warmup only: fetch and the pooled oracle grow the pool
    # on demand past it.
    pool.ensure(s0 + warmup)
    # The pooled oracle replaces the live walker for the whole run —
    # including the warmup and the method-call paths (``_pair_trace``,
    # ``_next_oracle``) that read ``core.stream`` directly.
    core.stream = PooledOracle(pool, s0)

    if warmup:
        core._functional_warmup(warmup)
        if core.dvfs is not None:
            core.dvfs.reset_baseline(core)

    # ---- stable machine bindings (object identities never change) ----
    stats = core.stats
    events = stats.events
    be = core.be
    iw = core.iw
    # Issue-window internals (heaps/waiters mutate in place, even across
    # flush(), so one binding is safe for the whole run).  ``_recent`` /
    # ``caught_by_dup_match`` are deliberately NOT maintained here: they
    # are write-only scratch with raced_tags == 0 on this path and no
    # observer anywhere (metrics read only writes/broadcasts).
    iw_future = iw._future
    iw_eligible = iw._eligible
    iw_waiters = iw._waiters
    iw_width = iw.issue_width
    wk_delay = iw.wakeup_extra_delay
    delay_net = iw.delay_network
    fu = be.fu
    fu_counts = fu._counts
    fu_used = fu._used
    fu_reserved = fu._reserved
    fu_kind_tab = FU_KIND_TAB
    unpip_tab = UNPIPELINED_TAB
    lsq = be.lsq
    rob = be.rob
    rob_q = be._rob_q
    rob_cap = rob.capacity
    iw_cap = iw.capacity
    pending = be.pending
    ready = be.ready
    wake_events = be.wake_events
    done_events = be.done_events
    on_resolved = be._on_resolved
    hierarchy = core.hierarchy
    h_load = hierarchy.load
    h_store = hierarchy.store
    h_ifetch = hierarchy.ifetch
    fill = core.fill
    fe = core.fe
    fe_decode = fe.decode
    fetch_cap = fe._fetch_cap
    fetch_out = core._fetch_out
    decode_out = core._decode_out
    rename_out = core._rename_out
    dispatch_fifo = core._dispatch_fifo
    dispatch_q = core._dispatch_q
    fifo_cap = dispatch_fifo.capacity
    redirect_fifo = core._redirect_fifo
    redirect_q = core._redirect_q
    renamer = core.renamer
    ren_lid = renamer._lid          # mutated in place, never rebound
    frt = renamer._frt              # likewise
    srt_trace = renamer._srt_trace  # likewise
    pools = core.pools
    bases = pools.bases             # recomputed in place
    inflight = pools.inflight
    highwater = pools.highwater
    oracle_buffer = core._oracle_buffer
    # PooledOracle.next_instr inline in the fetch stage: ``oracle._seq``
    # must be read/written through the object because the method-call
    # paths (_pair_trace, _next_oracle) advance the same cursor.
    oracle = core.stream
    pool_ensure = pool.ensure
    po_pc = pool.pc
    po_op = pool.op
    po_dest = pool.dest
    po_srcs = pool.srcs
    po_sid = pool.sid
    po_addr = pool.mem_addr
    po_bk = pool.bk
    po_taken = pool.taken
    po_tpc = pool.target_pc
    po_fpc = pool.fall_pc
    bpred_predict = core.bpred.predict
    outstanding = core._outstanding
    pre_update = core._pre_update
    entries_of = None               # replay.entries, rebound per replay
    tr = core.trace
    tron = tr is not None
    emit = tr.emit if tron else None
    sched = core.sched
    be_dom = core.be_dom
    fe_dom = core.fe_dom
    dvfs = core.dvfs
    watchdog = core.watchdog
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
    fe_scale = core._fe_scale
    sync_cycles = fly.sync_cycles
    ec_enabled = fly.ec_enabled
    trace_cap = fly.max_trace_instrs

    last_cycle = 0
    last_count = -1
    now_ps = 0
    ticks = 0
    t1 = perf_counter()

    while stats.committed < max_instructions:
        ticks += 1
        now_ps = be_dom.next_tick_ps
        if now_ps <= fe_dom.next_tick_ps:
            be_dom.next_tick_ps = now_ps + be_dom.period_ps
            be_dom.cycles += 1
            # ======================= BE tick =========================
            c = be_dom.cycles
            create = core.mode is MODE_CREATE
            if create:
                stats.be_cycles_create += 1
            else:
                stats.be_cycles_execute += 1
            be_scale = core._be_scale
            # ---- ExecBackend.tick: FU bookkeeping, writeback, retire
            fu._cycle = c
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
                # ---- IssueWindow.broadcast_many inline
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
                # ---- ExecBackend.retire + TwoPhaseRenamer.retire
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
                                f"pool underflow on architected reg {arch}")
                        inflight[arch] -= 1
                    if entry.from_ec:
                        stats.instrs_from_ec += 1
                    stats.committed += 1
                events["rob_read"] += len(retired)
                if tron:
                    for entry in retired:
                        emit(c, "retire", entry.dyn.seq)
            # ---- policy stages
            if c < core._be_stall_until:
                stats.checkpoint_stall_cycles += 1
            else:
                ran_redist = False
                if core._applying_redist:
                    if (not rob_q and not any(inflight)
                            and core._boundary is B_NONE
                            and core._deferred_boundary is None):
                        core._apply_redistribution(c, now_ps)
                        ran_redist = True
                if ran_redist:
                    pass
                elif create:
                    # =================== CREATE mode ==================
                    if iw._count:
                        # ---- _create_issue (IssueWindow.select inline)
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
                            # ---- be.schedule_group inline
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
                            sealing = core._sealing
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
                            if core._builder_open and group:
                                core.builder.record_unit(group)
                            core._finish_sealing()
                            n_sel = len(selected)
                            stats.issued += n_sel
                            events["iw_select"] += n_sel
                            events["rf_read"] += rf_reads
                            events["fu_op"] += n_sel
                    if dispatch_q:
                        # ---- _create_accept (+ renamer.update inline)
                        n = 0
                        while n < dispatch_width:
                            if not dispatch_q or dispatch_q[0][0] > now_ps:
                                break
                            dyn = dispatch_q[0][1]
                            if len(rob_q) >= rob_cap or iw._count >= iw_cap:
                                if tron:
                                    emit(c, "stall", dyn.seq,
                                         "rob_full"
                                         if len(rob_q) >= rob_cap
                                         else "iw_full")
                                break
                            if (dyn.mem_addr is not None
                                    and lsq._count >= lsq.capacity):
                                if tron:
                                    emit(c, "stall", dyn.seq, "lsq_full")
                                break
                            if (dyn.trace_start
                                    and not core._begin_trace_at_update(
                                        dyn, c)):
                                stats.checkpoint_stall_cycles += 1
                                break
                            dispatch_q.popleft()
                            dispatch_fifo.pops += 1
                            events["sync_fifo_pop"] += 1
                            tg = dyn.trace_gen
                            remaining = pre_update.get(tg, 0) - 1
                            if remaining > 0:
                                pre_update[tg] = remaining
                            else:
                                pre_update.pop(tg, None)
                            # renamer.update(dyn, core._trace_run): the
                            # checkpoint tables rebind at trace starts,
                            # so read them per iteration.
                            renamer.updates += 1
                            rt = renamer._rt
                            p_sizes = pools.sizes
                            tr_run = core._trace_run
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
                                              == core._boundary_branch_seq))
                            # be.admit inline
                            rob_q.append(entry)
                            rob.writes += 1
                            pending[dyn.seq] = entry
                            if dyn.mem_addr is not None:
                                lsq.insert()
                                events["lsq_write"] += 1
                            events["rob_write"] += 1
                            # ---- iw.insert_synced inline (raced_tags=0;
                            # capacity was checked above)
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
                    if core._boundary is not B_NONE:
                        core._try_finish_boundary(c, now_ps)
                else:
                    # ================== EXECUTE mode ==================
                    replay = core._replay
                    if replay is None:
                        raise SimulationError(
                            "EXECUTE mode without a replay")
                    if fill._active and fill._arrived < fill._total_slots:
                        fill.tick(c)
                    ap = replay.alloc_ptr
                    vc = replay.valid_count
                    if ap < vc:
                        # ---- _replay_alloc (+ renamer.update inline)
                        paired = replay.paired
                        entries_of = replay.entries
                        rt = renamer._rt
                        srt = renamer._srt
                        p_sizes = pools.sizes
                        tr_run = core._trace_run
                        div_pos = replay.div_pos
                        tid = replay.trace.tid
                        n = 0
                        while ap < vc and n < issue_width:
                            dyn = paired[ap]
                            if len(rob_q) >= rob_cap:
                                if tron:
                                    emit(c, "stall", dyn.seq, "rob_full")
                                break
                            if (dyn.mem_addr is not None
                                    and lsq._count >= lsq.capacity):
                                if tron:
                                    emit(c, "stall", dyn.seq, "lsq_full")
                                break
                            dest = dyn.dest
                            if (dest is not None and dest != 0
                                    and inflight[dest]
                                    >= p_sizes[dest] - 1):
                                pools.note_stall(dest)
                                stats.rename_pool_stalls += 1
                                if tron:
                                    emit(c, "stall", dyn.seq, "pool_full")
                                break
                            renamer.updates += 1
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
                    if replay.unit_idx < replay.n_units and not (
                            replay.div_pos >= 0 and replay.branch_resolved
                            and replay.valid_issued >= vc):
                        # ---- _replay_issue
                        unit = replay.trace.units[replay.unit_idx]
                        recs = unit.instrs
                        n_recs = len(recs)
                        if fill._arrived - fill._consumed >= n_recs:
                            entries_of = replay.entries
                            if replay.div_pos < 0:
                                valid = recs
                            else:
                                valid = [rec for rec in recs
                                         if rec.pos < vc]
                            ok = True
                            for rec in valid:
                                if rec.pos >= ap:
                                    ok = False
                                    break
                                if rec.op is _STORE:
                                    continue
                                for tag in entries_of[rec.pos].dyn.src_tags:
                                    if tag >= 0 and not ready[tag]:
                                        ok = False
                                        break
                                if not ok:
                                    break
                            if ok and fu.try_issue_group(unit.demands, c):
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
                    core._replay_check_end(replay, c, now_ps)
            # ---- run-loop epilogue: watchdog, governor, skip-ahead
            committed = stats.committed
            if committed != last_count:
                last_count = committed
                last_cycle = be_dom.cycles
                if committed >= max_instructions:
                    break
            elif be_dom.cycles - last_cycle > window:
                watchdog.trip(be_dom.cycles, committed,
                              core._deadlock_detail,
                              snapshot=core._deadlock_snapshot)
            if dvfs is not None and be_dom.cycles >= dvfs.next_check:
                dvfs.on_interval(core, be_dom.cycles, now_ps)
            replay = core._replay
            if replay is not None and core._fe_gated:
                c = be_dom.cycles
                if c >= core._be_stall_until:
                    target = core._replay_idle_until(replay, c)
                    if target is not None:
                        skip = target - 1 - c
                        if skip > 0:
                            be_dom.cycles = c + skip
                            be_dom.next_tick_ps += skip * be_dom.period_ps
                            stats.be_cycles_execute += skip
        elif core._fe_gated:
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
                    if epoch == core._block_epoch:
                        core._fetch_blocked = False
            if rename_out:
                # ---- _fe_dispatch
                latency_ps = sync_cycles * be_dom.period_ps
                n = 0
                while rename_out and n < dispatch_width:
                    dyn = rename_out[0]
                    if (dyn.lat_ready > fe_c
                            or len(dispatch_q) >= fifo_cap):
                        break
                    rename_out.popleft()
                    dispatch_q.append((now_ps + latency_ps, dyn))
                    dispatch_fifo.pushes += 1
                    events["sync_fifo_push"] += 1
                    n += 1
            if decode_out and not core._applying_redist:
                # ---- _fe_rename (+ renamer.rename inline)
                be_c = be_dom.cycles
                p_sizes = pools.sizes
                n = 0
                while decode_out and n < rename_width:
                    dyn = decode_out[0]
                    if dyn.lat_ready > fe_c:
                        break
                    if dyn.trace_start:
                        renamer.reset_lids()
                        core._trace_pos_counter = 0
                    dest = dyn.dest
                    if (dest is not None and dest != 0
                            and inflight[dest] >= p_sizes[dest] - 1):
                        pools.note_stall(dest)
                        stats.rename_pool_stalls += 1
                        if tron:
                            emit(be_c, "stall", dyn.seq, "pool_full")
                        break
                    decode_out.popleft()
                    renamer.renames += 1
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
                    dyn.trace_pos = core._trace_pos_counter
                    core._trace_pos_counter += 1
                    dyn.lat_ready = fe_c + 1
                    rename_out.append(dyn)
                    if tron:
                        emit(be_c, "rename", dyn.seq)
                    events["rename_op"] += 1
                    n += 1
            if fetch_out:
                fe_decode(fe_c)
            if (not (core._fetch_blocked or core._applying_redist)
                    and len(fetch_out) < fetch_cap):
                # ---- _fe_fetch (+ _check_natural_end inline)
                be_c = be_dom.cycles
                delay = 0
                for i in range(fetch_width):
                    if oracle_buffer:
                        dyn = oracle_buffer.popleft()
                    else:
                        j = oracle._seq
                        if j >= pool.n:
                            pool_ensure(j + 1)
                        oracle._seq = j + 1
                        dyn = DynInstr(j, po_pc[j], po_op[j], po_dest[j],
                                       po_srcs[j], po_sid[j], po_addr[j],
                                       po_bk[j], po_taken[j], po_tpc[j],
                                       po_fpc[j])
                    if i == 0:
                        delay = (h_ifetch(dyn.pc, fe_scale, fe_c)
                                 + extra_fe)
                        events["icache_access"] += 1
                    if core._fe_new_trace:
                        dyn.trace_start = True
                        core._fe_new_trace = False
                        core._fe_trace_count = 0
                        core._fe_gen += 1
                    g = core._fe_gen
                    dyn.trace_gen = g
                    pre_update[g] = pre_update.get(g, 0) + 1
                    dyn.lat_ready = fe_c + delay
                    fetch_out.append(dyn)
                    if tron:
                        emit(be_c, "fetch", dyn.seq)
                    stats.fetched += 1
                    count = core._fe_trace_count + 1
                    core._fe_trace_count = count
                    if dyn.branch_kind:
                        stats.branches += 1
                        events["bpred_lookup"] += 1
                        if not bpred_predict(dyn):
                            stats.mispredicts += 1
                            core._begin_boundary(B_MISPREDICT, dyn)
                            break
                        if ec_enabled and count >= trace_cap and (
                                (dyn.taken and dyn.target_pc <= dyn.pc)
                                or count >= 2 * trace_cap):
                            core._begin_boundary(B_NATURAL, dyn)
                            break
                        break  # fetch group ends at a control transfer
                    if (ec_enabled and count >= trace_cap
                            and count >= 2 * trace_cap):
                        core._begin_boundary(B_NATURAL, dyn)
                        break

    stats.sim_time_ps = now_ps
    if prof is not None:
        t2 = perf_counter()
        prof.seconds["pool"] += t1 - t0
        prof.seconds["loop"] += t2 - t1
        prof.ticks += ticks
    return stats
