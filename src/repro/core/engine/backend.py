"""Shared execution back end: dispatch admission, execute/writeback, retire.

One instance holds the structures every core kind shares — issue window,
reorder buffer, load/store queue, functional-unit pools, the physical-
register scoreboard, and the wake/done event queues — plus the per-cycle
mechanics over them. The cores keep only their *policy*: when to issue,
how to rename, what a trace boundary means.

Per-cycle contract (back-end clock): the owning core calls
``tick(c, mem_scale)`` first thing each cycle, which performs

1. FU bookkeeping     — reset issue slots, expire long reservations.
2. Writeback          — mature tag broadcasts (scoreboard + window
   wake-up) and completion events; the configured ``on_resolved(entry,
   c)`` hook fires for completed entries flagged ``mispredicted``.
3. Retire             — in-order commit from the ROB head; the configured
   ``commit_entry(entry)`` hook applies the core's renamer bookkeeping.

and then runs its own issue/dispatch stages, calling
``schedule_group``. Hooks are installed once via :meth:`configure` — the
tick path is the hottest loop in the repository and carries no per-call
policy arguments. The Flywheel's fused run loop inlines ``tick`` and the
dispatch admission, and uses this instance only for its state.

Event-queue discipline: ``wake_events``/``done_events`` map cycle number
-> list in issue order. The engine only appends and pops whole cycles, so
two cores issuing identical instruction sequences produce bit-identical
stats — the golden-equivalence property the refactor is pinned against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import CoreConfig
from repro.core.stats import SimStats
from repro.execute.fu import FuPool
from repro.execute.lsq import LoadStoreQueue
from repro.isa import OpClass
from repro.isa.opclasses import EXEC_LATENCY_TAB
from repro.mem.hierarchy import MemoryHierarchy
from repro.rob.reorder_buffer import ReorderBuffer, RobEntry

#: entry-completion hook: (entry, cycle) -> None
ResolveHook = Callable[[RobEntry, int], None]
#: retirement hook: (entry) -> None
CommitHook = Callable[[RobEntry], None]


class ExecBackend:
    """Execute/writeback/retire engine over FuPool + LSQ + ROB."""

    __slots__ = ("stats", "hierarchy", "fu", "lsq", "rob", "ready",
                 "wake_events", "done_events", "pending", "_events",
                 "_regread_stages", "_rob_q", "_iw",
                 "_commit_width", "_on_resolved", "_commit_entry",
                 "_trace")

    def __init__(self, config: CoreConfig, stats: SimStats,
                 hierarchy: MemoryHierarchy, phys_regs: int):
        self.stats = stats
        self.hierarchy = hierarchy
        self.fu = FuPool(config.int_alus, config.int_muldivs,
                         config.mem_ports, config.fp_adders,
                         config.fp_muldivs)
        self.lsq = LoadStoreQueue(config.lsq_entries)
        self.rob = ReorderBuffer(config.rob_entries)
        #: physical-register readiness scoreboard (1 = ready)
        self.ready = bytearray([1] * phys_regs)
        #: completion queues keyed by cycle: tag broadcasts / done entries
        self.wake_events: Dict[int, List[int]] = {}
        self.done_events: Dict[int, List[RobEntry]] = {}
        #: in-flight entries admitted but not yet issued, keyed by seq
        self.pending: Dict[int, RobEntry] = {}
        self._events = stats.events
        self._regread_stages = config.regread_stages
        self._commit_width = config.commit_width
        # Hot-path bindings (the underlying objects never change identity).
        self._rob_q = self.rob._queue
        self._iw = None
        self._on_resolved: ResolveHook = _no_resolve
        self._commit_entry: CommitHook = _no_commit
        #: Flight recorder, or None (the no-op path: every emission site
        #: below is one ``is not None`` branch on a slot read).
        self._trace = None

    def attach_trace(self, recorder) -> None:
        """Arm the flight recorder (a :class:`repro.obs.TraceRecorder`)."""
        self._trace = recorder

    def configure(self, iw, on_resolved: ResolveHook,
                  commit_entry: Optional[CommitHook] = None) -> None:
        """Install the owning core's issue window and policy hooks.

        A core whose run loop inlines retirement (the Flywheel) passes
        no ``commit_entry``; :meth:`retire` then raises.
        """
        if commit_entry is None:
            commit_entry = _no_commit
        self._iw = iw
        self._on_resolved = on_resolved
        self._commit_entry = commit_entry

    # ------------------------------------------------------------- helpers

    @property
    def ready_getter(self) -> Callable[[int], int]:
        """Scoreboard probe for IssueWindow.insert (bound C method)."""
        return self.ready.__getitem__

    def reset_scoreboard(self) -> None:
        """Mark every physical register ready (renaming state reset)."""
        self.ready[:] = b"\x01" * len(self.ready)

    # ------------------------------------------------------------- stages

    def tick(self, c: int, mem_scale: float) -> None:
        """Per-cycle entry: FU bookkeeping, writeback, retire (in order)."""
        # Inline FuPool.begin_cycle — both branches are usually false.
        fu = self.fu
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
        wakes = self.wake_events.pop(c, None)
        if wakes is not None:
            ready = self.ready
            for tag in wakes:
                ready[tag] = 1
            self._iw.broadcast_many(wakes, c)
            events = self._events
            events["iw_broadcast"] += len(wakes)
            events["rf_write"] += len(wakes)
        dones = self.done_events.pop(c, None)
        if dones is not None:
            on_resolved = self._on_resolved
            for entry in dones:
                entry.done = True
                if entry.mispredicted:
                    on_resolved(entry, c)
            tr = self._trace
            if tr is not None:
                for entry in dones:
                    tr.emit(c, "complete", entry.dyn.seq)
        rob_q = self._rob_q
        if rob_q and rob_q[0].done:
            self.retire(self._commit_width, mem_scale, self._commit_entry, c)

    def schedule_group(self, selected, c: int, mem_scale: float) -> int:
        """Start execution of one selected group, in selection order.

        Equivalent to calling :meth:`schedule` per instruction; one call
        per cycle with the loop invariants hoisted. Returns the group's
        register-file read count (the ``rf_read`` power event).
        """
        wake_events = self.wake_events
        done_events = self.done_events
        pending = self.pending
        regread = self._regread_stages
        load = self.hierarchy.load
        events = self._events
        lat_tab = EXEC_LATENCY_TAB
        tr = self._trace
        rf_reads = 0
        for dyn in selected:
            op = dyn.op
            lat = lat_tab[op]
            if op is OpClass.LOAD:
                lat += load(dyn.mem_addr, mem_scale, c)
                events["dcache_access"] += 1
            if tr is not None:
                tr.emit(c, "issue", dyn.seq, lat)
            wake = c + lat
            tag = dyn.dest_tag
            if tag >= 0:
                lst = wake_events.get(wake)
                if lst is None:
                    wake_events[wake] = [tag]
                else:
                    lst.append(tag)
            done = wake + regread
            entry = pending.pop(dyn.seq)
            lst = done_events.get(done)
            if lst is None:
                done_events[done] = [entry]
            else:
                lst.append(entry)
            rf_reads += len(dyn.src_tags)
        return rf_reads

    def retire(self, width: int, mem_scale: float,
               commit_entry: CommitHook, now: int = 0) -> int:
        """In-order commit of up to ``width`` done entries from the head."""
        retired = self.rob.retire_ready(width)
        if not retired:
            return 0
        hierarchy = self.hierarchy
        lsq = self.lsq
        events = self._events
        stats = self.stats
        for entry in retired:
            dyn = entry.dyn
            if dyn.op is OpClass.STORE and dyn.mem_addr is not None:
                hierarchy.store(dyn.mem_addr, mem_scale, now)
                events["dcache_access"] += 1
            if entry.is_mem:
                lsq.release()
            commit_entry(entry)
            stats.committed += 1
        events["rob_read"] += len(retired)
        tr = self._trace
        if tr is not None:
            for entry in retired:
                tr.emit(now, "retire", entry.dyn.seq)
        return len(retired)

    def next_event_cycle(self):
        """Earliest cycle at which a wake or done event is scheduled.

        Used by the idle skip-ahead: only consulted when the owning core
        has proven every other stage quiescent, so the O(pending) scans
        are off the per-cycle path. Returns None with no events pending.
        """
        wake = self.wake_events
        done = self.done_events
        best = min(wake) if wake else None
        if done:
            dmin = min(done)
            if best is None or dmin < best:
                best = dmin
        return best


def _no_resolve(entry: RobEntry, c: int) -> None:   # pragma: no cover
    raise RuntimeError("ExecBackend.configure() was never called")


def _no_commit(entry: RobEntry) -> None:   # pragma: no cover
    raise RuntimeError("ExecBackend has no commit hook: configure() was "
                       "never called, or the core inlines retirement")
