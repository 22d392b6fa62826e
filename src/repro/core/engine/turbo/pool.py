"""Struct-of-arrays instruction pools: the run loops' oracle.

A live walker pays the stream walk (block/loop bookkeeping, RNG
draws, branch prediction, one ``DynInstr`` allocation) once per dynamic
instruction *inside* the timed loop.  Everything in that walk is
program-order deterministic: the walker never sees timing, the
predictor is consulted exactly once per branch in program order (wrong
paths are modelled as stalls, never fetched; functional warmup is also
program order), and rename tags pop from a FIFO free list whose refill
order is commit order — program order again.

The pool exploits that: it drives a *real* ``InstructionStream`` and a
*real* ``BranchPredictor`` once, ahead of time, and stores the outcome
as parallel columns indexed by ``seq`` — op class, pc, memory address,
branch kind, predicted-correct flag — plus per-chunk gathers of the
op-indexed tables (``EXEC_LATENCY_TAB``/``FU_KIND_TAB``/
``UNPIPELINED_TAB``) so per-instruction latency/unit lookups become
plain list reads.  Reusing the real walker/predictor makes the pool
correct by construction; the speed comes from the fused tick loop of
``BaselineCore.run`` never touching objects at all.

Pools grow in chunks on demand and are cached across runs keyed by
(program identity, stream seed, predictor config): a best-of-N
benchmark repeat or a config sweep over one benchmark re-simulates the
timing, not the program.  Chunks are small (1024 rows) because a paper
campaign job simulates a few thousand instructions and every row
costs ~170 bytes; within a pool the ``pc``/``fall_pc`` ints are shared
through one intern table (a program has far fewer static pcs than a
pool has rows), and a rename plan shares its source-tag tuples the
same way.  Both are exact: ints and tuples are immutable and compared
by value.

:class:`RenamePlan` is the per-run companion: dest/src physical tags
for the timed instruction range.  It is per-run because it depends on
``phys_regs`` and on where the timed region starts (warmup length).
Tag *values* are fully deterministic (k-th free-list pop = k-th element
of the initial list plus commit-order recycles — FIFO order is
interleaving-independent); tag *availability* is timing-dependent and
is tracked at run time with a single free-count integer.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.frontend.bpred import BranchPredictor
from repro.isa import DynInstr
from repro.isa.opclasses import (
    EXEC_LATENCY_TAB,
    FU_KIND_TAB,
    UNPIPELINED_TAB,
    OpClass,
)
from repro.workloads.stream import InstructionStream

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class StreamPool:
    """Seq-indexed SoA columns over one program's dynamic stream.

    Columns only ever ``extend`` (never rebind), so hot loops may bind
    the list objects once and stay valid across :meth:`ensure` growth.
    """

    CHUNK = 1024

    def __init__(self, program, seed: int, bpred_config):
        self._stream = InstructionStream(program, seed)
        self._bpred = BranchPredictor(bpred_config)
        self.n = 0
        self._pcs: dict = {}         # intern table for pc/fall_pc ints
        # Python-list columns: O(1) scalar access in the fused loop.
        self.op: list = []           # OpClass (enum; kept for .name)
        self.pc: list = []
        self.mem_addr: list = []     # int or None
        self.dest: list = []         # architected dest (int or None)
        self.srcs: list = []         # tuple of architected sources
        self.n_srcs: list = []       # len(srcs): the rf_read count
        self.bkind: list = []        # BranchKind as int (0 = NONE)
        self.correct: list = []      # predictor outcome (True off-branch)
        # Full-identity columns for PooledOracle reconstruction: the
        # Flywheel consults its *live* predictor only for created-mode
        # fetches (replayed branches skip predict), so ``correct`` above
        # is unusable there — but the walk itself is still program-order
        # deterministic and these columns rebuild exact DynInstrs.
        self.sid: list = []
        self.bk: list = []           # BranchKind enum (identity-safe)
        self.taken: list = []
        self.target_pc: list = []
        self.fall_pc: list = []
        self.is_load: list = []
        self.is_store: list = []
        self.lat0: list = []         # EXEC_LATENCY_TAB[op]
        self.fu_kind: list = []      # FU_KIND_TAB[op]
        self.unpip: list = []        # UNPIPELINED_TAB[op]
        self._plans: dict = {}       # (start, phys_regs) -> RenamePlan

    def plan(self, start: int, phys_regs: int) -> "RenamePlan":
        """The (cached) rename plan for a timed region starting at ``start``."""
        key = (start, phys_regs)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= 4:
                self._plans.pop(next(iter(self._plans)))
            plan = self._plans[key] = RenamePlan(self, start, phys_regs)
        return plan

    def ensure(self, n: int) -> None:
        """Grow the pool until it covers at least ``n`` instructions."""
        while self.n < n:
            self._grow()

    def _grow(self) -> None:
        next_instr = self._stream.next_instr
        predict = self._bpred.predict
        ops = self.op
        start = len(ops)
        pc = self.pc
        mem_addr = self.mem_addr
        dest = self.dest
        srcs = self.srcs
        n_srcs = self.n_srcs
        bkind = self.bkind
        correct = self.correct
        sid = self.sid
        bk = self.bk
        taken = self.taken
        target_pc = self.target_pc
        fall_pc = self.fall_pc
        intern = self._pcs.setdefault
        for _ in range(self.CHUNK):
            dyn = next_instr()
            ops.append(dyn.op)
            p = dyn.pc
            pc.append(intern(p, p))
            mem_addr.append(dyn.mem_addr)
            dest.append(dyn.dest)
            srcs.append(dyn.srcs)
            n_srcs.append(len(dyn.srcs))
            k = int(dyn.branch_kind)
            bkind.append(k)
            correct.append(predict(dyn) if k else True)
            sid.append(dyn.sid)
            bk.append(dyn.branch_kind)
            taken.append(dyn.taken)
            target_pc.append(dyn.target_pc)
            p = dyn.fall_pc
            fall_pc.append(p if p is None else intern(p, p))
        # Table gathers, one pass per chunk: the tick loop then reads a
        # column instead of indexing a table per instruction.
        new = ops[start:]
        self.lat0.extend([EXEC_LATENCY_TAB[op] for op in new])
        self.fu_kind.extend([FU_KIND_TAB[op] for op in new])
        self.unpip.extend([UNPIPELINED_TAB[op] for op in new])
        self.is_load.extend([op is _LOAD for op in new])
        self.is_store.extend([op is _STORE for op in new])
        self.n = len(ops)


class RenamePlan:
    """Precomputed R10K rename outcome for seqs ``start`` onward.

    Replays the rename map and the FIFO free list in program order,
    appending each instruction's recycled tag immediately: because both
    pops (rename order) and appends (commit order) happen in program
    order, the k-th pop takes the k-th enqueued tag regardless of how
    the real machine interleaves them.  Every renamed destination
    recycles exactly one tag (the previous mapping is never the zero
    tag), so the virtual free list's length is invariant and the plan
    can always extend; *when* a tag is available at run time is the
    fused loop's free-count integer.

    Columns are offset by ``start``: index with ``seq - start``.
    """

    CHUNK = 1024

    def __init__(self, pool: StreamPool, start: int, phys_regs: int):
        self._pool = pool
        self.start = start
        self._map = list(range(64))
        self._free = list(range(64, phys_regs))
        self._free_head = 0          # virtual deque: index of next pop
        self.n = start               # absolute seq covered (exclusive)
        self.dest_tag: list = []
        self.src_tags: list = []     # tuple of physical tags (shared)
        self.needs_tag: list = []    # dest renamed (== recycles at commit)
        self._tags: dict = {}        # intern table for src_tags tuples

    def ensure(self, n: int) -> None:
        while self.n < n:
            self._grow()

    def _grow(self) -> None:
        stop = self.n + self.CHUNK
        pool = self._pool
        pool.ensure(stop)
        reg_map = self._map
        free = self._free
        head = self._free_head
        p_dest = pool.dest
        p_srcs = pool.srcs
        dest_tag = self.dest_tag
        src_tags = self.src_tags
        needs_tag = self.needs_tag
        intern = self._tags.setdefault
        for seq in range(self.n, stop):
            tags = tuple([reg_map[s] for s in p_srcs[seq]])
            src_tags.append(intern(tags, tags))
            dest = p_dest[seq]
            if dest is None or dest == 0:
                dest_tag.append(-1)
                needs_tag.append(False)
            else:
                if head >= len(free):  # pragma: no cover - see docstring
                    raise SimulationError(
                        "rename plan exhausted the physical register file")
                tag = free[head]
                head += 1
                free.append(reg_map[dest])   # recycle (commit order)
                reg_map[dest] = tag
                dest_tag.append(tag)
                needs_tag.append(True)
        # Compact the consumed prefix so the list stays bounded.
        if head:
            del free[:head]
        self._free_head = 0
        self.n = stop


class PooledOracle:
    """Pool rows from ``seq`` on as fresh ``DynInstr``s (fresh: the
    Flywheel's pipeline mutates their rename/latch fields in place).

    The Flywheel's fetch and trace pairing read every instruction
    through one, on both engines, without paying the live walker's
    block bookkeeping, RNG draws and address resolution.
    """

    __slots__ = ("seq", "_pool", "_pc", "_op", "_dest", "_srcs", "_sid",
                 "_addr", "_bk", "_taken", "_tpc", "_fpc")

    def __init__(self, pool: StreamPool, start: int = 0):
        self._pool = pool
        self.seq = start
        self._pc = pool.pc
        self._op = pool.op
        self._dest = pool.dest
        self._srcs = pool.srcs
        self._sid = pool.sid
        self._addr = pool.mem_addr
        self._bk = pool.bk
        self._taken = pool.taken
        self._tpc = pool.target_pc
        self._fpc = pool.fall_pc

    def next_instr(self) -> DynInstr:
        i = self.seq
        if i >= self._pool.n:
            self._pool.ensure(i + 1)
        self.seq = i + 1
        return DynInstr(i, self._pc[i], self._op[i], self._dest[i],
                        self._srcs[i], self._sid[i], self._addr[i],
                        self._bk[i], self._taken[i], self._tpc[i],
                        self._fpc[i])


#: Cross-run pool cache: best-of-N repeats and sweeps over one benchmark
#: regenerate equal Program objects, so key on content identity rather
#: than object identity. Tiny FIFO — pools are per-benchmark.
_POOL_CACHE: dict = {}
_POOL_CACHE_MAX = 4


def get_pool(program, seed: int, bpred_config) -> StreamPool:
    """The (cached) stream pool for one program/seed/predictor config."""
    key = (program.name, program.seed, seed, program.entry,
           len(program.blocks), program.num_static_instrs, bpred_config)
    pool = _POOL_CACHE.get(key)
    if pool is None:
        if len(_POOL_CACHE) >= _POOL_CACHE_MAX:
            _POOL_CACHE.pop(next(iter(_POOL_CACHE)))
        pool = _POOL_CACHE[key] = StreamPool(program, seed, bpred_config)
    return pool


def core_pool(stream: InstructionStream, config) -> StreamPool:
    """The pool a core reads ``stream``'s program from.

    This is the whole engine axis: ``config.engine == "legacy"`` walks
    the program afresh into a private pool, any other engine shares
    :func:`get_pool`'s cached one. ``stream`` itself is never advanced:
    either pool walks its own copy of the program from seq 0.
    """
    if config.engine == "legacy":
        return StreamPool(stream.program, stream.seed, config.bpred)
    return get_pool(stream.program, stream.seed, config.bpred)


def functional_warmup(pool: StreamPool, hierarchy, start: int, count: int,
                      bpred=None) -> int:
    """Prime caches without timing over pool rows ``[start, start +
    count)``; returns the next seq, ``start + count``.

    Goes through the hierarchy's ``warm_*`` entry points: contents and
    counters update exactly as a timed access would, but the MSHR
    timeline is never touched (a warmup burst at cycle 0 must not
    pre-occupy the miss-overlap budget of the timed run). The pool's
    own predictor trains as the pool extends across these rows, every
    branch once, in program order. A core that drives a live predictor
    of its own (the Flywheel, whose replayed branches never consult it)
    passes it as ``bpred``: it then predicts every branch row in program
    order, as the ``DynInstr`` a :class:`PooledOracle` builds for it.
    """
    stop = start + count
    pool.ensure(stop)
    w_ifetch = hierarchy.warm_ifetch
    w_load = hierarchy.warm_load
    w_store = hierarchy.warm_store
    wp_pc = pool.pc
    wp_addr = pool.mem_addr
    wp_isld = pool.is_load
    for s in range(start, stop):
        if not s & 3:                      # one I-cache probe per 4 instrs
            w_ifetch(wp_pc[s])
        addr = wp_addr[s]
        if addr is not None:
            if wp_isld[s]:
                w_load(addr)
            else:
                w_store(addr)
    if bpred is not None:
        # The predictor and the caches share no state, so it may train
        # after the caches instead of interleaved with them.
        predict = bpred.predict
        oracle = PooledOracle(pool)
        wp_bkind = pool.bkind
        for s in range(start, stop):
            if wp_bkind[s]:
                oracle.seq = s
                predict(oracle.next_instr())
    return stop
