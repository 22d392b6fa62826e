"""Instruction pools: the program-order oracle the run loops read.

Everything the stream walk produces is program-order deterministic (the
walker never sees timing; the predictor is consulted once per branch in
program order; rename tags pop from a FIFO free list refilled in commit
order, which is program order again). :mod:`.pool` runs it ahead of time
into list-backed, seq-indexed columns (:class:`~.pool.StreamPool`) and
per-run R10K rename tags (:class:`~.pool.RenamePlan`).

Every run loop reads a pool, on either engine. ``BaselineCore.run`` —
the one synchronous pipeline — reads the columns directly;
``FlywheelCore.run`` reads them as ``DynInstr``s through a
:class:`~.pool.PooledOracle`, and one :func:`~.pool.functional_warmup`
primes every kind's caches from them. ``CoreConfig.engine`` selects
only which pool (:func:`~.pool.core_pool`): turbo (the default,
``None``) shares :func:`~.pool.get_pool`'s cached pool per benchmark;
``"legacy"`` walks the program afresh into a private one for every run.
The golden rule for the axis is bit-identity: every counter, event,
freq-trace point, cache stat and metric snapshot must match across
engines (tests/test_golden_stats.py).
Like the rest of ``repro`` it needs only the standard library.
"""
