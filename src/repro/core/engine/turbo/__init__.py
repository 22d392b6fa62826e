"""Turbo engine backend: batched struct-of-arrays execution.

The legacy engine walks one Python object per instruction per stage per
cycle; at ~100k simulated cycles/sec the interpreter overhead — not any
single hot function — is the bottleneck (BENCH_core.json, DESIGN.md §8).
The turbo backend is a second *implementation* of the same machines: it
precomputes everything that is program-order deterministic (the stream
walk, rename tags, branch-predictor outcomes, fetch-group boundaries,
op-indexed latency/FU tables) into parallel list-backed pools, then
runs a fused tick loop over plain lists with batched counter flushes
and event-compiled skip-ahead.

Selection rides ``CoreConfig.engine``: turbo is the default engine
(``None``) and ``"legacy"`` selects the reference implementation. The
golden rule for any engine backend is bit-identity: every counter,
event, freq-trace point, cache stat and metric snapshot must match the
legacy engine exactly, or the backend is wrong — there is no "close
enough" for an implementation axis (tests/test_golden_stats.py enforces
this for the turbo backend). Like the rest of ``repro`` it needs only
the standard library.
"""
