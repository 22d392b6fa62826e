"""Turbo engine backend: batched struct-of-arrays execution.

The legacy engine walks one Python object per instruction per stage per
cycle; at ~100k simulated cycles/sec the interpreter overhead — not any
single hot function — is the bottleneck (BENCH_core.json, DESIGN.md §8).
The turbo backend is a second *implementation* of the same machines: it
precomputes everything that is program-order deterministic (the stream
walk, rename tags, branch-predictor outcomes, fetch-group boundaries,
op-indexed latency/FU tables) into parallel NumPy-backed pools, then
runs a fused tick loop over plain arrays with batched counter flushes
and event-compiled skip-ahead.

Selection rides ``CoreConfig.engine`` ("legacy" | "turbo"); the golden
rule for any engine backend is bit-identity: every counter, event,
freq-trace point, cache stat and metric snapshot must match the legacy
engine exactly, or the backend is wrong — there is no "close enough"
for an implementation axis (tests/test_golden_stats.py enforces this
for the turbo backend).

This package guards the NumPy dependency: ``repro`` itself stays
dependency-free, and the turbo extra is declared as ``repro[turbo]``.
Everything heavier lives in submodules imported on demand.
"""

from __future__ import annotations

from repro.errors import ConfigError

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via sys.modules stub
    HAVE_NUMPY = False


def require_numpy() -> None:
    """Raise the canonical error when the turbo extra is missing.

    Called from ``CoreConfig.__post_init__`` so an ``engine="turbo"``
    spec fails at construction time with an actionable message instead
    of an ImportError from deep inside a campaign worker.
    """
    if not HAVE_NUMPY:
        raise ConfigError(
            "engine='turbo' requires NumPy, which is not "
            "installed; install the turbo extra (pip install "
            "'repro[turbo]') or use engine='legacy'")


__all__ = ["HAVE_NUMPY", "require_numpy"]
